"""Bucketing engine: finest, equi-width, and (almost) equi-depth buckets.

Implements §2.3 and §3 of the paper: the bucket model, exact equi-depth
bucketing by sorting (the Naive Sort / Vertical Split Sort baselines of the
Figure 9 experiment), the randomized sampling bucketizer of Algorithm 3.1
(with :class:`ReservoirSampler` for its out-of-core sampling step), the
chunk counting kernels whose partials merge by summing, the sample-size
analysis behind Figure 1, and the granularity error bounds behind Table I.
Algorithm 3.2's parallel counting runs in :mod:`repro.pipeline`
(``ProfileBuilder(executor="multiprocessing")``).
"""

from repro.bucketing.base import Bucket, Bucketing, Bucketizer
from repro.bucketing.counting import (
    BucketCounts,
    ChunkCounts,
    count_conditions,
    count_many,
    count_relation_buckets,
    count_value_chunk,
    masked_bucket_counts,
)
from repro.bucketing.equidepth_sample import DEFAULT_SAMPLE_FACTOR, SampledEquiDepthBucketizer
from repro.bucketing.equidepth_sort import (
    SortingEquiDepthBucketizer,
    equidepth_cuts_from_sorted,
    naive_sort_bucketing,
    vertical_split_sort_bucketing,
)
from repro.bucketing.equiwidth import EquiWidthBucketizer
from repro.bucketing.errors import (
    GranularityErrorRow,
    confidence_error_bound,
    confidence_interval,
    granularity_error_table,
    support_error_bound,
    support_interval,
)
from repro.bucketing.finest import FinestBucketizer, finest_bucketing
from repro.bucketing.sample_size import (
    SampleSizeCurve,
    deviation_probability,
    empirical_deviation_probability,
    recommended_sample_factor,
    sample_size_curve,
)
from repro.bucketing.streaming import ReservoirSampler

__all__ = [
    "Bucket",
    "Bucketing",
    "Bucketizer",
    "FinestBucketizer",
    "finest_bucketing",
    "EquiWidthBucketizer",
    "SortingEquiDepthBucketizer",
    "equidepth_cuts_from_sorted",
    "naive_sort_bucketing",
    "vertical_split_sort_bucketing",
    "SampledEquiDepthBucketizer",
    "DEFAULT_SAMPLE_FACTOR",
    "BucketCounts",
    "ChunkCounts",
    "count_relation_buckets",
    "count_conditions",
    "count_many",
    "count_value_chunk",
    "masked_bucket_counts",
    "deviation_probability",
    "empirical_deviation_probability",
    "recommended_sample_factor",
    "sample_size_curve",
    "SampleSizeCurve",
    "support_error_bound",
    "confidence_error_bound",
    "support_interval",
    "confidence_interval",
    "granularity_error_table",
    "GranularityErrorRow",
    "ReservoirSampler",
]
