"""Unified DataSource → ScanPlan → ProfileBuilder pipeline.

One profile-construction path for every deployment scenario of Algorithm
3.1: in-memory relations, chunked streams, and out-of-core CSV files all
implement the :class:`DataSource` scan contract, a :class:`ScanPlan`
collects every profile request a workload needs (bucket, §5 average, §4.3
presumptive, §1.4 grid), and :meth:`ProfileBuilder.execute_plan` answers
the whole plan from **one physical scan** of the source — boundary
sampling caches the counting payloads, and the fused chunk kernel counts
every request at once — under a pluggable executor (``serial`` /
``streaming`` / ``multiprocessing``).  :class:`GridProfileBuilder` builds
the 2-D cell grids (:class:`GridProfile`) of the §1.4 rectangle extension
on the same plan engine.  Every out-of-core profile is counted by that
one plan fold; profiles and grids are bit-identical across all source
types and executors, and equal to the in-memory oracles, so the miners,
the §1.3 catalog, the extensions, and the experiments run unchanged over
any of them.
"""

from repro.pipeline.builder import (
    EXECUTORS,
    AttributeCounts,
    AttributeSpec,
    PlanResults,
    ProfileBuilder,
    ProfileRequest,
    ScanPlan,
)
from repro.pipeline.grid import GridCounts, GridProfile, GridProfileBuilder
from repro.pipeline.sources import (
    HAVE_PYARROW,
    ChunkedSource,
    CSVSource,
    DataSource,
    NpyDirectorySource,
    ParquetSource,
    RelationSource,
    SourceFingerprint,
    fingerprint_relation,
    write_columnar,
)

__all__ = [
    "DataSource",
    "RelationSource",
    "ChunkedSource",
    "CSVSource",
    "NpyDirectorySource",
    "ParquetSource",
    "write_columnar",
    "HAVE_PYARROW",
    "SourceFingerprint",
    "fingerprint_relation",
    "ProfileBuilder",
    "AttributeSpec",
    "AttributeCounts",
    "ScanPlan",
    "ProfileRequest",
    "PlanResults",
    "GridProfile",
    "GridCounts",
    "GridProfileBuilder",
    "EXECUTORS",
]
