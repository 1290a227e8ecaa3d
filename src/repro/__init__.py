"""repro — reproduction of "Mining Optimized Association Rules for Numeric Attributes".

The package implements the full system described by Fukuda, Morimoto,
Morishita and Tokuyama (PODS 1996 / JCSS 1999): a relational substrate with
numeric and Boolean attributes, randomized almost-equi-depth bucketing, the
linear-time optimized-confidence and optimized-support rule algorithms built
on convex-hull geometry, the §5 average-operator ranges, the §4.3 and two-
dimensional extensions, baseline algorithms, synthetic data generators, and
an experiment harness that regenerates the paper's figures and tables.

Quick start
-----------
>>> from repro import OptimizedRuleMiner, datasets
>>> relation, truth = datasets.bank_customers(20_000, seed=7)
>>> miner = OptimizedRuleMiner(relation, num_buckets=200)
>>> rule = miner.optimized_confidence_rule("balance", "card_loan", min_support=0.1)
>>> print(rule)  # doctest: +SKIP
(balance in [...]) => (card_loan = yes)  [support=..., confidence=...]
"""

from repro import (
    bucketing,
    core,
    datasets,
    extensions,
    geometry,
    mining,
    pipeline,
    relation,
    reporting,
    store,
)
from repro.bucketing import (
    Bucketing,
    EquiWidthBucketizer,
    FinestBucketizer,
    SampledEquiDepthBucketizer,
    SortingEquiDepthBucketizer,
)
from repro.core import (
    BucketProfile,
    MiningSettings,
    OptimizedAverageRule,
    OptimizedRangeRule,
    OptimizedRuleMiner,
    RangeSelection,
    RuleKind,
    maximize_ratio,
    maximize_support,
)
from repro.exceptions import (
    BucketingError,
    ConditionError,
    DatasetError,
    KernelError,
    NoFeasibleRangeError,
    OptimizationError,
    PipelineError,
    ProfileError,
    RelationError,
    ReproError,
    SchemaError,
    StoreError,
)
from repro.kernels import KERNEL_TIERS, resolve_kernel_tier
from repro.pipeline import (
    ChunkedSource,
    CSVSource,
    DataSource,
    GridProfile,
    GridProfileBuilder,
    NpyDirectorySource,
    ParquetSource,
    ProfileBuilder,
    RelationSource,
    write_columnar,
)
from repro.store import ProfileStore
from repro.relation import (
    Attribute,
    AttributeKind,
    BooleanIs,
    Condition,
    NumericInRange,
    Relation,
    RelationBuilder,
    Schema,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # subpackages
    "relation",
    "bucketing",
    "geometry",
    "core",
    "mining",
    "extensions",
    "datasets",
    "pipeline",
    "reporting",
    "store",
    # relational substrate
    "Attribute",
    "AttributeKind",
    "Schema",
    "Relation",
    "RelationBuilder",
    "Condition",
    "BooleanIs",
    "NumericInRange",
    # bucketing
    "Bucketing",
    "FinestBucketizer",
    "EquiWidthBucketizer",
    "SortingEquiDepthBucketizer",
    "SampledEquiDepthBucketizer",
    # core
    "BucketProfile",
    "RangeSelection",
    "RuleKind",
    "OptimizedRangeRule",
    "OptimizedAverageRule",
    "OptimizedRuleMiner",
    "MiningSettings",
    "maximize_ratio",
    "maximize_support",
    # pipeline
    "DataSource",
    "RelationSource",
    "ChunkedSource",
    "CSVSource",
    "ProfileBuilder",
    "GridProfile",
    "GridProfileBuilder",
    # persistent profile store
    "ProfileStore",
    # columnar sources
    "NpyDirectorySource",
    "ParquetSource",
    "write_columnar",
    # kernel tiers
    "KERNEL_TIERS",
    "resolve_kernel_tier",
    # exceptions
    "ReproError",
    "SchemaError",
    "RelationError",
    "ConditionError",
    "BucketingError",
    "ProfileError",
    "OptimizationError",
    "NoFeasibleRangeError",
    "DatasetError",
    "PipelineError",
    "StoreError",
    "KernelError",
]
