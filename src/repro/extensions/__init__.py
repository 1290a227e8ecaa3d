"""Extensions beyond the basic rule shape.

Implements the generalized conjunctive rules of §4.3, the two-dimensional
rectangle rules sketched in §1.4, the interval-classifier baseline, and the
decision trees with optimized range splits of the authors' follow-up work
(reference [10]).

Every extension runs on the same solver plane as the core miner: profiles
and grids are built through the ``repro.pipeline`` API (so any
:class:`~repro.pipeline.DataSource` works, in-memory or out-of-core, under
any executor) and ranges are solved by the batched fast-path engines with
the object-based implementations kept as the ``engine="reference"`` oracle.
"""

from repro.extensions.conjunctive import (
    ConjunctiveRuleResult,
    candidate_conjuncts,
    mine_conjunctive_rules,
)
from repro.extensions.decision_tree import (
    DecisionNode,
    RangeSplit,
    RangeSplitDecisionTree,
)
from repro.extensions.interval_classifier import ClassifiedInterval, IntervalClassifier
from repro.extensions.two_dimensional import (
    GridProfile,
    RectangleRule,
    mine_rectangle_rule,
)

__all__ = [
    "ConjunctiveRuleResult",
    "candidate_conjuncts",
    "mine_conjunctive_rules",
    "GridProfile",
    "RectangleRule",
    "mine_rectangle_rule",
    "DecisionNode",
    "RangeSplit",
    "RangeSplitDecisionTree",
    "ClassifiedInterval",
    "IntervalClassifier",
]
