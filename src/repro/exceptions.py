"""Exception hierarchy for the :mod:`repro` package.

All errors raised deliberately by the library derive from :class:`ReproError`
so that callers can catch library-specific failures with a single ``except``
clause while letting programming errors (``TypeError`` and friends) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class SchemaError(ReproError):
    """A relation schema is malformed or an attribute lookup failed."""


class RelationError(ReproError):
    """A relation operation received inconsistent data."""


class ConditionError(ReproError):
    """A condition refers to missing attributes or has invalid operands."""


class BucketingError(ReproError):
    """A bucketizer received invalid parameters or inconsistent input."""


class ProfileError(ReproError):
    """A bucket profile (``u``/``v`` arrays) is malformed."""


class OptimizationError(ReproError):
    """An optimized-rule solver received invalid thresholds or profiles."""


class NoFeasibleRangeError(OptimizationError):
    """No range of consecutive buckets satisfies the requested constraint.

    Raised by the strict variants of the solvers; the non-strict entry points
    return ``None`` instead so that bulk mining can simply skip infeasible
    attribute/condition pairs.
    """


class HullInvariantWarning(RuntimeWarning):
    """The suffix-hull sweep detected a violated stack-position invariant.

    The optimized-confidence sweep remembers where the previous tangent's
    terminating point sits in the hull stack so the next search can resume
    there in O(1).  If that position ever disagrees with the stack, the
    solver falls back to a full clockwise rescan — still correct, but the
    amortized O(M) bound degrades towards O(M²).  This warning makes that
    degradation observable instead of silent.
    """


class DatasetError(ReproError):
    """A dataset generator or loader received invalid parameters."""


class PipelineError(ReproError):
    """A data source or profile builder was configured inconsistently."""


class ExecutorError(PipelineError):
    """A counting executor's worker process died mid-fold.

    Raised instead of the raw ``concurrent.futures`` pool exception when a
    multiprocessing worker is killed (OOM killer, segfault, explicit kill)
    while counting, naming the chunk batch that was in flight.  The fold is
    abandoned — a dead worker's partial counts are unrecoverable, so the
    executor never silently drops them.
    """


class KernelError(PipelineError):
    """A kernel tier was requested that cannot be provided.

    Raised when an unknown tier name is requested — including
    ``kernel_tier="compiled"``, whose numba kernels were removed.
    ``"auto"`` and ``"numpy"`` never raise.
    """


class ExperimentError(ReproError):
    """An experiment driver was configured inconsistently."""


class StoreError(ReproError):
    """A persistent profile store is corrupt, stale, or mismatched.

    Raised whenever a :class:`~repro.store.ProfileStore` cannot *prove* that
    a stored snapshot answers the request it is being asked to serve — a
    truncated or unreadable payload file, a manifest whose self-description
    disagrees with the payload (seed/signature mismatch), or a source whose
    fingerprint has drifted from the stored snapshot's prefix.  The store
    never degrades to serving possibly-wrong counts: it either raises this
    error or rebuilds from the source.
    """


class SourceChangedError(RelationError, StoreError):
    """The data behind a source changed out from under an operation.

    Two code paths converge on this type: a :class:`CSVSource` scan that
    observes the file shrinking *mid-scan* (the bytes it fingerprinted no
    longer exist, so any counts folded so far describe data that is gone),
    and a store append whose source no longer digests to the stored
    snapshot's prefix (the data is not an append-only continuation).  It
    derives from both :class:`RelationError` (it is a relation-integrity
    failure) and :class:`StoreError` (the store refuses to merge across it),
    so existing handlers of either base keep working.
    """


class IngestError(ReproError):
    """The continuous-ingestion daemon cannot make progress.

    Raised when the ingest loop exhausts its retry budget against a source
    that stays unreadable, or when its persisted state disagrees with the
    store in a way reconciliation cannot heal.  Transient failures inside
    the loop never raise — they surface as ``degraded`` cycle reports while
    the daemon keeps serving the last good snapshot.
    """


class ServiceError(ReproError):
    """The rule-mining HTTP service rejected a request.

    Raised by the service plane's own validation — a malformed JSON body, an
    unknown endpoint parameter, a missing bearer token — and carries the
    HTTP ``status`` the typed error body maps to.  Library errors raised by
    the layers below (``StoreError``, ``SourceChangedError``, solver errors)
    pass through untouched; the service maps each to its status at the
    response boundary instead of re-wrapping.
    """

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = int(status)


class ShardError(ReproError):
    """A shard of a distributed counting run failed.

    Base of the shard plane's typed failure modes; carries ``shard_index``
    and ``attempt`` so retry loops and reports can name the exact failure.
    """

    def __init__(
        self, message: str, shard_index: int = -1, attempt: int = 0
    ) -> None:
        super().__init__(message)
        self.shard_index = int(shard_index)
        self.attempt = int(attempt)


class ShardTimeout(ShardError):
    """A shard worker exceeded its per-attempt wall-clock budget."""


class ShardCrashed(ShardError):
    """A shard worker raised or died before returning its partial."""


class ShardCorrupt(ShardError):
    """A shard partial failed validation and was rejected, never folded.

    Covers every tampered-or-stale shape: a checksum mismatch (bit flips,
    truncated arrays), a fingerprint stamp naming different source data, a
    partial claiming the wrong shard index, or a tuple count that disagrees
    with the shard's span.
    """
