"""Crash-safe continuous-mining daemon over a :class:`ProfileStore`.

The daemon closes the loop the store opened: a data feed that grows at
the tail, a store that folds only new tuples, and nobody watching either.
:class:`IngestDaemon` polls a fingerprint-capable source, answers the
catalog plan through the store's crash-safe write path (every mutation
journaled — ``kill -9`` at any byte reopens to a consistent snapshot),
streams the appended tuples through per-attribute drift trackers, and
asks a :class:`~repro.ingest.policy.RefreezePolicy` whether the frozen
boundaries should rebuild.

One ``once()`` call is one **cycle**:

1. open a fresh source via ``source_factory`` (retried on transient
   I/O errors per the :class:`~repro.shard.RetryPolicy`);
2. heal any tracker gap — tuples another process folded into the store
   while this daemon was down are re-scanned *for drift only* with
   ``scan_span`` (the store itself needs nothing);
3. serve the plan through the store: hit, tail-fold append, or full
   build/rebuild — the daemon's observing proxy taps the tail chunks as
   they stream into the fused kernel, so drift tracking adds **zero**
   extra source scans;
4. evaluate drift, ask the policy; on a re-freeze verdict run
   :meth:`~repro.store.ProfileStore.refresh` and re-freeze the trackers;
5. persist the daemon's own state file (atomic tmp+replace, *after* the
   store's journal committed) so a crash between cycles resumes cleanly.

Degraded modes never corrupt: a temporarily unreadable source retries
then reports a degraded cycle while the store keeps serving the last
snapshot; a rewritten/shrunken source raises
:class:`~repro.exceptions.SourceChangedError` (or degrades, per
``on_source_changed``); ``max_failures`` consecutive failed cycles
escalate to a typed :class:`~repro.exceptions.IngestError`.
"""

from __future__ import annotations

import json
import time
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.exceptions import (
    IngestError,
    RelationError,
    SourceChangedError,
    StoreError,
)
from repro.ingest.drift import DEFAULT_RESERVOIR_CAPACITY, DriftTracker
from repro.ingest.policy import RefreezePolicy, ThresholdRefreezePolicy
from repro.pipeline.builder import PlanResults, ProfileBuilder, ScanPlan
from repro.pipeline.sources import DataSource
from repro.relation import Relation, Schema
from repro.shard.retry import RetryPolicy
from repro.store.profile_store import ProfileStore, plan_signature

__all__ = ["IngestDaemon", "IngestReport", "STATE_FILE_NAME"]

STATE_FILE_NAME = "ingest-state.json"

#: Errors treated as transient source trouble: retried, then degraded.
_TRANSIENT_ERRORS = (OSError, RelationError)


class _ObservingSource(DataSource):
    """Delegate to a source, tapping tail/span chunks for drift tracking.

    Only :meth:`scan_tail` and :meth:`scan_span` are observed — those are
    the appended tuples.  Full scans (build/rebuild paths) are not: after
    a rebuild the trackers re-freeze from the results instead.
    """

    def __init__(
        self, inner: DataSource, observe: Callable[[Relation], None]
    ) -> None:
        self._inner = inner
        self._observe = observe

    @property
    def schema(self) -> Schema:
        return self._inner.schema

    def chunks(self) -> Iterator[Relation]:
        return self._inner.chunks()

    def scan(self, columns: Sequence[str] | None = None) -> Iterator[Relation]:
        return self._inner.scan(columns)

    def fingerprint(self, prefix: int | None = None):
        return self._inner.fingerprint(prefix)

    def _tapped(self, chunks: Iterator[Relation]) -> Iterator[Relation]:
        for chunk in chunks:
            self._observe(chunk)
            yield chunk

    def scan_tail(
        self, start: int, columns: Sequence[str] | None = None
    ) -> Iterator[Relation]:
        return self._tapped(self._inner.scan_tail(start, columns))

    def scan_span(
        self, start: int, stop: int, columns: Sequence[str] | None = None
    ) -> Iterator[Relation]:
        return self._tapped(self._inner.scan_span(start, stop, columns))


@dataclass(frozen=True)
class IngestReport:
    """What one daemon cycle did (the CLI prints these verbatim)."""

    cycle: int
    status: str
    observed_length: int
    appended: int
    staleness: float
    refreeze_reason: str | None = None
    drift: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def degraded(self) -> bool:
        """Whether this cycle failed and the store served stale data."""
        return self.status == "degraded"

    def as_dict(self) -> dict:
        """JSON-ready form."""
        return {
            "cycle": int(self.cycle),
            "status": self.status,
            "observed_length": int(self.observed_length),
            "appended": int(self.appended),
            "staleness": float(self.staleness),
            "refreeze_reason": self.refreeze_reason,
            "drift": dict(self.drift),
            "error": self.error,
        }


class IngestDaemon:
    """Poll a growing source and fold its tail into a crash-safe store.

    Parameters
    ----------
    builder, plan, store:
        The catalog workload and where its snapshots live.  The plan and
        the builder's seed key the store entry exactly as ``store serve``
        does.
    source_factory:
        Zero-argument callable returning a **fresh** source each cycle.
        Re-opening per cycle is what lets pinned-snapshot sources (the
        ``.npy`` directory layout) observe growth, and what confines a
        half-written file to one failed cycle.
    policy:
        A :class:`~repro.ingest.policy.RefreezePolicy`; defaults to a
        :class:`~repro.ingest.policy.ThresholdRefreezePolicy` with stock
        knobs.
    retry:
        :class:`~repro.shard.RetryPolicy` for transient source errors
        within one cycle (defaults to two retries with short backoff).
    max_failures:
        Consecutive degraded cycles tolerated before ``once()`` raises
        :class:`~repro.exceptions.IngestError`.
    on_source_changed:
        ``"raise"`` (default) propagates a rewritten-source
        :class:`~repro.exceptions.SourceChangedError`; ``"serve-stale"``
        degrades the cycle instead and keeps serving the stored snapshot.
    """

    def __init__(
        self,
        builder: ProfileBuilder,
        source_factory: Callable[[], DataSource],
        plan: ScanPlan,
        store: ProfileStore,
        policy: RefreezePolicy | None = None,
        retry: RetryPolicy | None = None,
        reservoir_capacity: int = DEFAULT_RESERVOIR_CAPACITY,
        max_failures: int = 3,
        on_source_changed: str = "raise",
    ) -> None:
        if on_source_changed not in ("raise", "serve-stale"):
            raise IngestError(
                "on_source_changed must be 'raise' or 'serve-stale', "
                f"not {on_source_changed!r}"
            )
        self._builder = builder
        self._source_factory = source_factory
        self._plan = plan
        self._store = store
        self._policy = policy if policy is not None else ThresholdRefreezePolicy()
        self._retry = retry if retry is not None else RetryPolicy(base_delay=0.01)
        self._capacity = int(reservoir_capacity)
        self._max_failures = int(max_failures)
        self._on_source_changed = on_source_changed
        self._signature = plan_signature(builder, plan)
        self._tracker = DriftTracker({})
        self._cycle = 0
        self._cycles_since_refreeze = 0
        self._observed_length = 0
        self._consecutive_failures = 0
        self._load_state()

    # -- state file ---------------------------------------------------------

    @property
    def state_path(self) -> Path:
        """The daemon's own crash-safe state file, inside the store."""
        return self._store.directory / STATE_FILE_NAME

    def _load_state(self) -> None:
        try:
            raw = self.state_path.read_text(encoding="utf-8")
        except OSError:
            return
        try:
            state = json.loads(raw)
        except ValueError:
            return  # torn write of a previous daemon: start fresh
        if not isinstance(state, dict) or state.get("version") != 1:
            return
        if state.get("plan_signature") != self._signature:
            return  # different workload: its drift history is meaningless
        self._cycle = int(state.get("cycle", 0))
        self._cycles_since_refreeze = int(state.get("cycles_since_refreeze", 0))
        self._observed_length = int(state.get("observed_length", 0))
        tracker_state = state.get("tracker")
        if isinstance(tracker_state, dict):
            self._tracker = DriftTracker.from_state(tracker_state)

    def _save_state(self) -> None:
        state = {
            "version": 1,
            "plan_signature": self._signature,
            "seed": int(self._builder.seed),
            "cycle": self._cycle,
            "cycles_since_refreeze": self._cycles_since_refreeze,
            "observed_length": self._observed_length,
            "tracker": self._tracker.to_state(),
            "saved_unix": time.time(),
        }
        self._store.directory.mkdir(parents=True, exist_ok=True)
        temporary = self.state_path.with_name(self.state_path.name + ".tmp")
        # No indent: an indented dump runs json's pure-Python encoder, about
        # 3x slower on the tracker's reservoirs, and this runs every cycle.
        temporary.write_text(json.dumps(state, sort_keys=True), encoding="utf-8")
        temporary.replace(self.state_path)

    # -- store bookkeeping --------------------------------------------------

    def _stored_entry(self) -> dict | None:
        """The manifest entry this daemon's workload folds into, if any."""
        try:
            entries = self._store.inspect()
        except StoreError:
            return None
        matches = [
            entry
            for entry in entries
            if entry.get("plan_signature") == self._signature
            and entry.get("seed") == self._builder.seed
        ]
        if not matches:
            return None
        return max(matches, key=lambda entry: int(entry.get("num_tuples", 0)))

    def _ensure_prefix_intact(self, source, fingerprint, entry: dict) -> None:
        """A stored snapshot must still be a prefix of the live source.

        Shrinkage or a rewritten head means the feed is not append-only —
        folding its tail would mix two datasets in one snapshot, so the
        daemon refuses (``store.serve`` alone would quietly build a second
        snapshot over the new bytes, masking the rewrite).
        """
        stored = int(entry.get("length", 0))
        token = entry.get("token")
        if fingerprint.length == stored and fingerprint.token == token:
            return  # exactly the stored snapshot: the hit path
        if fingerprint.length < stored:
            raise SourceChangedError(
                f"the watched source shrank from {stored} to "
                f"{fingerprint.length} fingerprint units; the ingest daemon "
                "only follows append-only feeds"
            )
        prefix = source.fingerprint(stored)
        if prefix is None or prefix.token != token:
            raise SourceChangedError(
                "the watched source's head no longer matches the stored "
                "snapshot; the feed was rewritten in place rather than "
                "appended to"
            )

    def _heal_gap(self, source: DataSource, entry: dict | None) -> None:
        """Re-observe tuples the store folded while this daemon was down.

        The store is the source of truth for *counts*; the tracker only
        needs the values for drift.  When the stored snapshot is ahead of
        the tracker's observed length (another process appended, or a
        crash landed after the journal committed but before the state
        file), scan exactly the missed span — never the head.
        """
        if not len(self._tracker):
            return
        if entry is None:
            return
        # Lengths are in the source's fingerprint units (bytes for CSV,
        # tuples for columnar) — the same units scan_span addresses.
        stored = int(entry.get("length", 0))
        if stored <= self._observed_length:
            return
        columns = [
            name
            for name in source.schema.names()
            if name in set(self._tracker.attributes)
        ]
        for chunk in source.scan_span(self._observed_length, stored, columns or None):
            self._tracker.observe(chunk)
        self._observed_length = stored

    # -- the cycle ----------------------------------------------------------

    def _attempt_cycle(self) -> IngestReport:
        source = self._source_factory()
        fingerprint = source.fingerprint()
        if fingerprint is None:
            raise IngestError(
                "the source has no fingerprint; the ingest daemon can only "
                "watch fingerprint-capable sources"
            )
        entry = self._stored_entry()
        if entry is not None:
            self._ensure_prefix_intact(source, fingerprint, entry)
        self._heal_gap(source, entry)
        observing = _ObservingSource(source, self._tracker.observe)
        results, status = self._store.serve(self._builder, observing, self._plan)
        if status == "unstored":  # pragma: no cover - fingerprint checked above
            raise IngestError("the store refused to cache the source")
        if status in ("build", "rebuild"):
            self._tracker = DriftTracker.from_results(
                results, self._builder.seed, reservoir_capacity=self._capacity
            )
            self._cycles_since_refreeze = 0
        else:
            if not len(self._tracker):
                # First contact with a pre-built store (no persisted daemon
                # state): freeze the trackers at the snapshot being served
                # so the *next* appended chunk is drift-tracked.
                self._tracker = DriftTracker.from_results(
                    results, self._builder.seed, reservoir_capacity=self._capacity
                )
            self._cycles_since_refreeze += 1
        self._observed_length = int(fingerprint.length)

        entry = self._stored_entry()
        staleness = float(entry.get("staleness", 0.0)) if entry else 0.0
        metrics = self._tracker.metrics()
        appended = self._tracker.appended
        refreeze_reason = None
        if status not in ("build", "rebuild"):
            refreeze_reason = self._policy.decide(
                metrics,
                staleness=staleness,
                cycles_since_refreeze=self._cycles_since_refreeze,
            )
            if refreeze_reason is not None:
                refreshed = self._store.refresh(self._builder, source, self._plan)
                self._tracker = DriftTracker.from_results(
                    refreshed, self._builder.seed, reservoir_capacity=self._capacity
                )
                self._cycles_since_refreeze = 0
                status = "rebuild"
                # The report keeps the pre-freeze reading — the drift that
                # *triggered* the rebuild — while the trackers start clean.

        return IngestReport(
            cycle=self._cycle,
            status=status,
            observed_length=self._observed_length,
            appended=appended,
            staleness=staleness,
            refreeze_reason=refreeze_reason,
            drift={name: m.as_dict() for name, m in metrics.items()},
        )

    def once(self) -> IngestReport:
        """Run one cycle; always returns a report (degraded ones included).

        Raises :class:`~repro.exceptions.IngestError` when
        ``max_failures`` consecutive cycles degraded, and
        :class:`~repro.exceptions.SourceChangedError` when the source was
        rewritten under the daemon and ``on_source_changed="raise"``.
        """
        self._cycle += 1
        attempt = 0
        while True:
            try:
                report = self._attempt_cycle()
                self._consecutive_failures = 0
                self._save_state()
                return report
            except SourceChangedError as error:
                if self._on_source_changed == "raise":
                    raise
                return self._degrade(f"source changed: {error}")
            except _TRANSIENT_ERRORS as error:
                attempt += 1
                if self._retry.allows(attempt):
                    self._retry.wait(0, attempt)
                    continue
                return self._degrade(f"source unavailable: {error}")

    def _degrade(self, message: str) -> IngestReport:
        self._consecutive_failures += 1
        if self._consecutive_failures >= self._max_failures:
            raise IngestError(
                f"{self._consecutive_failures} consecutive ingest cycles "
                f"failed; last error: {message}"
            )
        entry = self._stored_entry()
        return IngestReport(
            cycle=self._cycle,
            status="degraded",
            observed_length=self._observed_length,
            appended=self._tracker.appended,
            staleness=float(entry.get("staleness", 0.0)) if entry else 0.0,
            drift={name: m.as_dict() for name, m in self._tracker.metrics().items()},
            error=message,
        )

    def run(
        self,
        cycles: int | None = None,
        interval: float = 0.0,
        sleep: Callable[[float], None] = time.sleep,
        on_report: Callable[[IngestReport], None] | None = None,
    ) -> list[IngestReport]:
        """Run cycles until ``cycles`` completes (forever when ``None``)."""
        reports: list[IngestReport] = []
        while cycles is None or len(reports) < cycles:
            report = self.once()
            reports.append(report)
            if on_report is not None:
                on_report(report)
            if cycles is not None and len(reports) >= cycles:
                break
            if interval > 0.0:
                sleep(interval)
        return reports

    def status(self) -> dict:
        """Daemon + store state without touching the source (no scans)."""
        entry = self._stored_entry()
        return {
            "cycle": self._cycle,
            "cycles_since_refreeze": self._cycles_since_refreeze,
            "observed_length": self._observed_length,
            "consecutive_failures": self._consecutive_failures,
            "stored_tuples": int(entry.get("num_tuples", 0)) if entry else 0,
            "staleness": float(entry.get("staleness", 0.0)) if entry else 0.0,
            "drift": {
                name: metrics.as_dict()
                for name, metrics in self._tracker.metrics().items()
            },
            "state_file": str(self.state_path),
        }
