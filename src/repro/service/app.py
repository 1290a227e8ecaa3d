"""The rule-mining service core: one synchronous request handler.

:class:`RuleService` is the whole service expressed as a plain function of
``(method, path, query, headers, body) -> (status, JSON body)``.  The HTTP
front-end — the stdlib asyncio server in :mod:`repro.service.http` — is a
thin transport around this one handler, so every behavior (auth, error
mapping, caching, coalescing) is tested once, transport-independently.

The hot path is built for a warm :class:`~repro.store.ProfileStore`:

* responses are cached in a small LRU keyed by the **source fingerprint**
  plus the canonical request parameters, so a repeated request over
  unchanged data never touches the miner at all (a ``stat`` + two dict
  lookups), and any change to the data — even one appended row — changes
  the fingerprint and misses the cache;
* concurrent identical cache misses are **coalesced**: a per-key
  single-flight elects one leader to run the mining batch while the other
  requests wait for its result, so a thundering herd against a cold key
  costs exactly one ``solve_many`` batch;
* every library error maps to a typed JSON error body
  ``{"error": {"type", "status", "message"}}`` at the response boundary —
  :class:`~repro.exceptions.SourceChangedError` is a 409 (the data moved
  under the request), :class:`~repro.exceptions.StoreError` a 500,
  :class:`~repro.exceptions.IngestError` a 503, solver/validation errors
  400 — so clients can branch on ``type`` without parsing prose.
"""

from __future__ import annotations

import hmac
import json
import threading
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.exceptions import (
    BucketingError,
    ConditionError,
    DatasetError,
    IngestError,
    OptimizationError,
    ProfileError,
    ReproError,
    SchemaError,
    ServiceError,
    ShardError,
    SourceChangedError,
    StoreError,
)

__all__ = [
    "RuleService",
    "ServiceConfig",
    "map_error_status",
]


def map_error_status(exc: ReproError) -> int:
    """The HTTP status a library error maps to at the response boundary.

    Ordering matters: :class:`SourceChangedError` derives from both
    :class:`RelationError` and :class:`StoreError` but is a *conflict* (the
    request raced a data change), not a server fault, so it is matched
    before the store branch.
    """
    if isinstance(exc, ServiceError):
        return exc.status
    if isinstance(exc, SourceChangedError):
        return 409
    if isinstance(exc, IngestError):
        return 503
    if isinstance(exc, ShardError):
        return 502
    if isinstance(
        exc,
        (
            SchemaError,
            ConditionError,
            OptimizationError,
            BucketingError,
            ProfileError,
            DatasetError,
        ),
    ):
        return 400
    # StoreError, PipelineError, and any future ReproError: the service is
    # misconfigured or its state is corrupt — the client did nothing wrong.
    return 500


def _error_body(exc: ReproError, status: int) -> dict:
    return {
        "error": {
            "type": type(exc).__name__,
            "status": status,
            "message": str(exc),
        }
    }


class _LRUCache:
    """A thread-safe LRU of response payloads."""

    def __init__(self, max_entries: int) -> None:
        self._entries: OrderedDict[tuple, dict] = OrderedDict()
        self._max_entries = int(max_entries)
        self._lock = threading.Lock()

    def get(self, key: tuple) -> dict | None:
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def put(self, key: tuple, value: dict) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class _SingleFlight:
    """Per-key coalescing: concurrent identical calls share one execution.

    The first caller for a key becomes the leader and runs ``fn``; callers
    arriving while it runs wait on the same future and receive the leader's
    result (or its exception — an error is answered identically to every
    coalesced request).  The key is retired before the future resolves, so
    a request arriving *after* completion starts a fresh flight — single-
    flight is a concurrency dedupe, never a cache.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._inflight: dict[tuple, Future] = {}

    def run(self, key: tuple, fn: Callable[[], Any]) -> tuple[Any, bool]:
        """Run ``fn`` (or join the in-flight run); returns ``(value, led)``."""
        with self._lock:
            future = self._inflight.get(key)
            if future is not None:
                leader = False
            else:
                future = Future()
                self._inflight[key] = future
                leader = True
        if not leader:
            return future.result(), False
        try:
            value = fn()
        except BaseException as exc:
            with self._lock:
                self._inflight.pop(key, None)
            future.set_exception(exc)
            raise
        with self._lock:
            self._inflight.pop(key, None)
        future.set_result(value)
        return value, True


@dataclass(frozen=True)
class ServiceConfig:
    """Static configuration of one service instance.

    ``num_buckets`` and ``seed`` are deliberately *not* request parameters:
    they determine the store plan signature, so pinning them server-side
    keeps every request interoperable with the snapshots ``repro store
    build`` / ``repro catalog --store`` / the ingest daemon create.
    Thresholds, ``top``, and ranking are per-request — they only shape the
    solver pass and the response, never the cached profiles.
    """

    data: str
    source: str = "stream"
    store: str | None = None
    num_buckets: int = 200
    seed: int = 0
    min_support: float = 0.10
    min_confidence: float = 0.50
    engine: str = "fast"
    executor: str = "serial"
    kernel_tier: str | None = None
    chunk_size: int | None = None
    token: str | None = None
    top: int = 20
    cache_entries: int = 128
    rebuild_threshold: float | None = None
    extra: Mapping[str, Any] = field(default_factory=dict)


_KIND_CHOICES = ("confidence", "support", "max-average", "support-average")
_RANK_CHOICES = ("lift", "confidence", "support")


class RuleService:
    """The service plane over a warm :class:`~repro.store.ProfileStore`.

    Thread-safe: ``handle`` may be called from any number of transport
    threads concurrently.  The store writer lock, the miner cache lock, and
    the fingerprint memo below this layer make the shared state safe; this
    layer adds the response LRU and the single-flight coalescer.
    """

    def __init__(self, config: ServiceConfig) -> None:
        if config.source not in ("stream", "npy", "parquet"):
            raise ServiceError(
                f"unsupported service source {config.source!r}; "
                "use stream, npy, or parquet",
                status=500,
            )
        self._config = config
        self._store = None
        if config.store is not None:
            from repro.store import ProfileStore

            kwargs: dict[str, Any] = {}
            if config.rebuild_threshold is not None:
                kwargs["rebuild_threshold"] = config.rebuild_threshold
            self._store = ProfileStore(config.store, **kwargs)
        self._cache = _LRUCache(config.cache_entries)
        self._flight = _SingleFlight()
        self._metrics_lock = threading.Lock()
        self._metrics = {
            "requests": 0,
            "errors": 0,
            "cache_hits": 0,
            "coalesced": 0,
            "solve_batches": 0,
        }

    # ------------------------------------------------------------------
    # plumbing

    @property
    def config(self) -> ServiceConfig:
        return self._config

    @property
    def store(self):
        """The service's ProfileStore (``None`` when serving store-less)."""
        return self._store

    def metrics(self) -> dict:
        with self._metrics_lock:
            return dict(self._metrics)

    def _count(self, name: str, amount: int = 1) -> None:
        with self._metrics_lock:
            self._metrics[name] += amount

    def _bare_source(self):
        """A schema-less source, sufficient for fingerprinting only."""
        from repro.pipeline import CSVSource, NpyDirectorySource, ParquetSource
        from repro.relation.io import DEFAULT_CHUNK_SIZE

        chunk_size = self._config.chunk_size or DEFAULT_CHUNK_SIZE
        if self._config.source == "npy":
            return NpyDirectorySource(self._config.data, chunk_size=chunk_size)
        if self._config.source == "parquet":
            return ParquetSource(self._config.data, chunk_size=chunk_size)
        return CSVSource(self._config.data, chunk_size=chunk_size)

    def _open_source(self):
        """The mining source, with the schema resolved store-first.

        A warm store remembers the schema its snapshot was built under, so
        warm requests never parse a row of the CSV; only a cold store (or a
        store-less service) pays the inference parse — immediately followed
        by the mining scan anyway.
        """
        from repro.pipeline import CSVSource
        from repro.relation.io import DEFAULT_CHUNK_SIZE, infer_csv_schema

        if self._config.source in ("npy", "parquet"):
            return self._bare_source()
        chunk_size = self._config.chunk_size or DEFAULT_CHUNK_SIZE
        schema = None
        if self._store is not None:
            schema = self._store.cached_schema(
                CSVSource(self._config.data, chunk_size=chunk_size)
            )
        if schema is None:
            schema = infer_csv_schema(self._config.data, chunk_size=chunk_size)
        return CSVSource(self._config.data, schema=schema, chunk_size=chunk_size)

    def _fingerprint_key(self) -> tuple:
        """``(token, length)`` of the current source bytes.

        This is the cache discriminator: any change to the data — append,
        rewrite, replacement — changes it, so the response LRU can never
        serve rules mined from bytes that no longer exist.
        """
        fingerprint = self._bare_source().fingerprint()
        if fingerprint is None:
            raise ServiceError(
                "the configured source cannot be fingerprinted; "
                "the service cannot cache or serve it safely",
                status=503,
            )
        return (fingerprint.token, fingerprint.length)

    def _cached(self, key: tuple, compute: Callable[[], dict]) -> dict:
        """LRU lookup, then single-flight computation on miss."""
        payload = self._cache.get(key)
        if payload is not None:
            self._count("cache_hits")
            return payload
        def fill() -> dict:
            value = compute()
            self._cache.put(key, value)
            return value
        payload, led = self._flight.run(key, fill)
        if not led:
            self._count("coalesced")
        return payload

    # ------------------------------------------------------------------
    # request entry point

    def handle(
        self,
        method: str,
        path: str,
        query: Mapping[str, str] | None = None,
        headers: Mapping[str, str] | None = None,
        body: bytes = b"",
    ) -> tuple[int, dict]:
        """Answer one request; never raises — errors become typed bodies."""
        self._count("requests")
        try:
            return self._dispatch(
                method.upper(),
                path.rstrip("/") or "/",
                dict(query or {}),
                {str(k).lower(): v for k, v in (headers or {}).items()},
                body,
            )
        except ReproError as exc:
            self._count("errors")
            status = map_error_status(exc)
            return status, _error_body(exc, status)
        except OSError as exc:
            # Data or store files vanished between checks; the request is
            # answerable later, the connection must survive now.
            self._count("errors")
            return 503, {
                "error": {"type": "OSError", "status": 503, "message": str(exc)}
            }
        except Exception as exc:  # noqa: BLE001 - the transport must never drop
            self._count("errors")
            return 500, {
                "error": {
                    "type": "InternalError",
                    "status": 500,
                    "message": f"{type(exc).__name__}: {exc}",
                }
            }

    def _dispatch(
        self,
        method: str,
        path: str,
        query: dict,
        headers: dict,
        body: bytes,
    ) -> tuple[int, dict]:
        if path == "/healthz":
            self._require(method, "GET")
            return 200, {"status": "ok", "service": "repro"}
        if path == "/readyz":
            self._require(method, "GET")
            return self._readyz()
        self._authorize(headers)
        if path == "/metrics":
            self._require(method, "GET")
            return 200, {"metrics": self.metrics(), "cache_entries": len(self._cache)}
        params = self._params(method, query, body)
        if path == "/v1/catalog":
            self._require(method, "GET", "POST")
            return self._catalog(params)
        if path == "/v1/mine":
            self._require(method, "POST")
            return self._mine(params)
        if path == "/v1/rules2d":
            self._require(method, "POST")
            return self._rules2d(params)
        if path == "/v1/store/inspect":
            self._require(method, "GET")
            return self._store_inspect()
        if path == "/v1/store/append":
            self._require(method, "POST")
            return self._store_append()
        raise ServiceError(f"unknown endpoint {path!r}", status=404)

    @staticmethod
    def _require(method: str, *allowed: str) -> None:
        if method not in allowed:
            raise ServiceError(
                f"method {method} not allowed; use {' or '.join(allowed)}",
                status=405,
            )

    def _authorize(self, headers: Mapping[str, str]) -> None:
        token = self._config.token
        if not token:
            return
        supplied = str(headers.get("authorization", ""))
        prefix, _, credential = supplied.partition(" ")
        if prefix.lower() != "bearer" or not hmac.compare_digest(
            credential.strip(), token
        ):
            raise ServiceError("missing or invalid bearer token", status=401)

    def _params(self, method: str, query: dict, body: bytes) -> dict:
        params = dict(query)
        if body:
            try:
                decoded = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ServiceError(f"request body is not valid JSON: {exc}") from exc
            if not isinstance(decoded, dict):
                raise ServiceError("request body must be a JSON object")
            params.update(decoded)
        return params

    # ------------------------------------------------------------------
    # parameter coercion

    @staticmethod
    def _fraction(params: dict, name: str, default: float) -> float:
        raw = params.pop(name, None)
        if raw is None:
            return default
        try:
            value = float(raw)
        except (TypeError, ValueError) as exc:
            raise ServiceError(f"parameter {name!r} must be a number") from exc
        if not 0.0 <= value <= 1.0:
            raise ServiceError(f"parameter {name!r} must lie in [0, 1]")
        return value

    @staticmethod
    def _positive_int(params: dict, name: str, default: int, maximum: int = 10_000) -> int:
        raw = params.pop(name, None)
        if raw is None:
            return default
        try:
            value = int(raw)
        except (TypeError, ValueError) as exc:
            raise ServiceError(f"parameter {name!r} must be an integer") from exc
        if not 1 <= value <= maximum:
            raise ServiceError(f"parameter {name!r} must lie in [1, {maximum}]")
        return value

    @staticmethod
    def _choice(params: dict, name: str, default: str, choices: tuple[str, ...]) -> str:
        value = str(params.pop(name, default))
        if value not in choices:
            raise ServiceError(
                f"parameter {name!r} must be one of {', '.join(choices)}"
            )
        return value

    @staticmethod
    def _text(params: dict, name: str) -> str:
        raw = params.pop(name, None)
        if raw is None or not str(raw):
            raise ServiceError(f"parameter {name!r} is required")
        return str(raw)

    @staticmethod
    def _reject_unknown(params: dict) -> None:
        if params:
            names = ", ".join(sorted(str(name) for name in params))
            raise ServiceError(f"unknown parameter(s): {names}")

    # ------------------------------------------------------------------
    # endpoints

    def _readyz(self) -> tuple[int, dict]:
        checks: dict[str, str] = {}
        ready = True
        try:
            self._fingerprint_key()
            checks["source"] = "ok"
        except ReproError as exc:
            checks["source"] = str(exc)
            ready = False
        except OSError as exc:
            checks["source"] = str(exc)
            ready = False
        if self._store is None:
            checks["store"] = "disabled"
        else:
            try:
                snapshots = len(self._store.inspect())
                checks["store"] = f"ok ({snapshots} snapshot(s))"
            except ReproError as exc:
                checks["store"] = str(exc)
                ready = False
        status = 200 if ready else 503
        return status, {"status": "ready" if ready else "unready", "checks": checks}

    def _catalog(self, params: dict) -> tuple[int, dict]:
        min_support = self._fraction(params, "min_support", self._config.min_support)
        min_confidence = self._fraction(
            params, "min_confidence", self._config.min_confidence
        )
        top = self._positive_int(params, "top", self._config.top)
        rank_by = self._choice(params, "rank_by", "lift", _RANK_CHOICES)
        self._reject_unknown(params)
        key = (
            "catalog",
            *self._fingerprint_key(),
            min_support,
            min_confidence,
            top,
            rank_by,
        )

        def compute() -> dict:
            import numpy as np

            from repro.mining import mine_rule_catalog

            catalog = mine_rule_catalog(
                self._open_source(),
                min_support=min_support,
                min_confidence=min_confidence,
                num_buckets=self._config.num_buckets,
                rng=np.random.default_rng(self._config.seed),
                engine=self._config.engine,
                executor=self._config.executor,
                store=self._store,
                kernel_tier=self._config.kernel_tier,
            )
            self._count("solve_batches")
            return {
                "store_status": None if self._store is None else self._store.last_status,
                "num_pairs": catalog.num_pairs,
                "num_rules": len(catalog),
                "num_tuples": catalog.num_tuples,
                "min_support": min_support,
                "min_confidence": min_confidence,
                "rank_by": rank_by,
                "rules": [entry.as_row() for entry in catalog.top(top, by=rank_by)],
            }

        return 200, self._cached(key, compute)

    def _mine(self, params: dict) -> tuple[int, dict]:
        attribute = self._text(params, "attribute")
        objective = self._text(params, "objective")
        kind = self._choice(params, "kind", "confidence", _KIND_CHOICES)
        min_support = self._fraction(params, "min_support", self._config.min_support)
        min_confidence = self._fraction(
            params, "min_confidence", self._config.min_confidence
        )
        min_average = self._fraction(params, "min_average", 0.0)
        self._reject_unknown(params)
        key = (
            "mine",
            *self._fingerprint_key(),
            attribute,
            objective,
            kind,
            min_support,
            min_confidence,
            min_average,
        )

        def compute() -> dict:
            import numpy as np

            from repro.core.miner import OptimizedRuleMiner

            # Single-pair mining plans differ per (attribute, objective),
            # so the shared catalog store is deliberately not attached —
            # it would accrete one snapshot per distinct request key.
            miner = OptimizedRuleMiner(
                self._open_source(),
                num_buckets=self._config.num_buckets,
                rng=np.random.default_rng(self._config.seed),
                engine=self._config.engine,
                executor=self._config.executor,
                kernel_tier=self._config.kernel_tier,
            )
            if kind == "confidence":
                rule = miner.optimized_confidence_rule(
                    attribute, objective, min_support=min_support
                )
            elif kind == "support":
                rule = miner.optimized_support_rule(
                    attribute, objective, min_confidence=min_confidence
                )
            elif kind == "max-average":
                rule = miner.maximum_average_rule(
                    attribute, objective, min_support=min_support
                )
            else:
                rule = miner.maximum_support_average_rule(
                    attribute, objective, min_average=min_average
                )
            self._count("solve_batches")
            return {
                "found": rule is not None,
                "rule": _rule_row(rule),
            }

        return 200, self._cached(key, compute)

    def _rules2d(self, params: dict) -> tuple[int, dict]:
        row_attribute = self._text(params, "row_attribute")
        column_attribute = self._text(params, "column_attribute")
        objective = self._text(params, "objective")
        kind = self._choice(params, "kind", "confidence", ("confidence", "support"))
        min_support = self._fraction(params, "min_support", self._config.min_support)
        min_confidence = self._fraction(
            params, "min_confidence", self._config.min_confidence
        )
        grid_rows = self._positive_int(params, "grid_rows", 32, maximum=4096)
        grid_columns = self._positive_int(params, "grid_columns", 32, maximum=4096)
        self._reject_unknown(params)
        key = (
            "rules2d",
            *self._fingerprint_key(),
            row_attribute,
            column_attribute,
            objective,
            kind,
            min_support,
            min_confidence,
            grid_rows,
            grid_columns,
        )

        def compute() -> dict:
            import numpy as np

            from repro.core.rules import RuleKind
            from repro.extensions import mine_rectangle_rule

            rule = mine_rectangle_rule(
                self._open_source(),
                row_attribute,
                column_attribute,
                objective,
                kind=(
                    RuleKind.OPTIMIZED_CONFIDENCE
                    if kind == "confidence"
                    else RuleKind.OPTIMIZED_SUPPORT
                ),
                min_support=min_support,
                min_confidence=min_confidence,
                grid=(grid_rows, grid_columns),
                rng=np.random.default_rng(self._config.seed),
                engine=self._config.engine,
                executor=self._config.executor,
                store=self._store,
                kernel_tier=self._config.kernel_tier,
            )
            self._count("solve_batches")
            return {
                "found": rule is not None,
                "store_status": None if self._store is None else self._store.last_status,
                "rule": _rectangle_row(rule),
            }

        return 200, self._cached(key, compute)

    def _store_inspect(self) -> tuple[int, dict]:
        if self._store is None:
            raise ServiceError("this service runs without a profile store", status=404)
        entries = []
        for entry in self._store.inspect():
            entries.append(
                {
                    "payload": entry.get("payload"),
                    "plan_signature": entry.get("plan_signature"),
                    "seed": entry.get("seed"),
                    "num_tuples": entry.get("num_tuples"),
                    "appended_tuples": entry.get("appended_tuples"),
                    "staleness": entry.get("staleness"),
                    "requests": list(entry.get("requests", [])),
                }
            )
        return 200, {"directory": str(self._store.directory), "snapshots": entries}

    def _store_append(self) -> tuple[int, dict]:
        """Fold the source's new tail rows into the stored catalog snapshot.

        *Strict* append semantics — the mutation counterpart of the catalog
        endpoint's lazy warming: an unchanged source is a zero-scan ``hit``,
        a grown source counts only its new rows, a missing snapshot is a
        typed error (build one through ``/v1/catalog`` or ``repro store
        build``), and a source whose bytes drifted from the snapshot is a
        409 :class:`~repro.exceptions.SourceChangedError`, never a silent
        rebuild over data the client may not have meant to serve.

        The builder seed derives from the configured seed exactly as the
        miner derives it internally, so the snapshot this folds into is the
        one the catalog endpoint reads (same plan signature, same seed).
        """
        if self._store is None:
            raise ServiceError("this service runs without a profile store", status=404)

        import numpy as np

        from repro.mining import catalog_scan_plan
        from repro.pipeline.builder import ProfileBuilder

        source = self._open_source()
        seed = int(np.random.default_rng(self._config.seed).integers(0, 2**32))
        builder = ProfileBuilder(
            num_buckets=self._config.num_buckets,
            seed=seed,
            executor=self._config.executor,
            kernel_tier=self._config.kernel_tier,
        )
        plan = catalog_scan_plan(source.schema)
        results = self._store.append(builder, source, plan)
        num_tuples = int(results.parts[0].num_tuples) if results.parts else 0
        return 200, {
            "store_status": self._store.last_status,
            "num_requests": len(plan),
            "num_tuples": num_tuples,
        }


def _rule_row(rule) -> dict | None:
    """A mined 1-D rule as a flat JSON-ready dictionary."""
    if rule is None:
        return None
    from repro.core.rules import OptimizedAverageRule

    if isinstance(rule, OptimizedAverageRule):
        return {
            "attribute": rule.attribute,
            "target": rule.target,
            "kind": str(rule.kind),
            "low": float(rule.low),
            "high": float(rule.high),
            "support": float(rule.support),
            "average": float(rule.average),
        }
    return {
        "attribute": rule.attribute,
        "objective": str(rule.objective),
        "kind": str(rule.kind),
        "low": float(rule.low),
        "high": float(rule.high),
        "support": float(rule.support),
        "confidence": float(rule.confidence),
    }


def _rectangle_row(rule) -> dict | None:
    """A mined 2-D rectangle rule as a flat JSON-ready dictionary."""
    if rule is None:
        return None
    return {
        "row_attribute": rule.row_attribute,
        "column_attribute": rule.column_attribute,
        "objective": rule.objective_label,
        "kind": str(rule.kind),
        "row_low": float(rule.row_low),
        "row_high": float(rule.row_high),
        "column_low": float(rule.column_low),
        "column_high": float(rule.column_high),
        "support": float(rule.support),
        "confidence": float(rule.confidence),
    }
