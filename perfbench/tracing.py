"""Spans around the calls into each layer of the program, from outside it.

The wrappers are installed at the module attribute each caller resolves
(``repro.pipeline.builder.count_plan_chunk``, ``repro.core.miner.
solve_optimized_confidence``, class attributes for methods), so nothing
under ``src/`` changes.  A span is recorded only while the calling thread
is inside a *root* — one traced operation: a mine, a catalog read carrying
the trace header, an ingest cycle — so untraced operations in the same
process pay one thread-local lookup per wrapped call.

Spans stay in memory (``Recorder.spans``) and are written out once, when
the run ends.  ``operations`` turns them into per-operation layer self times
(a span's duration minus its children's) whose sum plus the root's own
remainder (``unaccounted``) is the operation's wall time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from typing import Callable

#: Request header whose value ``"<class>:<id>"`` makes the service's
#: ``handle`` wrapper open a root span for that request.
TRACE_HEADER = "x-perfbench-op"

# (span name, module, attribute path, wrapper style)
TARGETS = (
    ("sources.schema", "repro.pipeline.sources", "CSVSource.schema", "property"),
    ("sources.schema", "repro.relation.io", "infer_csv_schema", "call"),
    ("sources.parse", "repro.pipeline.sources", "CSVSource.scan", "iter"),
    ("sources.parse", "repro.pipeline.sources", "CSVSource.scan_tail", "iter"),
    ("sources.parse", "repro.pipeline.sources", "NpyDirectorySource.scan", "iter"),
    ("sources.fingerprint", "repro.pipeline.sources", "CSVSource.fingerprint", "call"),
    ("bucketing.sample", "repro.bucketing.streaming", "ReservoirSampler.extend", "call"),
    ("bucketing.count", "repro.pipeline.builder", "count_plan_chunk", "count"),
    ("builder.plan", "repro.pipeline.builder", "ProfileBuilder.execute_plan", "call"),
    ("builder.tail", "repro.pipeline.builder", "ProfileBuilder.execute_plan_tail", "call"),
    ("miner.solve", "repro.core.miner", "solve_optimized_confidence", "call"),
    ("miner.solve", "repro.core.miner", "solve_optimized_support", "call"),
    ("miner.solve_many", "repro.core.miner", "OptimizedRuleMiner.solve_many", "call"),
    ("store.serve", "repro.store.profile_store", "ProfileStore.serve", "status"),
    ("store.append", "repro.store.profile_store", "ProfileStore.append", "call"),
    ("store.cached_schema", "repro.store.profile_store", "ProfileStore.cached_schema", "call"),
    ("store.verify", "repro.store.profile_store", "ProfileStore.verify", "size"),
    ("service.handle", "repro.service.app", "RuleService.handle", "handle"),
    ("ingest.once", "repro.ingest.daemon", "IngestDaemon.once", "report"),
)

# Span tuple fields.
ID, PARENT, ROOT, NAME, START, END, COUNT, TAG = range(8)


class _Span:
    __slots__ = ("recorder", "name", "tag", "count", "ident", "parent", "root", "start")

    def __init__(self, recorder: "Recorder", name: str, tag) -> None:
        self.recorder = recorder
        self.name = name
        self.tag = tag
        self.count = None

    def __enter__(self) -> "_Span":
        stack = self.recorder._stack()
        self.ident = next(self.recorder._ids)
        self.parent = stack[-1].ident if stack else None
        self.root = stack[0].ident if stack else self.ident
        stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter()
        self.recorder._stack().pop()
        self.recorder.spans.append(
            (self.ident, self.parent, self.root, self.name, self.start, end,
             self.count, self.tag)
        )


class Recorder:
    """In-memory span store shared by every wrapper installed with it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def active(self) -> bool:
        return bool(getattr(self._local, "stack", None))

    def root(self, kind: str, tag=None) -> _Span:
        """Open one traced operation of class ``kind`` on this thread."""
        return _Span(self, "op." + kind, tag)

    def span(self, name: str) -> _Span:
        return _Span(self, name, None)


class _TracedIterator:
    """Times each ``next()`` of a scan iterator and counts its rows."""

    def __init__(self, recorder: Recorder, name: str, inner) -> None:
        self._recorder = recorder
        self._name = name
        self._inner = iter(inner)

    def __iter__(self) -> "_TracedIterator":
        return self

    def __next__(self):
        if not self._recorder.active():
            return next(self._inner)
        with self._recorder.span(self._name) as span:
            chunk = next(self._inner)
            span.count = len(chunk)
        return chunk


def _wrap(recorder: Recorder, name: str, style: str, original):
    if style == "iter":

        @functools.wraps(original)
        def iterating(*args, **kwargs):
            return _TracedIterator(recorder, name, original(*args, **kwargs))

        return iterating

    if style == "handle":

        @functools.wraps(original)
        def handle(self, method, path, query=None, headers=None, body=b""):
            header = (headers or {}).get(TRACE_HEADER)
            if header and not recorder.active():
                kind, _, ident = str(header).partition(":")
                with recorder.root(kind, ident):
                    with recorder.span(name) as span:
                        result = original(self, method, path, query, headers, body)
                        span.count = result[0]
                return result
            if not recorder.active():
                return original(self, method, path, query, headers, body)
            with recorder.span(name) as span:
                result = original(self, method, path, query, headers, body)
                span.count = result[0]
            return result

        return handle

    @functools.wraps(original)
    def call(*args, **kwargs):
        if not recorder.active():
            return original(*args, **kwargs)
        with recorder.span(name) as span:
            result = original(*args, **kwargs)
            if style == "count":  # count_plan_chunk(plan, payload, ...)
                columns = args[1][0]
                span.count = len(columns[0]) if len(columns) else 0
            elif style == "status":  # ProfileStore.serve -> (results, status)
                span.tag = result[1]
            elif style == "size":
                span.count = len(result)
            elif style == "report":
                span.tag = result.status
        return result

    return call


def install(recorder: Recorder) -> Callable[[], None]:
    """Install every wrapper; returns a function that restores the originals."""
    restores = []
    for name, module_name, path, style in TARGETS:
        owner = importlib.import_module(module_name)
        *owners, attribute = path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        original = owner.__dict__[attribute] if owners else getattr(owner, attribute)
        if style == "property":
            replacement = property(_wrap(recorder, name, "call", original.fget))
        else:
            replacement = _wrap(recorder, name, style, original)
        setattr(owner, attribute, replacement)
        restores.append((owner, attribute, original))

    def restore() -> None:
        for owner, attribute, original in reversed(restores):
            setattr(owner, attribute, original)

    return restore


# ---------------------------------------------------------------------------
# accounting


def operations(spans) -> dict:
    """Group spans by root operation.

    Returns ``{root id: {"kind", "tag", "wall", "self", "profile"}}`` where
    ``self`` maps each layer (and ``unaccounted``, the root's own time) to
    its self time, so ``sum(self.values()) == wall``, and ``profile`` maps
    each span name to its calls, item count, inclusive and self seconds.
    Inclusive time and counts take only spans not nested in a span of the
    same name, so a scan that delegates to another scan counts once.
    """
    children: dict = defaultdict(float)
    by_id = {}
    for span in spans:
        by_id[span[ID]] = span
        if span[PARENT] is not None:
            children[span[PARENT]] += span[END] - span[START]
    ops: dict = {}
    for span in spans:
        if span[PARENT] is None and span[NAME].startswith("op."):
            wall = span[END] - span[START]
            ops[span[ID]] = {
                "kind": span[NAME][3:],
                "tag": span[TAG],
                "wall": wall,
                "self": {"unaccounted": wall - children[span[ID]]},
                "profile": {},
            }
    for span in spans:
        op = ops.get(span[ROOT])
        if op is None or span[ID] == span[ROOT]:
            continue
        name = span[NAME]
        self_time = span[END] - span[START] - children[span[ID]]
        layer = name.split(".", 1)[0]
        op["self"][layer] = op["self"].get(layer, 0.0) + self_time
        entry = op["profile"].setdefault(
            name, {"calls": 0, "items": 0, "n": 0, "incl": 0.0, "self": 0.0, "tags": {}}
        )
        entry["self"] += self_time
        if span[TAG] is not None:
            entry["tags"][span[TAG]] = entry["tags"].get(span[TAG], 0) + 1
        parent = by_id.get(span[PARENT])
        while parent is not None and parent[NAME] != name:
            parent = by_id.get(parent[PARENT])
        if parent is None:  # outermost span of this name
            entry["calls"] += 1
            entry["incl"] += span[END] - span[START]
            if span[COUNT] is not None:
                entry["items"] += 1
                entry["n"] += span[COUNT]
    return ops
