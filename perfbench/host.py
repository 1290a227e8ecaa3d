"""The process that runs the program under test, started by ``run.py``.

Two modes, one per kind of workload:

``mine``
    Repeated cold catalogs: each mine opens a fresh source and a fresh
    miner with no store attached, as an analyst's one-shot job does.  The
    loop runs for ``--seconds`` (and at least three mines).
    With ``--trace 1`` every other mine is traced, so the run measures its
    own tracing overhead.
``serve``
    The stdlib-tier HTTP service over a WAL-backed profile store, bound to
    an ephemeral port it prints as one JSON line.  It serves until a line
    arrives on (or EOF closes) its standard input.  With ``--trace 1`` the
    service's ``handle`` opens a root span for each request that carries
    the trace header.

Either mode writes one JSON document to ``--out`` when it ends: timings,
peak RSS of this process, and the spans (written once, at the end).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import tracing  # noqa: E402

TOKEN_ENV = "PERFBENCH_TOKEN"
#: Fewest mines a run measures, however long each takes.
MIN_MINES = 3


def _mine(args, sizes: common.Sizes, recorder) -> dict:
    times: list[float] = []
    traced: list[bool] = []
    failures: list[str] = []
    keys = None
    began = time.perf_counter()
    deadline = began + args.seconds
    while len(times) < MIN_MINES or time.perf_counter() < deadline:
        index = len(times)
        trace_this = recorder is not None and index % 2 == 1
        start = time.perf_counter()
        if trace_this:
            with recorder.root("mine", index):
                catalog = common.mine_catalog(args.source, args.path, sizes, args.seed)
        else:
            catalog = common.mine_catalog(args.source, args.path, sizes, args.seed)
        times.append(time.perf_counter() - start)
        traced.append(trace_this)
        mined = common.rule_keys(catalog)
        if keys is None:
            keys = mined
        if catalog.num_pairs != sizes.pairs or catalog.num_tuples != sizes.tuples:
            failures.append(
                f"mine {index}: {catalog.num_pairs} pairs over "
                f"{catalog.num_tuples} tuples, expected {sizes.pairs} over {sizes.tuples}"
            )
        elif mined != keys:
            failures.append(f"mine {index} differs from mine 0 under the same seed")
    return {
        "times": times,
        "traced": traced,
        "elapsed": time.perf_counter() - began,
        "keys": keys,
        "failures": failures,
    }


def _serve(args, sizes: common.Sizes) -> dict:
    from repro.service import BackgroundServer, RuleService, ServiceConfig

    token = os.environ.get(TOKEN_ENV)
    if not token:
        raise common.BenchError(f"{TOKEN_ENV} is not set")
    config = ServiceConfig(
        data=args.path,
        source="stream",
        store=args.store,
        num_buckets=sizes.buckets,
        seed=args.seed,
        executor=common.EXECUTOR,
        kernel_tier=common.KERNEL_TIER,
        chunk_size=sizes.chunk,
        token=token,
    )
    server = BackgroundServer(RuleService(config))
    try:
        print(json.dumps({"port": server.port}), flush=True)
        sys.stdin.readline()
    finally:
        server.close()
    return {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("mine", "serve"))
    parser.add_argument("--source", choices=("csv", "npy"), default="csv")
    parser.add_argument("--path", required=True)
    parser.add_argument("--store")
    parser.add_argument("--size", choices=sorted(common.SIZES), default="full")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    common.import_program()
    sizes = common.SIZES[args.size]

    recorder = tracing.Recorder() if args.trace else None
    if recorder is not None:
        tracing.install(recorder)
    if args.mode == "mine":
        result = _mine(args, sizes, recorder)
    else:
        result = _serve(args, sizes)
    result["peak_rss_mb"] = common.peak_rss_mb()
    result["spans"] = recorder.spans if recorder is not None else []
    common.dump(Path(args.out), result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
