"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload catalog-csv --seed 1 --seconds 20 --trace 0

Workloads: ``catalog-csv`` and ``catalog-npy`` (repeated cold all-pairs
catalogs from a CSV file and from a memory-mapped ``.npy`` column
directory) and ``serve-mix`` (catalog reads over HTTP while the ingest
daemon appends).  ``--trace 0`` measures the end-to-end metrics with no
tracing installed; ``--trace 1`` is a separate traced run that prints the
per-layer table and emits the per-layer metrics.  Every run checks the
program's outputs.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("catalog-csv", "catalog-npy", "serve-mix")
WORK_DIR = common.ROOT / ".perfbench_work"
TRACE_DIR = common.ROOT / ".perfbench_out"

# (metric, span name, per-operation measure).  Each is the mean, over the
# traced window operations that entered the span, of that operation's value.
LAYER_MEASURES = (
    ("sources.schema_s", "sources.schema", "incl"),
    ("sources.parse_s", "sources.parse", "incl"),
    ("sources.chunks", "sources.parse", "items"),
    ("sources.rows_scanned", "sources.parse", "n"),
    ("sources.fingerprint_s", "sources.fingerprint", "incl"),
    ("sources.fingerprint_calls", "sources.fingerprint", "calls"),
    ("bucketing.sample_s", "bucketing.sample", "incl"),
    ("bucketing.count_s", "bucketing.count", "incl"),
    ("bucketing.count_calls", "bucketing.count", "calls"),
    ("bucketing.tuples_counted", "bucketing.count", "n"),
    ("builder.plan_self_s", "builder.plan", "self"),
    ("builder.tail_self_s", "builder.tail", "self"),
    ("miner.solve_s", "miner.solve", "incl"),
    ("miner.solve_calls", "miner.solve", "calls"),
    ("miner.solve_many_self_s", "miner.solve_many", "self"),
    ("store.serve_s", "store.serve", "incl"),
    ("store.append_s", "store.append", "incl"),
    ("store.cached_schema_s", "store.cached_schema", "incl"),
    ("ingest.cycle_s", "ingest.once", "incl"),
)
# Event totals over the traced window: (metric, span name, tags counted).
LAYER_EVENTS = (
    ("store.serve_hits", "store.serve", ("hit",)),
    ("store.serve_appends", "store.serve", ("append",)),
    ("store.serve_builds", "store.serve", ("build", "rebuild")),
    ("ingest.cycles", "ingest.once", None),
    ("ingest.rebuilds", "ingest.once", ("rebuild",)),
)


# A hit that waited this long in the generator found both connections busy
# (behind a solve); the accounting table keeps those hits apart.
QUEUED_SECONDS = 0.01
# Per-layer metrics only serve-mix has; the catalog workloads report 0.
SERVE_ONLY = (
    "store.verify_problems",
    "service.handle_repeat_ms_p50",
    "service.handle_fresh_ms_p50",
    "service.transport_ms_p50",
    "service.cache_hit_ratio",
    "service.coalesced",
    "service.solve_batches",
    "loadgen.sent",
    "loadgen.completed",
    "loadgen.failed",
    "loadgen.lag_p99_ms",
)


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    end_to_end: dict
    record: dict
    attempted: int
    failures: list
    failed: int
    layers: dict = field(default_factory=dict)
    accounting: list = field(default_factory=list)
    spans: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# per-layer metrics


def window_layer_metrics(ops: list[dict]) -> dict:
    metrics = {}
    for metric, span_name, measure in LAYER_MEASURES:
        values = [
            op["profile"][span_name][measure]
            for op in ops
            if op["profile"].get(span_name, {}).get("calls")
        ]
        metrics[metric] = statistics.fmean(values) if values else 0.0
    for metric, span_name, tags in LAYER_EVENTS:
        total = 0
        for op in ops:
            entry = op["profile"].get(span_name)
            if entry is None:
                continue
            if tags is None:
                total += entry["calls"]
            else:
                total += sum(entry["tags"].get(tag, 0) for tag in tags)
        metrics[metric] = total
    metrics["trace.unaccounted_s"] = (
        statistics.fmean(op["self"]["unaccounted"] for op in ops) if ops else 0.0
    )
    return metrics


def accounting_table(classes: dict[str, list[dict]]) -> list[str]:
    """Per class: mean wall time and mean self time of each layer (ms)."""
    lines = []
    for kind, ops in classes.items():
        if not ops:
            continue
        wall = statistics.fmean(op["wall"] for op in ops)
        parts = {
            layer: statistics.fmean(op["self"].get(layer, 0.0) for op in ops)
            for layer in {layer for op in ops for layer in op["self"]}
        }
        total = sum(parts.values())
        lines.append(f"  {kind}: {len(ops)} traced op(s), mean wall {wall * 1e3:.2f} ms")
        for layer, value in sorted(parts.items(), key=lambda item: -item[1]):
            share = value / wall if wall else 0.0
            lines.append(f"    {layer:<14} {value * 1e3:10.3f} ms  {share:6.1%}")
        lines.append(f"    {'sum':<14} {total * 1e3:10.3f} ms  (wall - sum = "
                     f"{(wall - total) * 1e3:.3f} ms)")
    return lines


def overhead(traced: list[float], untraced: list[float]) -> dict:
    if not traced or not untraced:
        return {"traced_n": len(traced), "untraced_n": len(untraced)}
    high, low = statistics.median(traced), statistics.median(untraced)
    return {
        "traced_ms": high * 1e3,
        "untraced_ms": low * 1e3,
        "overhead_ms": (high - low) * 1e3,
        "overhead_pct": (high - low) / low * 100.0,
        "traced_n": len(traced),
        "untraced_n": len(untraced),
    }


# ---------------------------------------------------------------------------
# workloads


def catalog_outcome(kind: str, args, workdir: Path) -> Outcome:
    import catalog

    sizes = common.SIZES[args.size]
    result = catalog.run(kind, args.size, args.seed, args.seconds, bool(args.trace), workdir)
    untraced = result["untraced"]
    median = statistics.median(untraced)
    outcome = Outcome(
        end_to_end={
            "setup_s": statistics.median(result["setups"]),
            "tuples_per_s": sizes.tuples / median,
            # Every correct mine counts: a catalog job has no latency limit.
            "goodput_rps": (len(result["times"]) - result["mine_failures"])
            / result["elapsed"],
            "peak_rss_mb": result["peak_rss_mb"],
        },
        record={
            "setup_s": common.summary(result["setups"]),
            "mine_s": common.summary(untraced),
            "rules": result["rules"],
        },
        attempted=result["attempted"],
        failures=result["failures"],
        failed=result["failed"],
        spans={"mining": result["spans"]},
    )
    if args.trace:
        ops = list(tracing.operations(result["spans"]).values())
        cost = overhead(result["traced"], untraced)
        outcome.layers = dict(
            window_layer_metrics(ops),
            **dict.fromkeys(SERVE_ONLY, 0.0),
            **{"trace.overhead_pct": cost.get("overhead_pct", 0.0)},
        )
        outcome.record["tracing_overhead"] = {"mine": cost}
        outcome.accounting = accounting_table({"mine": ops})
    return outcome


def _p(values, q):
    return common.percentile(values, q) if values else 0.0


def serve_outcome(args, workdir: Path) -> Outcome:
    import servemix

    sizes = common.SIZES[args.size]
    result = servemix.run(args.size, args.seed, args.seconds, bool(args.trace), workdir)
    reads, appends = result["reads"], result["appends"]
    completed = [read for read in reads if read.error is None and read.done]
    latencies = [read.latency for read in completed]
    fresh = [read for read in completed if read.kind == "fresh" and read.ok]
    limit = args.read_limit_ms / 1e3
    good = [read for read in reads if read.ok and read.latency <= limit]
    lags = [read.lag for read in reads]
    if not fresh:
        raise common.BenchError("no fresh read completed")
    end_to_end = {
        "setup_s": statistics.median(result["setups"]),
        "tuples_per_s": sizes.tuples / statistics.median(result["colds"]),
        "goodput_rps": len(good) / result["window"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    classes = {}
    for kind in ("repeat", "fresh"):
        members = [read for read in reads if read.kind == kind]
        classes[kind] = {
            "sent": sum(1 for read in members if read.sent),
            "completed": sum(1 for read in members if read.done and read.error is None),
            "failed": sum(1 for read in members if not read.ok),
        }
    classes["append"] = {
        "sent": len(servemix.APPEND_AT),
        "completed": len(appends),
        "failed": sum(1 for append in appends if append["status"] not in ("append", "hit")),
    }
    before, after = result["metrics_before"], result["metrics_after"]
    delta = {name: after[name] - before[name] for name in after}
    requests = max(1, delta["requests"] - 1)  # the closing /metrics call
    record = {
        "setup_s": common.summary(result["setups"]),
        "cold_catalog_s": common.summary(result["colds"]),
        "read_p50_ms": {"value": statistics.median(latencies) * 1e3, "n": len(latencies)},
        "read_p99_ms": {"value": _p(latencies, 99) * 1e3, "n": len(latencies)},
        "fresh_read_p50_ms": {
            "value": statistics.median(read.latency for read in fresh) * 1e3,
            "n": len(fresh),
            "samples": [round(read.latency * 1e3, 1) for read in fresh],
        },
        "append_p50_ms": {
            "value": statistics.median(a["seconds"] for a in appends) * 1e3 if appends else 0.0,
            "n": len(appends),
        },
        "goodput_limit_ms": args.read_limit_ms,
        "offered_rps": len(reads) / result["window"],
        "classes": classes,
        "loadgen_lag_p99_ms": {"value": _p(lags, 99) * 1e3, "n": len(lags)},
        "server_busy": result["server_cpu_s"] / result["window"],
        "service_metrics_delta": delta,
        "cache_hit_ratio": delta["cache_hits"] / requests,
        "hot_keys": [list(key) for key in result["hot"]],
    }
    record["valid"] = record["loadgen_lag_p99_ms"]["value"] <= servemix.MAX_LAG_P99_MS
    # Append failures are among result["failures"] already.
    failures = list(result["failures"])
    failures += [
        f"read {read.index} ({read.kind}): status {read.status} "
        f"{read.error or ''} {'; '.join(read.problems)}"
        for read in reads
        if not read.ok
    ]
    outcome = Outcome(
        end_to_end=end_to_end,
        record=record,
        attempted=result["attempted"],
        failures=failures,
        failed=len(failures),
        spans={"server": result["server_spans"], "loadgen": result["spans"]},
    )
    if args.trace:
        outcome.layers, outcome.accounting, record["tracing_overhead"] = _serve_layers(
            result, reads, appends, delta, requests
        )
        outcome.layers.update({
            "loadgen.sent": classes["repeat"]["sent"] + classes["fresh"]["sent"],
            "loadgen.completed": classes["repeat"]["completed"] + classes["fresh"]["completed"],
            "loadgen.failed": classes["repeat"]["failed"] + classes["fresh"]["failed"],
            "loadgen.lag_p99_ms": record["loadgen_lag_p99_ms"]["value"],
        })
    return outcome


def _serve_layers(result, reads, appends, delta, requests):
    server_ops = tracing.operations(result["server_spans"])
    loadgen_ops = tracing.operations(result["spans"])
    classes: dict[str, list] = {
        "repeat-hit": [], "repeat-hit-queued": [], "repeat-refill": [], "fresh": [],
        "append": [], "cold": [],
    }
    handle = {"repeat": [], "fresh": []}
    transport = []
    for op in server_ops.values():
        if op["kind"] == "cold":
            classes["cold"].append(op)
            continue
        read = reads[int(op["tag"])]
        if read.error is not None or not read.done:
            continue
        service_time = read.done - read.sent
        # The read's wall time is timed from when it was due: the time it
        # queued in the generator and the transport (client time minus the
        # server's handle span) complete the server-side self times.
        op = dict(op, self=dict(op["self"]))
        op["self"]["loadgen"] = read.sent - read.due
        op["self"]["transport"] = service_time - op["wall"]
        handle[read.kind].append(op["wall"])
        transport.append(service_time - op["wall"])
        op["wall"] = read.latency
        if read.kind == "fresh":
            classes["fresh"].append(op)
        elif "miner.solve" in op["profile"]:
            classes["repeat-refill"].append(op)
        elif read.sent - read.due > QUEUED_SECONDS:
            classes["repeat-hit-queued"].append(op)
        else:
            classes["repeat-hit"].append(op)
    classes["append"] = [op for op in loadgen_ops.values() if op["kind"] == "append"]
    window_ops = (classes["repeat-hit"] + classes["repeat-refill"] + classes["fresh"]
                  + classes["append"])
    layers = window_layer_metrics(window_ops)
    layers["store.verify_problems"] = result["verify_problems"]
    layers["service.handle_repeat_ms_p50"] = _p(handle["repeat"], 50) * 1e3
    layers["service.handle_fresh_ms_p50"] = _p(handle["fresh"], 50) * 1e3
    layers["service.transport_ms_p50"] = _p(transport, 50) * 1e3
    layers["service.cache_hit_ratio"] = delta["cache_hits"] / requests
    layers["service.coalesced"] = delta["coalesced"]
    layers["service.solve_batches"] = delta["solve_batches"]
    cost = {}
    for kind in ("repeat", "fresh"):
        done = [r for r in reads if r.kind == kind and r.ok]
        cost[kind] = overhead(
            [r.done - r.sent for r in done if r.traced],
            [r.done - r.sent for r in done if not r.traced],
        )
    cost["append"] = overhead(
        [a["seconds"] for a in appends if a["traced"]],
        [a["seconds"] for a in appends if not a["traced"]],
    )
    layers["trace.overhead_pct"] = cost["repeat"].get("overhead_pct", 0.0)
    return layers, accounting_table(classes), cost


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--read-limit-ms", type=float, default=100.0,
                        help="serve-mix goodput counts reads answered within this")
    parser.add_argument("--size", choices=sorted(common.SIZES), default="full",
                        help="'tiny' is the self-test size")
    args = parser.parse_args(argv)

    try:
        common.import_program()
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    config = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    load_start = common.load_average()
    probe_start = common.speed_probe_ms()
    started = time.time()
    workdir = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.workload == "serve-mix":
            outcome = serve_outcome(args, workdir)
        else:
            outcome = catalog_outcome(args.workload.split("-", 1)[1], args, workdir)
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK_DIR.exists() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()

    failed = min(outcome.attempted, outcome.failed)
    outcome.end_to_end["success_rate"] = 1.0 - failed / outcome.attempted
    record = dict(
        outcome.record,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        size=common.sizes_record(common.SIZES[args.size]),
        host=common.host_metadata(),
        load_1m={"start": load_start, "end": common.load_average()},
        speed_probe_ms={"start": probe_start, "end": common.speed_probe_ms()},
        wall_s=time.time() - started,
        end_to_end=outcome.end_to_end,
        failures=outcome.failures[:20],
    )
    print("run record: " + json.dumps(record, sort_keys=True))
    if outcome.accounting:
        print("per-layer self time (traced run):")
        print("\n".join(outcome.accounting))
    if not record.get("valid", True):
        print(f"perfbench: run invalid: the load generator fell behind "
              f"(lag p99 {record['loadgen_lag_p99_ms']['value']:.1f} ms)", file=sys.stderr)
        return 3

    if args.trace:
        TRACE_DIR.mkdir(exist_ok=True)
        common.dump(
            TRACE_DIR / f"{args.workload}-seed{args.seed}-trace.json",
            {"record": record, "accounting": outcome.accounting,
             "per_layer": outcome.layers, "spans": outcome.spans},
        )
        values, names = outcome.layers, config["per_layer"]
    else:
        values, names = outcome.end_to_end, config["end_to_end"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {
            metric["name"]: {"value": float(values[metric["name"]]), "unit": metric["unit"]}
            for metric in names
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
