"""Shared pieces of the benchmark: sizes, inputs, statistics and run metadata.

Every workload mines the §1.3 all-pairs catalog over ``paper_benchmark_table``
data with the ``streaming`` executor on the numpy kernel tier.  The program
under test is imported from ``src/`` of the checkout the benchmark lives in,
never from an installed copy, so a checkout without ``src/repro`` fails
before it measures anything.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXECUTOR = "streaming"
KERNEL_TIER = "numpy"


class BenchError(Exception):
    """The benchmark cannot run here (no program, bad arguments)."""


@dataclass(frozen=True)
class Sizes:
    """Relation shape and mining parameters of one benchmark size."""

    tuples: int
    numeric: int
    boolean: int
    buckets: int
    chunk: int

    @property
    def pairs(self) -> int:
        return self.numeric * self.boolean


SIZES = {
    # 4 x 52 attributes -> 208 pairs, 416 solver tasks per catalog.
    "full": Sizes(tuples=100_000, numeric=4, boolean=52, buckets=1000, chunk=20_000),
    # The self-test size: every code path, a few seconds per workload.
    "tiny": Sizes(tuples=6_000, numeric=2, boolean=6, buckets=50, chunk=1_500),
}


def import_program() -> None:
    """Put the checkout's ``src`` first on the import path and import ``repro``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"imported repro from {origin}, not from {SRC}")


def child_env() -> dict:
    """Environment for the program processes the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH", "")) if part
    )
    return env


# ---------------------------------------------------------------------------
# inputs


def make_relation(sizes: Sizes, seed: int, extra_rows: int = 0):
    from repro.datasets import paper_benchmark_table

    return paper_benchmark_table(
        sizes.tuples + extra_rows,
        num_numeric=sizes.numeric,
        num_boolean=sizes.boolean,
        seed=seed,
    )


_CSV_BLOCK_ROWS = 5_000


def csv_text(relation, start: int = 0, stop: int | None = None) -> str:
    """Data rows ``[start, stop)`` exactly as ``repro.relation.write_csv`` writes them.

    ``write_csv`` formats row by row through ``csv.writer`` (about 5 s for
    the full relation), which would make set-up time mostly CSV formatting;
    this writes the same bytes column-wise.  The self-test checks the two
    writers agree byte for byte.
    """
    from repro.relation.schema import AttributeKind

    stop = len(relation) if stop is None else stop
    blocks = []
    for low in range(start, stop, _CSV_BLOCK_ROWS):
        high = min(stop, low + _CSV_BLOCK_ROWS)
        columns = []
        for attribute in relation.schema:
            values = relation.column(attribute.name)[low:high].tolist()
            if attribute.kind == AttributeKind.BOOLEAN:
                columns.append(["yes" if value else "no" for value in values])
            else:
                columns.append([repr(float(value)) for value in values])
        blocks.append("".join(",".join(row) + "\r\n" for row in zip(*columns)))
    return "".join(blocks)


def write_csv(relation, path: Path, stop: int | None = None) -> None:
    header = ",".join(relation.schema.names()) + "\r\n"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(header)
        handle.write(csv_text(relation, 0, stop))


def mine_catalog(kind: str, path, sizes: Sizes, seed: int):
    """One cold library catalog from a fresh ``csv`` or ``npy`` source, no store."""
    import numpy as np

    from repro.mining import mine_rule_catalog
    from repro.pipeline import CSVSource, NpyDirectorySource

    source_type = CSVSource if kind == "csv" else NpyDirectorySource
    return mine_rule_catalog(
        source_type(path, chunk_size=sizes.chunk),
        num_buckets=sizes.buckets,
        executor=EXECUTOR,
        kernel_tier=KERNEL_TIER,
        rng=np.random.default_rng(seed),
    )


# ---------------------------------------------------------------------------
# outputs


def rule_keys(catalog) -> list[list]:
    """Order-independent identity of a catalog, as JSON-ready rows.

    One row per rule: attribute, objective, kind, bucket range (indices and
    value bounds), support, confidence.
    """
    rows = []
    for entry in catalog.entries:
        rule = entry.rule
        rows.append(
            [
                rule.attribute,
                str(rule.objective),
                str(rule.kind),
                int(rule.selection.start),
                int(rule.selection.end),
                float(rule.low),
                float(rule.high),
                float(rule.support),
                float(rule.confidence),
            ]
        )
    rows.sort()
    return rows


def catalog_mismatches(expected: list, actual: list, limit: int = 5) -> list[str]:
    """Human-readable differences between two ``rule_keys`` lists."""
    if expected == actual:
        return []
    problems = []
    if len(expected) != len(actual):
        problems.append(f"{len(actual)} rules, expected {len(expected)}")
    missing = [row for row in expected if row not in actual]
    extra = [row for row in actual if row not in expected]
    problems += [f"missing rule {row}" for row in missing[:limit]]
    problems += [f"unexpected rule {row}" for row in extra[:limit]]
    return problems or ["rule order differs"]


# ---------------------------------------------------------------------------
# statistics


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def summary(values) -> dict:
    """Median, quartiles and sample count of a list of numbers."""
    values = list(values)
    if not values:
        return {"n": 0}
    return {
        "n": len(values),
        "p25": percentile(values, 25),
        "p50": statistics.median(values),
        "p75": percentile(values, 75),
    }


def peak_rss_mb() -> float:
    """Peak resident set size of the calling process in MiB (``VmHWM``)."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("VmHWM not reported by /proc/self/status")


# ---------------------------------------------------------------------------
# run record


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_metadata() -> dict:
    import numpy

    from repro.kernels import resolve_kernel_tier

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_tier": resolve_kernel_tier(KERNEL_TIER),
        "platform": platform.platform(),
    }


def load_average() -> float:
    return os.getloadavg()[0]


def speed_probe_ms() -> float:
    """Time of a fixed pure-Python loop: how fast the host ran at that moment.

    Shared hosts drift by tens of percent over tens of seconds; the probe at
    the start and end of a run lets a reader tell a slow run from a slow host.
    """
    start = time.perf_counter()
    total = 0
    for value in range(500_000):
        total += value * value
    return (time.perf_counter() - start) * 1e3


def sizes_record(sizes: Sizes) -> dict:
    return dict(asdict(sizes), pairs=sizes.pairs, executor=EXECUTOR)


def dump(path: Path, payload) -> None:
    path.write_text(json.dumps(payload), encoding="utf-8")


def load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))
