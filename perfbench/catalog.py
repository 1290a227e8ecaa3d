"""The ``catalog-csv`` and ``catalog-npy`` workloads: repeated cold catalogs.

Set-up generates the relation from the seed and writes it in the
workload's format, several times; the median is ``setup_s``.  A separate
process (``host.py mine``) then mines the catalog from a fresh source and a
fresh miner, with no store, again and again for the run's seconds, so its
peak RSS is that of the mining process alone.  Afterwards the benchmark
mines the same relation once from the *other* format: the CSV and ``.npy``
catalogs of one seed must be identical rule for rule.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
from pathlib import Path

import common

SETUPS = 3


def _write(kind: str, relation, directory: Path) -> Path:
    if kind == "csv":
        path = directory / "data.csv"
        common.write_csv(relation, path)
        return path
    from repro.pipeline import write_columnar

    path = directory / "columns"
    write_columnar(relation, path)
    return path


def mine_keys(kind: str, path: Path, sizes: common.Sizes, seed: int) -> list:
    """Rule keys of one library catalog mined from ``path``."""
    return common.rule_keys(common.mine_catalog(kind, path, sizes, seed))


def run(kind: str, size: str, seed: int, seconds: float, trace: bool,
        workdir: Path) -> dict:
    sizes = common.SIZES[size]
    setups = []
    for attempt in range(SETUPS):
        directory = workdir / f"setup{attempt}"
        directory.mkdir()
        start = time.perf_counter()
        relation = common.make_relation(sizes, seed)
        path = _write(kind, relation, directory)
        setups.append(time.perf_counter() - start)
        if attempt < SETUPS - 1:
            shutil.rmtree(directory)

    out = workdir / "host.json"
    command = [
        sys.executable, str(Path(__file__).with_name("host.py")), "mine",
        "--source", kind, "--path", str(path), "--size", size,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
        "--out", str(out),
    ]
    completed = subprocess.run(command, env=common.child_env(), timeout=150)
    if completed.returncode != 0:
        raise common.BenchError(f"mining process exited with {completed.returncode}")
    host = common.load(out)

    other = "npy" if kind == "csv" else "csv"
    other_path = _write(other, relation, directory)
    failures = list(host["failures"])
    mismatches = common.catalog_mismatches(
        mine_keys(other, other_path, sizes, seed), host["keys"]
    )
    failures += [f"{kind} vs {other} catalog: {problem}" for problem in mismatches]

    times = host["times"]
    untraced = [t for t, traced in zip(times, host["traced"]) if not traced]
    return {
        "setups": setups,
        "times": times,
        "untraced": untraced,
        "traced": [t for t, traced in zip(times, host["traced"]) if traced],
        "elapsed": host["elapsed"],
        "mine_failures": len(host["failures"]),  # at most one per mine
        "attempted": len(times) + 1,
        "failed": len(host["failures"]) + (1 if mismatches else 0),
        "failures": failures,
        "peak_rss_mb": host["peak_rss_mb"],
        "spans": host["spans"],
        "rules": len(host["keys"] or []),
    }

