"""Self-test of the benchmark at the tiny size.

    python3 perfbench/selftest.py

* every workload, untraced and traced, ends with the result line and emits
  every metric ``BENCHMARK.json`` names, with its unit;
* the output checks reject a deliberately perturbed catalog and a bad reply;
* the benchmark's CSV writer matches ``repro.relation.write_csv`` byte for byte;
* a directory holding only ``BENCHMARK.json`` and the benchmark fails
  without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

CONFIG = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SCRATCH = common.ROOT / ".perfbench_work"


def run_bench(workload: str, trace: int, cwd: Path = common.ROOT) -> subprocess.CompletedProcess:
    command = [
        sys.executable, "perfbench/run.py", *CONFIG["command"][2:],
        "--workload", workload, "--seed", "5", "--seconds", "2",
        "--trace", str(trace), "--size", "tiny",
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


class WorkloadSmoke(unittest.TestCase):
    def check(self, workload: str, trace: int) -> None:
        completed = run_bench(workload, trace)
        self.assertEqual(completed.returncode, 0, completed.stderr)
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], completed.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = CONFIG["per_layer"] if trace else CONFIG["end_to_end"]
        self.assertEqual(
            {name: metric["unit"] for name, metric in result["metrics"].items()},
            {metric["name"]: metric["unit"] for metric in expected},
        )
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], float, name)
            if not trace:
                self.assertGreater(metric["value"], 0.0, name)
        if trace:
            self.assertIn("per-layer self time", completed.stdout)

    def test_workloads(self) -> None:
        for workload in (item["name"] for item in CONFIG["workloads"]):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check(workload, trace)


class OutputChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        common.import_program()
        SCRATCH.mkdir(exist_ok=True)
        cls.directory = Path(tempfile.mkdtemp(prefix="selftest-", dir=SCRATCH))
        cls.sizes = common.SIZES["tiny"]
        cls.relation = common.make_relation(cls.sizes, seed=9)

    @classmethod
    def tearDownClass(cls) -> None:
        shutil.rmtree(cls.directory, ignore_errors=True)

    def test_perturbed_catalog_is_rejected(self) -> None:
        import catalog

        path = self.directory / "data.csv"
        common.write_csv(self.relation, path)
        keys = catalog.mine_keys("csv", path, self.sizes, seed=9)
        self.assertTrue(keys)
        self.assertEqual(common.catalog_mismatches(keys, [list(row) for row in keys]), [])
        for field, change in ((4, 1), (7, 1e-9), (8, -1e-9)):
            perturbed = [list(row) for row in keys]
            perturbed[0][field] += change
            with self.subTest(field=field):
                self.assertTrue(common.catalog_mismatches(keys, perturbed))
        self.assertTrue(common.catalog_mismatches(keys, keys[1:]))

    def test_bad_reply_is_rejected(self) -> None:
        import servemix

        lengths = {self.sizes.tuples}
        good = {"num_pairs": self.sizes.pairs, "num_tuples": self.sizes.tuples,
                "store_status": "hit", "rules": []}
        bad = (
            dict(good, num_pairs=self.sizes.pairs - 1),
            dict(good, num_tuples=self.sizes.tuples + 1),
            dict(good, store_status="rebuild"),
        )
        for body, expect_ok in ((good, True), *((reply, False) for reply in bad)):
            read = servemix.Read(0, "repeat", (0.2, 0.6), 0.0, status=200,
                                 body=json.dumps(body).encode())
            servemix.check_reply(read, self.sizes, lengths)
            self.assertEqual(read.ok, expect_ok, body)

    def test_csv_writer_matches_the_library(self) -> None:
        from repro.relation import write_csv

        ours, theirs = self.directory / "ours.csv", self.directory / "theirs.csv"
        common.write_csv(self.relation, ours)
        write_csv(self.relation, theirs)
        self.assertEqual(ours.read_bytes(), theirs.read_bytes())


class NoProgram(unittest.TestCase):
    def test_fails_without_a_program(self) -> None:
        SCRATCH.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="bare-", dir=SCRATCH))
        try:
            shutil.copy(common.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(common.ROOT / "perfbench", bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            completed = run_bench("catalog-csv", 0, cwd=bare)
            self.assertNotEqual(completed.returncode, 0)
            self.assertNotIn('"correct"', completed.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
