"""Zero-copy columnar mining: convert a CSV once, then scan memory-mapped columns.

CSV parsing dominates the streaming catalog's wall time — the block
tokenizer is fast, but it still touches every byte of text on every run.
This example converts the relation to a ``.npy`` column directory **once**
(:func:`~repro.pipeline.write_columnar`), then mines it through
:class:`~repro.pipeline.NpyDirectorySource`, whose chunks are dtype-stable
views into memory-mapped files: no parsing, no per-chunk copies, the fused
counting kernel reads straight out of the page cache.  The catalogs are
bit-identical — the columnar source satisfies the same fingerprint /
``scan_tail`` contract as the CSV source, so it also serves
:class:`~repro.store.ProfileStore` warm hits and incremental appends.

Run with:  python examples/columnar.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np

from repro import CSVSource, datasets
from repro.mining import mine_rule_catalog
from repro.pipeline import NpyDirectorySource, write_columnar
from repro.relation import read_csv, write_csv
from repro.store import ProfileStore

CHUNK_SIZE = 20_000
NUM_TUPLES = 200_000


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        root = Path(workdir)
        csv_path = root / "bank.csv"
        relation, _ = datasets.bank_customers(NUM_TUPLES, seed=41)
        write_csv(relation, csv_path)
        print(f"wrote {NUM_TUPLES:,} tuples to {csv_path.name} "
              f"({csv_path.stat().st_size / 1e6:.1f} MB of text)")

        # --- one-time conversion: CSV -> memory-mappable column files --------
        columns_dir = root / "bank_columns"
        write_columnar(read_csv(csv_path), columns_dir)
        total_bytes = sum(f.stat().st_size for f in columns_dir.iterdir())
        print(f"converted to {columns_dir.name}/ "
              f"({total_bytes / 1e6:.1f} MB of binary columns)\n")

        # --- same catalog, both sources --------------------------------------
        start = time.perf_counter()
        csv_catalog = mine_rule_catalog(
            CSVSource(csv_path, chunk_size=CHUNK_SIZE),
            num_buckets=500,
            executor="streaming",
            rng=np.random.default_rng(7),
        )
        csv_seconds = time.perf_counter() - start

        start = time.perf_counter()
        columnar_catalog = mine_rule_catalog(
            NpyDirectorySource(columns_dir, chunk_size=CHUNK_SIZE),
            num_buckets=500,
            executor="streaming",
            rng=np.random.default_rng(7),
        )
        columnar_seconds = time.perf_counter() - start

        print(f"CSV streaming catalog:      {csv_seconds:.2f}s "
              f"({NUM_TUPLES / csv_seconds:,.0f} tuples/s)")
        print(f"columnar streaming catalog: {columnar_seconds:.2f}s "
              f"({NUM_TUPLES / columnar_seconds:,.0f} tuples/s, "
              f"{csv_seconds / columnar_seconds:.1f}x)")

        same = [
            (a.rule.attribute, a.rule.low, a.rule.high)
            for a in csv_catalog.top(5)
        ] == [
            (b.rule.attribute, b.rule.low, b.rule.high)
            for b in columnar_catalog.top(5)
        ]
        print(f"catalogs identical: {same}\n")

        # --- warm mining through the ProfileStore -----------------------------
        store = ProfileStore(root / "store")
        source = NpyDirectorySource(columns_dir, chunk_size=CHUNK_SIZE)
        mine_rule_catalog(source, num_buckets=500, executor="streaming",
                          rng=np.random.default_rng(7), store=store)
        print(f"first store-backed run:  {store.last_status} (one physical scan)")

        start = time.perf_counter()
        warm = mine_rule_catalog(source, num_buckets=500, executor="streaming",
                                 rng=np.random.default_rng(7), store=store)
        warm_seconds = time.perf_counter() - start
        print(f"second store-backed run: {store.last_status} "
              f"({warm_seconds * 1000:.0f} ms, zero physical scans)")

        print(f"\ntop 3 rules by lift over {warm.num_pairs} attribute pairs:")
        for entry in warm.top(3):
            print(f"  [{entry.lift:5.2f}x] {entry.rule}")


if __name__ == "__main__":
    main()
