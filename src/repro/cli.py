"""Command-line interface.

Three groups of subcommands mirror how the paper's system would be used:

* ``dataset``    — materialize one of the bundled synthetic datasets as CSV;
* ``mine``       — mine optimized rules from a CSV file (confidence, support,
  or the §5 average-operator variants);
* ``experiment`` — run one of the figure/table reproductions and print its
  report.

Examples
--------
::

    python -m repro dataset bank --rows 50000 --out bank.csv
    python -m repro mine bank.csv --attribute balance --objective card_loan \
        --kind confidence --min-support 0.1
    python -m repro experiment figure10

``mine``, ``catalog``, and ``rules2d`` accept ``--source stream`` to scan
the CSV out-of-core through the unified pipeline instead of loading it, with
``--executor`` choosing where the counting kernel runs and ``--chunk-size``
bounding the resident memory::

    python -m repro catalog bank.csv --source stream --executor multiprocessing

``--source npy`` / ``--source parquet`` scan zero-copy columnar data instead
of CSV: a memory-mapped ``.npy`` column directory (see ``repro.pipeline.
write_columnar``) or an Arrow/Parquet file (needs ``pyarrow``).  ``--path``
names the data directory/file when it differs from the positional argument.
``--kernel-tier auto|numpy`` (or ``REPRO_KERNEL_TIER``) is kept for
compatibility: both names select the one NumPy counting kernel::

    python -m repro catalog bank_columns/ --source npy --kernel-tier auto

``rules2d`` mines the §1.4 two-dimensional rectangle rules on a bucket grid
(streamed grids are built by the pipeline's 2-D kernel, never materializing
the relation)::

    python -m repro rules2d bank.csv --row-attribute age \\
        --column-attribute balance --objective card_loan \\
        --grid 30 30 --source stream

``store`` manages a persistent profile store, and ``--store DIR`` on
``catalog``/``rules2d`` (with ``--source stream``) serves repeated runs
from it — a warm store answers a whole catalog with **zero** physical
scans of the CSV, and a file grown at the tail counts only its new rows::

    python -m repro store build bank.csv --store profiles/
    python -m repro catalog bank.csv --source stream --store profiles/
    ...append rows to bank.csv...
    python -m repro store append bank.csv --store profiles/
    python -m repro store inspect --store profiles/

``store verify`` audits every snapshot (payload presence, embedded meta,
npz integrity) without serving anything, and exits 3 listing the
offending snapshots on corruption.

``ingest`` runs the crash-safe continuous-mining daemon against a growing
source: every cycle polls the file, folds only the appended tuples into
the store (journaled — ``kill -9`` at any byte is recoverable), tracks
per-attribute drift between the frozen bucket boundaries and the tail,
and re-freezes the boundaries when the policy says so::

    python -m repro store build bank.csv --store profiles/
    python -m repro ingest run bank.csv --store profiles/ --interval 5
    python -m repro ingest once bank.csv --store profiles/
    python -m repro ingest status bank.csv --store profiles/

``shard`` runs the catalog scan plan through the fault-tolerant sharded
mining plane: the CSV is partitioned into N line-aligned byte spans, each
counted with per-shard retries and timeouts, validated partials checkpoint
atomically, and a killed run resumes counting only its unfinished spans::

    python -m repro shard mine bank.csv --shards 8 --checkpoints ck/
    ...coordinator killed mid-run...
    python -m repro shard status bank.csv --shards 8 --checkpoints ck/
    python -m repro shard resume bank.csv --shards 8 --checkpoints ck/

``serve`` puts the mining stack behind an HTTP API fed from a warm profile
store: repeated requests over unchanged data are fingerprint-keyed cache
hits, concurrent identical requests coalesce into one solver batch, and
every library error maps to a typed JSON body::

    python -m repro store build bank.csv --store profiles/
    REPRO_TOKEN=secret python -m repro serve bank.csv --store profiles/ \\
        --token-env REPRO_TOKEN --port 8000
    curl -H 'Authorization: Bearer secret' \\
        'http://127.0.0.1:8000/v1/catalog?top=5'
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.core.miner import OptimizedRuleMiner
from repro.datasets.loaders import DATASET_NAMES, generate_named_dataset, load_dataset, save_dataset
from repro.exceptions import ReproError
from repro.experiments import (
    run_bucket_quality_sweep,
    run_catalog_experiment,
    run_figure1,
    run_figure9,
    run_figure10,
    run_figure11,
    run_table1,
)
from repro.kernels import KERNEL_TIERS

__all__ = ["main", "build_parser"]

_EXPERIMENTS = {
    "figure1": lambda: run_figure1(),
    "table1": lambda: run_table1(),
    "figure9": lambda: run_figure9(),
    "figure10": lambda: run_figure10(),
    "figure11": lambda: run_figure11(),
    "catalog": lambda: run_catalog_experiment(),
    "bucket-quality": lambda: run_bucket_quality_sweep(),
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Mine optimized association rules for numeric attributes "
        "(Fukuda et al., PODS 1996).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    dataset_parser = subparsers.add_parser(
        "dataset", help="generate a bundled synthetic dataset as CSV"
    )
    dataset_parser.add_argument("name", choices=sorted(DATASET_NAMES))
    dataset_parser.add_argument("--rows", type=int, default=10_000)
    dataset_parser.add_argument("--seed", type=int, default=0)
    dataset_parser.add_argument("--out", required=True, help="output CSV path")

    mine_parser = subparsers.add_parser("mine", help="mine optimized rules from a CSV file")
    mine_parser.add_argument("csv", help="input CSV file with a header row")
    mine_parser.add_argument("--attribute", required=True, help="numeric attribute to range over")
    mine_parser.add_argument(
        "--objective",
        required=True,
        help="Boolean objective attribute (confidence/support rules) or numeric "
        "target attribute (average rules)",
    )
    mine_parser.add_argument(
        "--kind",
        choices=("confidence", "support", "max-average", "max-support-average"),
        default="confidence",
    )
    mine_parser.add_argument("--min-support", type=float, default=0.10)
    mine_parser.add_argument("--min-confidence", type=float, default=0.50)
    mine_parser.add_argument("--min-average", type=float, default=0.0)
    mine_parser.add_argument("--buckets", type=int, default=500)
    mine_parser.add_argument("--seed", type=int, default=0)
    mine_parser.add_argument(
        "--engine",
        choices=("fast", "reference"),
        default="fast",
        help="solver engine: array-native fast path (default) or the object-based reference",
    )
    _add_source_arguments(mine_parser)

    catalog_parser = subparsers.add_parser(
        "catalog", help="mine optimized rules for every numeric/Boolean attribute pair"
    )
    catalog_parser.add_argument("csv", help="input CSV file with a header row")
    catalog_parser.add_argument("--min-support", type=float, default=0.10)
    catalog_parser.add_argument("--min-confidence", type=float, default=0.50)
    catalog_parser.add_argument("--buckets", type=int, default=200)
    catalog_parser.add_argument("--top", type=int, default=10, help="rules to print")
    catalog_parser.add_argument("--rank-by", choices=("lift", "confidence", "support"), default="lift")
    catalog_parser.add_argument("--out-csv", default=None, help="also export the catalog as CSV")
    catalog_parser.add_argument(
        "--out-markdown", default=None, help="also export the top rules as a Markdown table"
    )
    catalog_parser.add_argument("--seed", type=int, default=0)
    catalog_parser.add_argument(
        "--engine",
        choices=("fast", "reference"),
        default="fast",
        help="solver engine: array-native fast path (default) or the object-based reference",
    )
    _add_source_arguments(catalog_parser)
    _add_store_argument(catalog_parser)

    rules2d_parser = subparsers.add_parser(
        "rules2d",
        help="mine the optimal 2-D rectangle rule on a bucket grid (§1.4)",
    )
    rules2d_parser.add_argument("csv", help="input CSV file with a header row")
    rules2d_parser.add_argument(
        "--row-attribute", required=True, help="numeric attribute of the grid rows"
    )
    rules2d_parser.add_argument(
        "--column-attribute", required=True, help="numeric attribute of the grid columns"
    )
    rules2d_parser.add_argument(
        "--objective", required=True, help="Boolean objective attribute"
    )
    rules2d_parser.add_argument(
        "--kind", choices=("confidence", "support"), default="confidence"
    )
    rules2d_parser.add_argument("--min-support", type=float, default=0.05)
    rules2d_parser.add_argument("--min-confidence", type=float, default=0.50)
    rules2d_parser.add_argument(
        "--grid",
        type=int,
        nargs=2,
        default=(30, 30),
        metavar=("ROWS", "COLUMNS"),
        help="number of row and column buckets (default: 30 30)",
    )
    rules2d_parser.add_argument("--seed", type=int, default=0)
    rules2d_parser.add_argument(
        "--engine",
        choices=("fast", "reference"),
        default="fast",
        help="rectangle solver: stacked batched fast path (default) or the "
        "per-band object-based reference",
    )
    _add_source_arguments(rules2d_parser)
    _add_store_argument(rules2d_parser)

    store_parser = subparsers.add_parser(
        "store",
        help="manage a persistent profile store (zero-scan repeated mining)",
    )
    store_subparsers = store_parser.add_subparsers(
        dest="store_command", required=True
    )
    for name, description in (
        (
            "build",
            "execute and persist the catalog scan plan of a CSV file "
            "(subsequent catalog runs against the store need zero scans)",
        ),
        (
            "append",
            "fold a CSV file's appended tail into its stored snapshot "
            "(counts only the new rows; boundaries stay frozen)",
        ),
    ):
        sub = store_subparsers.add_parser(name, help=description)
        sub.add_argument(
            "csv",
            help="input CSV file with a header row (or the columnar data "
            "path when --source npy/parquet)",
        )
        sub.add_argument("--store", required=True, help="store directory")
        sub.add_argument(
            "--source",
            choices=("stream", "npy", "parquet"),
            default="stream",
            help="scan a CSV out-of-core (default), a memory-mapped .npy "
            "column directory, or an Arrow/Parquet file",
        )
        sub.add_argument(
            "--path",
            default=None,
            metavar="DIR",
            help="data path for --source npy/parquet (defaults to the "
            "positional file argument)",
        )
        sub.add_argument("--buckets", type=int, default=200)
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument(
            "--rebuild-threshold",
            type=float,
            default=None,
            help="staleness fraction that triggers a full boundary refresh "
            "(default: 0.25)",
        )
        sub.add_argument(
            "--executor",
            choices=("serial", "streaming", "multiprocessing"),
            default="serial",
        )
        sub.add_argument("--chunk-size", type=int, default=None)
        _add_kernel_tier_argument(sub)
    inspect_parser = store_subparsers.add_parser(
        "inspect", help="print the store manifest (snapshots and staleness)"
    )
    inspect_parser.add_argument("--store", required=True, help="store directory")
    verify_parser = store_subparsers.add_parser(
        "verify",
        help="audit every snapshot (payload presence, embedded meta, npz "
        "integrity) without serving; exit 3 listing corrupt snapshots",
    )
    verify_parser.add_argument("--store", required=True, help="store directory")

    ingest_parser = subparsers.add_parser(
        "ingest",
        help="crash-safe continuous mining: poll a growing source, fold "
        "only its tail, re-freeze boundaries on drift",
    )
    ingest_subparsers = ingest_parser.add_subparsers(
        dest="ingest_command", required=True
    )
    for name, description in (
        (
            "run",
            "poll the source every --interval seconds, folding appended "
            "tuples into the store and re-freezing on the policy's say-so",
        ),
        (
            "once",
            "run exactly one ingest cycle (poll, fold, drift check) and "
            "print its report",
        ),
        (
            "status",
            "report the daemon's persisted state and drift readings "
            "without scanning the source",
        ),
    ):
        sub = ingest_subparsers.add_parser(name, help=description)
        sub.add_argument(
            "csv",
            help="input CSV file with a header row (or the columnar data "
            "path when --source npy/parquet)",
        )
        sub.add_argument("--store", required=True, help="store directory")
        sub.add_argument(
            "--source",
            choices=("stream", "npy", "parquet"),
            default="stream",
            help="scan a CSV out-of-core (default), a memory-mapped .npy "
            "column directory, or an Arrow/Parquet file",
        )
        sub.add_argument(
            "--path",
            default=None,
            metavar="DIR",
            help="data path for --source npy/parquet (defaults to the "
            "positional file argument)",
        )
        sub.add_argument("--buckets", type=int, default=200)
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--chunk-size", type=int, default=None)
        _add_kernel_tier_argument(sub)
        if name == "status":
            continue
        sub.add_argument(
            "--policy",
            choices=("threshold", "scheduled", "manual"),
            default="threshold",
            help="re-freeze policy: drift thresholds (default), every "
            "--every-cycles folds, or only on explicit request",
        )
        sub.add_argument(
            "--max-staleness",
            type=float,
            default=0.25,
            help="threshold policy: staleness ratio that re-freezes "
            "(default: 0.25)",
        )
        sub.add_argument(
            "--max-occupancy-shift",
            type=float,
            default=0.25,
            help="threshold policy: total-variation distance between frozen "
            "and tail bucket occupancy that re-freezes (default: 0.25)",
        )
        sub.add_argument(
            "--max-kl",
            type=float,
            default=0.5,
            help="threshold policy: KL divergence (nats) of the tail from "
            "the frozen occupancy that re-freezes (default: 0.5)",
        )
        sub.add_argument(
            "--max-out-of-range",
            type=float,
            default=0.25,
            help="threshold policy: fraction of appended values outside the "
            "frozen cut range that re-freezes (default: 0.25)",
        )
        sub.add_argument(
            "--every-cycles",
            type=int,
            default=10,
            help="scheduled policy: re-freeze every N fold cycles "
            "(default: 10)",
        )
        sub.add_argument(
            "--on-source-changed",
            choices=("raise", "serve-stale"),
            default="raise",
            help="when the source was rewritten (not appended): fail the "
            "cycle (default) or degrade and keep serving the stored "
            "snapshot",
        )
        sub.add_argument(
            "--max-failures",
            type=int,
            default=3,
            help="consecutive degraded cycles before the daemon gives up "
            "with a typed error (default: 3)",
        )
        if name == "run":
            sub.add_argument(
                "--interval",
                type=float,
                default=5.0,
                help="seconds between polls (default: 5)",
            )
            sub.add_argument(
                "--cycles",
                type=int,
                default=None,
                help="stop after N cycles (default: run until killed)",
            )

    shard_parser = subparsers.add_parser(
        "shard",
        help="fault-tolerant sharded mining (retries, checkpoint/resume)",
    )
    shard_subparsers = shard_parser.add_subparsers(
        dest="shard_command", required=True
    )
    for name, description in (
        (
            "mine",
            "execute the catalog scan plan of a CSV file across N shards "
            "with per-shard retries, timeouts, and optional checkpoints",
        ),
        (
            "resume",
            "finish an interrupted sharded run: reload every checkpointed "
            "shard partial and count only the unfinished spans",
        ),
        (
            "status",
            "report which shards of a run are checkpointed and which "
            "spans still need counting",
        ),
    ):
        sub = shard_subparsers.add_parser(name, help=description)
        sub.add_argument(
            "csv",
            help="input CSV file with a header row (or the columnar data "
            "path when --source npy/parquet)",
        )
        sub.add_argument(
            "--source",
            choices=("stream", "npy", "parquet"),
            default="stream",
            help="shard a CSV by byte spans (default) or a columnar "
            "source by tuple spans",
        )
        sub.add_argument(
            "--path",
            default=None,
            metavar="DIR",
            help="data path for --source npy/parquet (defaults to the "
            "positional file argument)",
        )
        sub.add_argument(
            "--shards", type=int, default=4, help="partition width (default: 4)"
        )
        sub.add_argument("--buckets", type=int, default=200)
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--chunk-size", type=int, default=None)
        _add_kernel_tier_argument(sub)
        sub.add_argument(
            "--checkpoints",
            default=None,
            metavar="DIR",
            help="checkpoint directory root (required for resume/status); "
            "each run checkpoints under its own run-key namespace",
        )
        if name == "status":
            sub.add_argument(
                "--gc",
                action="store_true",
                help="remove orphaned checkpoint run directories (every run "
                "key except this run's) after reporting",
            )
        if name != "status":
            sub.add_argument(
                "--max-retries",
                type=int,
                default=2,
                help="retries per shard before it counts as failed (default: 2)",
            )
            sub.add_argument(
                "--shard-timeout",
                type=float,
                default=None,
                help="seconds one shard attempt may run before it is "
                "declared hung and retried (default: no timeout)",
            )
            sub.add_argument(
                "--on-exhausted",
                choices=("raise", "partial"),
                default="raise",
                help="when a shard exhausts its retries: fail the run "
                "(default) or fold the surviving shards and report coverage",
            )
            sub.add_argument(
                "--transport",
                choices=("thread", "inline"),
                default="thread",
            )

    serve_parser = subparsers.add_parser(
        "serve",
        help="serve mining over HTTP from a warm profile store",
    )
    serve_parser.add_argument(
        "csv",
        help="input CSV file with a header row (or the columnar data path "
        "when --source npy/parquet)",
    )
    serve_parser.add_argument(
        "--source",
        choices=("stream", "npy", "parquet"),
        default="stream",
        help="how the data is read per request (in-memory loading is not "
        "served; the service relies on fingerprintable sources)",
    )
    serve_parser.add_argument(
        "--path",
        default=None,
        metavar="DIR",
        help="data path for --source npy/parquet (defaults to the "
        "positional file argument)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=int, default=8000, help="listen port (0 = ephemeral)"
    )
    serve_parser.add_argument(
        "--token",
        default=None,
        help="require this bearer token on every /v1 and /metrics request "
        "(prefer --token-env; argv leaks into process listings)",
    )
    serve_parser.add_argument(
        "--token-env",
        default=None,
        metavar="NAME",
        help="read the bearer token from this environment variable",
    )
    serve_parser.add_argument("--buckets", type=int, default=200)
    serve_parser.add_argument("--seed", type=int, default=0)
    serve_parser.add_argument("--min-support", type=float, default=0.10)
    serve_parser.add_argument("--min-confidence", type=float, default=0.50)
    serve_parser.add_argument("--top", type=int, default=20)
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=8,
        help="request worker threads of the HTTP server (default: 8)",
    )
    serve_parser.add_argument(
        "--executor",
        choices=("serial", "streaming", "multiprocessing"),
        default="serial",
    )
    serve_parser.add_argument("--chunk-size", type=int, default=None)
    _add_kernel_tier_argument(serve_parser)
    _add_store_argument(serve_parser)

    experiment_parser = subparsers.add_parser(
        "experiment", help="run one of the paper-reproduction experiments"
    )
    experiment_parser.add_argument("name", choices=sorted(_EXPERIMENTS))
    return parser


def _add_source_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared DataSource flags of the ``mine`` and ``catalog`` commands."""
    parser.add_argument(
        "--source",
        choices=("memory", "stream", "npy", "parquet"),
        default="memory",
        help="how the data is read: CSV fully loaded into memory (default), "
        "CSV scanned out-of-core in chunks, a memory-mapped .npy column "
        "directory, or an Arrow/Parquet file (needs pyarrow)",
    )
    parser.add_argument(
        "--path",
        default=None,
        metavar="DIR",
        help="data path for --source npy/parquet (defaults to the "
        "positional file argument)",
    )
    parser.add_argument(
        "--executor",
        choices=("serial", "streaming", "multiprocessing"),
        default="serial",
        help="where the counting kernel runs for source-backed scans "
        "(all executors produce identical results)",
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="tuples per chunk for source-backed scans (default: 50000)",
    )
    _add_kernel_tier_argument(parser)


def _add_kernel_tier_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--kernel-tier",
        choices=KERNEL_TIERS,
        default=None,
        help="counting kernel tier; auto and numpy both select the NumPy "
        "kernel (default: REPRO_KERNEL_TIER or auto)",
    )


def _add_store_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="persistent profile store directory (requires --source stream); "
        "a warm store serves repeated runs with zero physical scans of the "
        "CSV, and an appended-to CSV counts only its new rows",
    )


def _open_store(args: argparse.Namespace):
    """The ProfileStore selected by ``--store`` (``None`` when absent)."""
    if getattr(args, "store", None) is None:
        return None
    from repro.exceptions import StoreError
    from repro.store import ProfileStore

    if getattr(args, "source", "stream") not in ("stream", "npy", "parquet"):
        raise StoreError(
            "--store caches source-backed scans; pass --source "
            "stream/npy/parquet"
        )
    return ProfileStore(args.store)


def _load_mining_data(args: argparse.Namespace, store=None):
    """The relation or streaming source selected by the CLI flags."""
    from repro.pipeline import CSVSource
    from repro.relation.io import DEFAULT_CHUNK_SIZE, infer_csv_schema

    if args.source in ("npy", "parquet"):
        return _open_columnar_source(args)
    if args.source == "stream":
        chunk_size = args.chunk_size or DEFAULT_CHUNK_SIZE
        schema = None
        if store is not None:
            # A warm store remembers the schema its snapshot was built
            # under (verified by fingerprint), so repeated runs skip the
            # inference parse entirely — the file is never opened beyond
            # the fingerprint digest.
            schema = store.cached_schema(
                CSVSource(args.csv, chunk_size=chunk_size)
            )
        if schema is None:
            # Whole-file (still bounded-memory) schema inference, so
            # streamed mining parses a file exactly as --source memory
            # would even when the leading rows are not representative of a
            # column's type.
            schema = infer_csv_schema(args.csv, chunk_size=chunk_size)
        return CSVSource(args.csv, schema=schema, chunk_size=chunk_size)
    return load_dataset(args.csv)


def _open_columnar_source(args: argparse.Namespace):
    """The zero-copy columnar source selected by ``--source npy/parquet``.

    ``--path`` names the column directory / Parquet file; without it the
    positional file argument doubles as the data path, so
    ``repro catalog profiles.npy/ --source npy`` reads naturally.
    """
    from repro.pipeline import NpyDirectorySource, ParquetSource
    from repro.relation.io import DEFAULT_CHUNK_SIZE

    path = args.path or args.csv
    chunk_size = args.chunk_size or DEFAULT_CHUNK_SIZE
    if args.source == "npy":
        return NpyDirectorySource(path, chunk_size=chunk_size)
    return ParquetSource(path, chunk_size=chunk_size)


def _run_dataset(args: argparse.Namespace) -> int:
    relation = generate_named_dataset(args.name, args.rows, seed=args.seed)
    path = save_dataset(relation, args.out)
    print(f"wrote {relation.num_tuples} tuples x {relation.num_attributes} attributes to {path}")
    return 0


def _run_mine(args: argparse.Namespace) -> int:
    import numpy as np

    data = _load_mining_data(args)
    miner = OptimizedRuleMiner(
        data,
        num_buckets=args.buckets,
        rng=np.random.default_rng(args.seed),
        engine=args.engine,
        executor=args.executor,
        kernel_tier=args.kernel_tier,
    )
    if args.kind == "confidence":
        rule = miner.optimized_confidence_rule(
            args.attribute, args.objective, min_support=args.min_support
        )
    elif args.kind == "support":
        rule = miner.optimized_support_rule(
            args.attribute, args.objective, min_confidence=args.min_confidence
        )
    elif args.kind == "max-average":
        rule = miner.maximum_average_rule(
            args.attribute, args.objective, min_support=args.min_support
        )
    else:
        rule = miner.maximum_support_average_rule(
            args.attribute, args.objective, min_average=args.min_average
        )
    if rule is None:
        print("no rule satisfies the requested thresholds")
        return 1
    print(rule)
    return 0


def _run_catalog(args: argparse.Namespace) -> int:
    from pathlib import Path

    import numpy as np

    from repro.mining import mine_rule_catalog
    from repro.reporting import catalog_to_csv, catalog_to_markdown

    store = _open_store(args)
    data = _load_mining_data(args, store=store)
    catalog = mine_rule_catalog(
        data,
        min_support=args.min_support,
        min_confidence=args.min_confidence,
        num_buckets=args.buckets,
        rng=np.random.default_rng(args.seed),
        engine=args.engine,
        executor=args.executor,
        store=store,
        kernel_tier=args.kernel_tier,
    )
    if store is not None:
        print(f"profile store: {store.last_status} ({store.directory})")
    print(
        f"mined {len(catalog)} rules over {catalog.num_pairs} attribute pairs "
        f"(support >= {args.min_support:.0%} / confidence >= {args.min_confidence:.0%})"
    )
    for entry in catalog.top(args.top, by=args.rank_by):
        print(f"  [{entry.lift:5.2f}x] {entry.rule}")
    if args.out_csv:
        path = catalog_to_csv(catalog, Path(args.out_csv))
        print(f"wrote full catalog to {path}")
    if args.out_markdown:
        Path(args.out_markdown).write_text(
            catalog_to_markdown(catalog, limit=args.top, by=args.rank_by), encoding="utf-8"
        )
        print(f"wrote Markdown summary to {args.out_markdown}")
    return 0


def _run_rules2d(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.core.rules import RuleKind
    from repro.extensions import mine_rectangle_rule

    store = _open_store(args)
    data = _load_mining_data(args, store=store)
    rule = mine_rectangle_rule(
        data,
        args.row_attribute,
        args.column_attribute,
        args.objective,
        kind=(
            RuleKind.OPTIMIZED_CONFIDENCE
            if args.kind == "confidence"
            else RuleKind.OPTIMIZED_SUPPORT
        ),
        min_support=args.min_support,
        min_confidence=args.min_confidence,
        grid=tuple(args.grid),
        rng=np.random.default_rng(args.seed),
        engine=args.engine,
        executor=args.executor,
        store=store,
        kernel_tier=args.kernel_tier,
    )
    if store is not None:
        print(f"profile store: {store.last_status} ({store.directory})")
    if rule is None:
        print("no rectangle satisfies the requested thresholds")
        return 1
    print(rule)
    return 0


def _run_store(args: argparse.Namespace) -> int:
    from repro.store import ProfileStore

    if args.store_command == "verify":
        store = ProfileStore(args.store)
        findings = store.verify()
        entries = store.inspect()
        if not findings:
            print(
                f"store {store.directory} is sound "
                f"({len(entries)} snapshot(s) verified)"
            )
            return 0
        print(
            f"store {store.directory} is corrupt: "
            f"{len(findings)} problem(s)",
            file=sys.stderr,
        )
        for finding in findings:
            payload = finding.get("payload") or "<manifest>"
            print(f"  {payload}: {finding['problem']}", file=sys.stderr)
        return 3

    if args.store_command == "inspect":
        store = ProfileStore(args.store)
        entries = store.inspect()
        if not entries:
            print(f"store {store.directory} is empty")
            return 0
        print(f"store {store.directory}: {len(entries)} snapshot(s)")
        for entry in entries:
            kinds = ", ".join(
                f"{entry['requests'].count(kind)} {kind}"
                for kind in dict.fromkeys(entry["requests"])
            )
            print(
                f"  {entry['payload']}: plan {entry['plan_signature'][:12]} "
                f"seed {entry['seed']} | {entry['num_tuples']} tuples "
                f"({entry['appended_tuples']} appended, "
                f"staleness {entry['staleness']:.1%}) | {kinds}"
            )
        return 0

    import numpy as np

    from repro.mining import mine_rule_catalog

    if args.rebuild_threshold is not None:
        store = ProfileStore(args.store, rebuild_threshold=args.rebuild_threshold)
    else:
        store = ProfileStore(args.store)
    # The stored plan is the catalog plan (every numeric x Boolean pair at
    # --buckets/--seed), produced by the same code path `catalog --store`
    # runs — so the signatures match by construction and warm catalog runs
    # are zero-scan hits.
    data = _load_mining_data(
        argparse.Namespace(
            csv=args.csv,
            source=args.source,
            path=args.path,
            chunk_size=args.chunk_size,
        ),
        store=store,
    )
    catalog = mine_rule_catalog(
        data,
        num_buckets=args.buckets,
        rng=np.random.default_rng(args.seed),
        executor=args.executor,
        store=store,
        kernel_tier=args.kernel_tier,
    )
    status = store.last_status
    print(
        f"{status}: {catalog.num_pairs} attribute pairs over "
        f"{catalog.num_tuples} tuples -> {store.directory}"
    )
    if args.store_command == "append" and status == "build":
        print(
            "note: no matching snapshot existed; a fresh one was built "
            "(check --buckets/--seed match the original build)"
        )
    return 0


def _catalog_scan_plan(schema, num_buckets: int):
    """The catalog plan shared with every snapshot-compatible surface.

    Delegates to :func:`repro.mining.catalog_scan_plan` (the service plane
    uses the same helper, so its snapshots interoperate with ``store
    build`` / ``catalog --store`` / ``shard`` / ``ingest``).  ``num_buckets``
    is accepted for the call sites' readability but intentionally not baked
    into the requests — the bucket count rides on the builder.
    """
    from repro.mining import catalog_scan_plan

    return catalog_scan_plan(schema)


def _run_shard(args: argparse.Namespace) -> int:
    from repro.exceptions import ShardError
    from repro.pipeline import CSVSource
    from repro.pipeline.builder import ProfileBuilder
    from repro.relation.io import DEFAULT_CHUNK_SIZE, infer_csv_schema
    from repro.shard import (
        RetryPolicy,
        ShardCoordinator,
        checkpoint_status,
        partition_source,
        run_key,
    )
    from repro.store.profile_store import plan_signature

    chunk_size = args.chunk_size or DEFAULT_CHUNK_SIZE
    if args.source in ("npy", "parquet"):
        source = _open_columnar_source(args)
        schema = source.schema
    else:
        schema = infer_csv_schema(args.csv, chunk_size=chunk_size)
        source = CSVSource(args.csv, schema=schema, chunk_size=chunk_size)
    builder = ProfileBuilder(
        num_buckets=args.buckets, seed=args.seed, kernel_tier=args.kernel_tier
    )
    plan = _catalog_scan_plan(schema, args.buckets)
    if len(plan) == 0:
        raise ShardError(
            f"{args.csv} has no numeric x Boolean attribute pairs to profile"
        )

    if args.shard_command == "status":
        if args.checkpoints is None:
            raise ShardError("shard status needs --checkpoints")
        # Columnar sources partition by tuple spans, which need the (cheap,
        # metadata-only) row count; CSV byte spans need nothing.
        total = None if args.source == "stream" else source.num_rows
        descriptors = partition_source(source, args.shards, total)
        key = run_key(plan_signature(builder, plan), builder.seed, descriptors)
        info = checkpoint_status(args.checkpoints, key)
        done = set(info["completed_shards"])
        print(f"run {key}: checkpoints in {info['directory']}")
        print(
            f"  boundaries checkpointed: "
            f"{'yes' if info['has_bucketings'] else 'no'}"
        )
        print(f"  shards: {len(done)}/{len(descriptors)} checkpointed")
        for descriptor in descriptors:
            state = "done" if descriptor.index in done else "pending"
            print(
                f"    shard {descriptor.index}: "
                f"[{descriptor.start}, {descriptor.stop}) "
                f"{descriptor.unit} {state}"
            )
        if args.gc:
            from repro.shard import gc_checkpoints

            removed = gc_checkpoints(args.checkpoints, [key])
            if removed:
                print(f"  gc: removed {len(removed)} orphaned run(s):")
                for name in removed:
                    print(f"    {name}")
            else:
                print("  gc: no orphaned checkpoint runs")
        return 0

    if args.shard_command == "resume" and args.checkpoints is None:
        raise ShardError("shard resume needs --checkpoints")
    coordinator = ShardCoordinator(
        builder,
        num_shards=args.shards,
        transport=args.transport,
        retry=RetryPolicy(max_retries=args.max_retries),
        shard_timeout=args.shard_timeout,
        on_exhausted=args.on_exhausted,
        checkpoints=args.checkpoints,
    )
    run = coordinator.mine(source, plan)
    coverage = run.coverage
    print(
        f"run {run.run_key}: {len(run.descriptors)} shards over "
        f"{coverage['total_units']} {coverage['unit']} "
        f"({len(plan)} profile requests)"
    )
    for report in run.reports:
        detail = f"{report.attempts} attempt(s), {report.tuples} tuples"
        if report.status == "checkpointed":
            detail = f"resumed from checkpoint, {report.tuples} tuples"
        if report.error:
            detail += f" | {report.error}"
        print(f"  shard {report.index}: {report.status} ({detail})")
    print(
        f"coverage: {coverage['coverage']:.1%} "
        f"({coverage['covered_tuples']} tuples from "
        f"{len(coverage['completed_shards'])}/{coverage['total_shards']} shards)"
    )
    if not run.complete:
        print(
            "degraded result: shards "
            f"{coverage['failed_shards']} are missing from the fold"
        )
        return 3
    return 0


def _run_ingest(args: argparse.Namespace) -> int:
    from repro.exceptions import IngestError
    from repro.ingest import (
        IngestDaemon,
        IngestReport,
        ManualRefreezePolicy,
        ScheduledRefreezePolicy,
        ThresholdRefreezePolicy,
    )
    from repro.pipeline import CSVSource
    from repro.pipeline.builder import ProfileBuilder
    from repro.relation.io import DEFAULT_CHUNK_SIZE, infer_csv_schema
    from repro.store import ProfileStore

    store = ProfileStore(args.store)
    chunk_size = args.chunk_size or DEFAULT_CHUNK_SIZE
    if args.source in ("npy", "parquet"):
        def source_factory():
            return _open_columnar_source(args)

        schema = source_factory().schema
    else:
        schema = store.cached_schema(CSVSource(args.csv, chunk_size=chunk_size))
        if schema is None:
            schema = infer_csv_schema(args.csv, chunk_size=chunk_size)
        csv_schema = schema

        def source_factory():
            return CSVSource(args.csv, schema=csv_schema, chunk_size=chunk_size)

    import numpy as np

    # Derive the boundary-sampling seed exactly as OptimizedRuleMiner does
    # from its rng, so the daemon folds into the same store entry that
    # `store build` / `catalog --store` created for this --seed.
    seed = int(np.random.default_rng(args.seed).integers(0, 2**32))
    builder = ProfileBuilder(
        num_buckets=args.buckets, seed=seed, kernel_tier=args.kernel_tier
    )
    plan = _catalog_scan_plan(schema, args.buckets)
    if len(plan) == 0:
        raise IngestError(
            f"{args.csv} has no numeric x Boolean attribute pairs to profile"
        )

    if args.ingest_command == "status":
        daemon = IngestDaemon(builder, source_factory, plan, store)
        info = daemon.status()
        print(f"ingest into {store.directory}:")
        print(f"  cycles: {info['cycle']} ({info['cycles_since_refreeze']} since re-freeze)")
        print(f"  stored tuples: {info['stored_tuples']} (staleness {info['staleness']:.1%})")
        print(f"  observed length: {info['observed_length']}")
        for attribute, reading in sorted(info["drift"].items()):
            print(
                f"  drift {attribute!r}: {reading['appended']} appended, "
                f"shift {reading['occupancy_shift']:.3f}, "
                f"KL {reading['kl_divergence']:.3f}, "
                f"out-of-range {reading['out_of_range_mass']:.3f}"
            )
        return 0

    if args.policy == "scheduled":
        policy = ScheduledRefreezePolicy(args.every_cycles)
    elif args.policy == "manual":
        policy = ManualRefreezePolicy()
    else:
        policy = ThresholdRefreezePolicy(
            max_staleness=args.max_staleness,
            max_occupancy_shift=args.max_occupancy_shift,
            max_kl=args.max_kl,
            max_out_of_range=args.max_out_of_range,
        )
    daemon = IngestDaemon(
        builder,
        source_factory,
        plan,
        store,
        policy=policy,
        max_failures=args.max_failures,
        on_source_changed=args.on_source_changed,
    )

    def describe(report: IngestReport) -> None:
        line = (
            f"cycle {report.cycle}: {report.status} | "
            f"length {report.observed_length}, "
            f"{report.appended} appended since freeze, "
            f"staleness {report.staleness:.1%}"
        )
        if report.refreeze_reason:
            line += f" | re-freeze: {report.refreeze_reason}"
        if report.error:
            line += f" | {report.error}"
        print(line)

    if args.ingest_command == "once":
        report = daemon.once()
        describe(report)
        return 3 if report.degraded else 0

    reports = daemon.run(
        cycles=args.cycles, interval=args.interval, on_report=describe
    )
    return 3 if any(report.degraded for report in reports) else 0


def _run_serve(args: argparse.Namespace) -> int:
    import os

    from repro.exceptions import ServiceError
    from repro.service import RuleService, ServiceConfig, serve_forever

    token = args.token
    if args.token_env is not None:
        token = os.environ.get(args.token_env)
        if not token:
            raise ServiceError(
                f"--token-env {args.token_env} is not set in the environment",
                status=500,
            )
    config = ServiceConfig(
        data=args.path or args.csv,
        source=args.source,
        store=args.store,
        num_buckets=args.buckets,
        seed=args.seed,
        min_support=args.min_support,
        min_confidence=args.min_confidence,
        engine="fast",
        executor=args.executor,
        kernel_tier=args.kernel_tier,
        chunk_size=args.chunk_size,
        token=token,
        top=args.top,
    )
    service = RuleService(config)
    auth = "bearer-token auth" if token else "no auth (pass --token/--token-env)"
    print(
        f"serving {config.data} ({config.source}) on "
        f"http://{args.host}:{args.port} [{auth}, "
        f"store: {config.store or 'disabled'}]",
        flush=True,
    )
    serve_forever(service, host=args.host, port=args.port, workers=args.workers)
    return 0


def _run_experiment(args: argparse.Namespace) -> int:
    result = _EXPERIMENTS[args.name]()
    print(result.report())
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "dataset":
            return _run_dataset(args)
        if args.command == "mine":
            return _run_mine(args)
        if args.command == "catalog":
            return _run_catalog(args)
        if args.command == "rules2d":
            return _run_rules2d(args)
        if args.command == "store":
            return _run_store(args)
        if args.command == "shard":
            return _run_shard(args)
        if args.command == "ingest":
            return _run_ingest(args)
        if args.command == "serve":
            return _run_serve(args)
        if args.command == "experiment":
            return _run_experiment(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
