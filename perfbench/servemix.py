"""The ``serve-mix`` workload: catalog reads served while the ingest daemon appends.

*Server.*  ``host.py serve`` runs the stdlib-tier service over a CSV feed and
a WAL-backed profile store in its own process, so the load generator never
shares its interpreter lock.  Set-up (timed, several times, median is
``setup_s``) generates the feed, starts the server and sends the cold
``/v1/catalog`` that builds the store snapshot.

*Reads.*  One thread runs an open loop on two keep-alive connections: reads
are due at a fixed rate whatever the server does, and each is timed from
when it was due.  Most draw their ``min_support``/``min_confidence`` key
from a small skewed hot set that fits the 128-entry response cache; a small
share use a key never sent before in the run (a cache miss: a store
snapshot hit plus one solver pass per task).

*Writes.*  A second thread publishes a tail of about 1% of the head on a
fixed cadence and runs ``IngestDaemon.once()``, with a manual re-freeze
policy and the builder seed and plan the service derives, so the cycle
folds into the snapshot the service reads.  Each append changes the source
fingerprint, so every hot key is solved again once after it.  The tail is
published atomically (copy, append, rename) so no reader sees half a row.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import random
import secrets
import selectors
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import common
import tracing

SETUPS = 3
#: Offered read rate (reads/s).  With two connections, a read arriving while
#: both wait on solves queues in the generator; at this rate a connection
#: left free during one solve still keeps up with the hits.
READ_RATE = 55.0
#: Relative weights of the hot keys (skewed; all fit the response cache).
HOT_WEIGHTS = (0.7, 0.2, 0.1)
#: When appends and fresh reads are due, as fractions of the window.  Fresh
#: reads sit between appends, so each times one cache miss rather than a
#: pile-up behind the re-solves every append causes.
APPEND_AT = (0.25, 0.75)
FRESH_AT = (0.1, 0.4, 0.6, 0.9)
#: Tail size as a share of the head; total growth stays well under the
#: store's 0.25 rebuild threshold.
TAIL_SHARE = 0.01
CONNECTIONS = 2
#: A run whose generator sent reads later than this (p99) is invalid.
MAX_LAG_P99_MS = 25.0
DRAIN_SECONDS = 60.0


@dataclass
class Read:
    index: int
    kind: str  # "repeat" or "fresh"
    key: tuple
    due: float
    lag: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: bytes = b""
    error: str | None = None
    num_tuples: int | None = None
    traced: bool = False
    problems: list = field(default_factory=list)

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def ok(self) -> bool:
        return self.status == 200 and not self.problems and self.error is None


class Server:
    """``host.py serve`` as a child process; ``stop`` returns its report."""

    def __init__(self, csv: Path, store: Path, size: str, seed: int, trace: bool,
                 out: Path, token: str) -> None:
        env = common.child_env()
        env["PERFBENCH_TOKEN"] = token
        self.out = out
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("host.py")), "serve",
             "--path", str(csv), "--store", str(store), "--size", size,
             "--seed", str(seed), "--trace", str(int(trace)), "--out", str(out)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )
        line = self.process.stdout.readline()
        if not line:
            self.kill()
            raise common.BenchError("the server process exited during start-up")
        self.port = json.loads(line)["port"]

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.process.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> dict:
        try:
            self.process.communicate("stop\n", timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
            raise common.BenchError("the server process did not stop") from None
        if self.process.returncode != 0:
            raise common.BenchError(f"server exited with {self.process.returncode}")
        return common.load(self.out)

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.communicate()


class Client:
    """Blocking keep-alive client for set-up and the final checks."""

    def __init__(self, port: int, token: str) -> None:
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        self.token = token

    def get(self, target: str, headers: dict | None = None) -> tuple[int, dict]:
        merged = {"Authorization": f"Bearer {self.token}", **(headers or {})}
        self.connection.request("GET", target, headers=merged)
        response = self.connection.getresponse()
        return response.status, json.loads(response.read())

    def close(self) -> None:
        self.connection.close()


def catalog_target(key: tuple) -> str:
    return f"/v1/catalog?min_support={key[0]}&min_confidence={key[1]}"


def _keys(rng: random.Random, count: int, used: set) -> list[tuple]:
    keys = []
    while len(keys) < count:
        key = (round(rng.uniform(0.03, 0.25), 4), round(rng.uniform(0.3, 0.8), 4))
        if key not in used:
            used.add(key)
            keys.append(key)
    return keys


def schedule(seed: int, seconds: float) -> tuple[list[Read], list[tuple]]:
    """The run's reads and its hot keys, from the seed.

    Due times are offsets from the start of the window.
    """
    rng = random.Random(seed)
    # The default key 0.10/0.50 is the one set-up warms: never fresh, never hot.
    used = {(0.1, 0.5)}
    hot = _keys(rng, len(HOT_WEIGHTS), used)
    fresh = dict(zip(
        (round(at * seconds * READ_RATE) for at in FRESH_AT),
        _keys(rng, len(FRESH_AT), used),
    ))
    reads = []
    for index in range(int(READ_RATE * seconds)):
        due = index / READ_RATE
        if index in fresh:
            reads.append(Read(index, "fresh", fresh[index], due))
        else:
            key = rng.choices(hot, weights=HOT_WEIGHTS)[0]
            reads.append(Read(index, "repeat", key, due))
    for kind in ("repeat", "fresh"):
        for position, read in enumerate(r for r in reads if r.kind == kind):
            read.traced = position % 2 == 0
    return reads, hot


async def _exchange(reader, writer, request: bytes) -> tuple[int, bytes]:
    writer.write(request)
    await writer.drain()
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("connection closed")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, await reader.readexactly(length)


async def _open_loop(port: int, token: str, reads: list[Read], trace: bool) -> None:
    queue: asyncio.Queue = asyncio.Queue()

    async def dispatch() -> None:
        loop_clock = time.perf_counter
        for read in reads:
            delay = read.due - loop_clock()
            if delay > 0:
                await asyncio.sleep(delay)
            read.lag = loop_clock() - read.due
            queue.put_nowait(read)
        for _ in range(CONNECTIONS):
            queue.put_nowait(None)

    async def connection() -> None:
        reader = writer = None
        while True:
            read = await queue.get()
            if read is None:
                break
            header = ""
            if trace and read.traced:
                header = f"{tracing.TRACE_HEADER}: {read.kind}:{read.index}\r\n"
            request = (
                f"GET {catalog_target(read.key)} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"Authorization: Bearer {token}\r\n{header}\r\n"
            ).encode("ascii")
            read.sent = time.perf_counter()
            try:
                if writer is None:
                    reader, writer = await asyncio.open_connection("127.0.0.1", port)
                read.status, read.body = await _exchange(reader, writer, request)
            except (OSError, ValueError, IndexError, asyncio.IncompleteReadError) as exc:
                read.error = f"{type(exc).__name__}: {exc}"
                if writer is not None:
                    writer.close()
                reader = writer = None
            read.done = time.perf_counter()
        if writer is not None:
            writer.close()

    await asyncio.wait_for(
        asyncio.gather(dispatch(), *(connection() for _ in range(CONNECTIONS))),
        timeout=reads[-1].due - time.perf_counter() + DRAIN_SECONDS,
    )


class Feed:
    """The growing CSV feed and the tails still to publish."""

    def __init__(self, relation, sizes: common.Sizes, path: Path) -> None:
        self.path = path
        self.tail_rows = max(1, int(sizes.tuples * TAIL_SHARE))
        self.lengths = [sizes.tuples]
        self.tails = [
            common.csv_text(
                relation,
                sizes.tuples + index * self.tail_rows,
                sizes.tuples + (index + 1) * self.tail_rows,
            )
            for index in range(len(APPEND_AT))
        ]

    def publish(self, index: int) -> None:
        staging = self.path.with_name(self.path.name + ".next")
        shutil.copyfile(self.path, staging)
        with open(staging, "a", encoding="utf-8", newline="") as handle:
            handle.write(self.tails[index])
        os.replace(staging, self.path)
        self.lengths.append(self.lengths[-1] + self.tail_rows)


def make_daemon(csv: Path, store_dir: Path, sizes: common.Sizes, seed: int):
    """An ``IngestDaemon`` folding into the snapshot the service reads.

    Builder seed, plan and schema are derived exactly as
    ``RuleService._store_append`` and ``_open_source`` derive them.
    """
    import numpy as np

    from repro.ingest import IngestDaemon, ManualRefreezePolicy
    from repro.mining import catalog_scan_plan
    from repro.pipeline import CSVSource, ProfileBuilder
    from repro.store import ProfileStore

    store = ProfileStore(store_dir)
    schema = store.cached_schema(CSVSource(csv, chunk_size=sizes.chunk))
    if schema is None:
        raise common.BenchError("the store holds no schema after the cold build")
    builder = ProfileBuilder(
        num_buckets=sizes.buckets,
        seed=int(np.random.default_rng(seed).integers(0, 2**32)),
        executor=common.EXECUTOR,
        kernel_tier=common.KERNEL_TIER,
    )
    return IngestDaemon(
        builder,
        lambda: CSVSource(csv, schema=schema, chunk_size=sizes.chunk),
        catalog_scan_plan(schema),
        store,
        policy=ManualRefreezePolicy(),
    ), schema


def library_reply(csv: Path, store_dir: Path, schema, sizes: common.Sizes, seed: int,
                  key: tuple) -> dict:
    """What ``/v1/catalog`` must answer for ``key``, mined by the library."""
    import numpy as np

    from repro.mining import mine_rule_catalog
    from repro.pipeline import CSVSource
    from repro.store import ProfileStore

    catalog = mine_rule_catalog(
        CSVSource(csv, schema=schema, chunk_size=sizes.chunk),
        min_support=key[0],
        min_confidence=key[1],
        num_buckets=sizes.buckets,
        rng=np.random.default_rng(seed),
        executor=common.EXECUTOR,
        store=ProfileStore(store_dir),
        kernel_tier=common.KERNEL_TIER,
    )
    rows = [entry.as_row() for entry in catalog.top(20, by="lift")]
    return json.loads(json.dumps({
        "num_pairs": catalog.num_pairs,
        "num_rules": len(catalog),
        "num_tuples": catalog.num_tuples,
        "rules": rows,
    }))


def check_reply(read: Read, sizes: common.Sizes, lengths: set) -> None:
    if read.error is not None or read.status != 200:
        return
    try:
        body = json.loads(read.body)
    except ValueError:
        read.problems.append("reply is not JSON")
        return
    if body.get("num_pairs") != sizes.pairs:
        read.problems.append(f"num_pairs {body.get('num_pairs')}")
    if body.get("num_tuples") not in lengths:
        read.problems.append(f"num_tuples {body.get('num_tuples')} never was the feed length")
    if body.get("store_status") not in ("hit", "append"):
        read.problems.append(f"store_status {body.get('store_status')} inside the window")
    read.num_tuples = body.get("num_tuples")


def run(size: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    sizes = common.SIZES[size]
    token = secrets.token_hex(16)
    recorder = tracing.Recorder() if trace else None
    restore = tracing.install(recorder) if trace else None
    setups, colds, server, client = [], [], None, None
    try:
        for attempt in range(SETUPS):
            directory = workdir / f"setup{attempt}"
            directory.mkdir()
            csv, store_dir = directory / "feed.csv", directory / "store"
            last = attempt == SETUPS - 1
            start = time.perf_counter()
            relation = common.make_relation(
                sizes, seed, extra_rows=len(APPEND_AT) * max(1, int(sizes.tuples * TAIL_SHARE))
            )
            common.write_csv(relation, csv, stop=sizes.tuples)
            server = Server(csv, store_dir, size, seed, trace and last,
                            directory / "server.json", token)
            client = Client(server.port, token)
            headers = {tracing.TRACE_HEADER: "cold:0"} if trace and last else {}
            cold = time.perf_counter()
            status, body = client.get("/v1/catalog", headers)
            colds.append(time.perf_counter() - cold)
            setups.append(time.perf_counter() - start)
            if status != 200 or body.get("store_status") != "build":
                raise common.BenchError(f"cold catalog answered {status}: {body}")
            if not last:
                client.close()
                server.stop()
                shutil.rmtree(directory)
        return dict(
            _measure(sizes, seed, seconds, trace, server, client, csv, store_dir,
                     relation, recorder, token),
            setups=setups,
            colds=colds,
        )
    finally:
        if client is not None:
            client.close()
        if server is not None and server.process.poll() is None:
            server.kill()
        if restore is not None:
            restore()


def _measure(sizes, seed, seconds, trace, server, client, csv, store_dir,
             relation, recorder, token) -> dict:
    from repro.store import ProfileStore

    feed = Feed(relation, sizes, csv)
    daemon, schema = make_daemon(csv, store_dir, sizes, seed)
    failures: list[str] = []
    # Untimed warm-up: the daemon's first contact with the store (a hit that
    # freezes its drift trackers) and one read of each hot key.
    first = daemon.once()
    if first.status != "hit":
        failures.append(f"daemon's first cycle was {first.status}, not a hit")
    reads, hot = schedule(seed, seconds)
    for key in hot:
        client.get(catalog_target(key))
    _, before = client.get("/metrics")
    cpu_before = server.cpu_seconds()
    start = time.perf_counter() + 0.2
    for read in reads:
        read.due += start

    appends: list[dict] = []

    def write() -> None:
        for index, at in enumerate(APPEND_AT):
            due = start + at * seconds
            time.sleep(max(0.0, due - time.perf_counter()))
            feed.publish(index)
            begin = time.perf_counter()
            if recorder is not None and index % 2 == 0:
                with recorder.root("append", index):
                    report = daemon.once()
            else:
                report = daemon.once()
            appends.append({
                "seconds": time.perf_counter() - begin,
                "status": report.status,
                "traced": recorder is not None and index % 2 == 0,
            })

    writer = threading.Thread(target=write, name="perfbench-ingest")
    switch = sys.getswitchinterval()
    sys.setswitchinterval(0.0005)  # hand the GIL to the read loop promptly
    writer.start()
    # select() sleeps to the microsecond; epoll rounds timer waits up to the
    # next millisecond, which would make every read look ~1 ms late.
    loop = asyncio.SelectorEventLoop(selectors.SelectSelector())
    try:
        loop.run_until_complete(_open_loop(server.port, token, reads, trace))
    except asyncio.TimeoutError:
        failures.append("reads still outstanding after the drain timeout")
    finally:
        loop.close()
        writer.join(timeout=DRAIN_SECONDS)
        sys.setswitchinterval(switch)
    if writer.is_alive():
        raise common.BenchError("the ingest thread did not finish")
    window = max(read.done for read in reads) - start
    server_cpu = server.cpu_seconds() - cpu_before
    _, after = client.get("/metrics")

    lengths = set(feed.lengths)
    for read in reads:
        if read.done == 0.0 and read.error is None:
            read.error = "never completed"
        check_reply(read, sizes, lengths)
    for index, append in enumerate(appends):
        if append["status"] not in ("append", "hit"):
            failures.append(f"append {index} ended as {append['status']}")
    if len(appends) != len(APPEND_AT):
        failures.append(f"{len(appends)} of {len(APPEND_AT)} appends ran")

    # After the window: each hot key once more, against the library.
    for key in hot:
        status, body = client.get(catalog_target(key))
        expected = library_reply(csv, store_dir, schema, sizes, seed, key)
        got = {name: body.get(name) for name in expected}
        if status != 200 or got != expected:
            failures.append(f"hot key {key}: service reply differs from the library")
        if body.get("num_tuples") != feed.lengths[-1]:
            failures.append(f"hot key {key}: {body.get('num_tuples')} tuples after the window")
    problems = ProfileStore(store_dir).verify()
    failures += [f"store verify: {problem}" for problem in problems]
    client.close()
    host = server.stop()

    return {
        "reads": reads,
        "appends": appends,
        "hot": hot,
        "failures": failures,
        # Reads, appends, hot-key comparisons, the first cycle and verify().
        "attempted": len(reads) + len(APPEND_AT) + len(hot) + 2,
        "window": window,
        "server_cpu_s": server_cpu,
        "metrics_before": before["metrics"],
        "metrics_after": after["metrics"],
        "verify_problems": len(problems),
        "peak_rss_mb": host["peak_rss_mb"],
        "server_spans": host["spans"],
        "spans": recorder.spans if recorder is not None else [],
    }
