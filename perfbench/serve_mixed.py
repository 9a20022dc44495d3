"""serve-mixed: the HTTP tier with exact reads beside curator writes.

Why this workload: request handling, rule rendering, JSON encoding and
catalog queries dominate; mining is nearly absent after set-up and the
published snapshot memo mostly hits.  Background flushes compete with
reads for the interpreter lock, which is what the read tail catches.
Nothing else exercises the server.

Two things schedule a background flush: a write that leaves its
tenant's queue at the watermark (``WATERMARK_EVENTS``), and an
``estimate=true`` read that finds any event pending (the exact-behind
refresh).  The server flags and the small estimate share are chosen so
that most flushes are watermark flushes: a tenant's queue reaches the
watermark after five writes, and about one write in thirty is followed
by an estimate read of the same tenant.  The run counts both kinds from
the answers (write acks carry the queue depth, estimate answers whether
they scheduled a flush) and fails unless watermark flushes are at
least half of them; the split and the events per flush are in the
diagnostics.

The server is an unmodified ``python -m repro serve`` subprocess; the
benchmark talks to it only over HTTP.  Two tenants of a few thousand
tuples each are created over HTTP during set-up.

Measured phases:

* open loop (independent users): requests are due at a fixed rate,
  ``RATE_PER_S``, whatever the server does; each is timed from the
  moment it was due, and the generator's own lateness is recorded.
  The rate is a constant, about a sixth of the closed-loop capacity
  measured on a 2-CPU host (light load, so queueing stays small next
  to service time), and is never recomputed per run.
* closed loop (capacity): one connection sending a fixed number of
  requests, each when the previous one answers; ``capacity`` is
  completed OK requests per second.  One connection keeps client and
  server from contending for the two CPUs, so capacity tracks the
  request path's own cost.  A fixed count, not a fixed time, keeps the
  tenants' state (the relations grow with the writes) the same for a
  seed on a fast host and a slow one.

The phases alternate in segments; every request of a segment completes
before the next segment starts, so the host-speed probe between
segments never delays a request.

Writes to one tenant go through one connection in order (one write
lane per tenant in the open loop), so the
curator stream's events reach the server in the order they were
generated and every event is valid when applied.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from urllib.parse import quote

from repro import (
    AddAnnotatedTuples,
    AddAnnotations,
    AddUnannotatedTuples,
    RemoveAnnotations,
    RemoveTuples,
)

import inputs
import measure
from measure import peak_rss_mb

TENANTS = ("t0", "t1")
TENANT_TUPLES = 3_000
#: Offered rate of the open-loop phase, requests per second.
RATE_PER_S = 200
EVENTS_PER_WRITE = 4
#: Share of the measured time spent in the open loop.  Open- and
#: closed-loop segments alternate, ``SEGMENT_PAIRS`` of each, so both
#: phases sample the whole run; host speed is probed between segments,
#: after the server settled, while no request is in flight.
OPEN_LOOP_SHARE = 0.5
SEGMENT_PAIRS = 5
#: A closed-loop segment sends a fixed number of requests, sized by this
#: nominal rate (a constant, below the capacity measured on a 2-CPU
#: host), so every run of a seed sends the same requests in the same
#: order and the tenants' state does not depend on host speed.
CLOSED_LOOP_NOMINAL_PER_S = 1000
SETTLE_S = 0.3
READ_POOL = 6
#: Server flags: a watermark of 1% of a 2000-event queue bound schedules
#: a background flush at 20 pending events, five writes (the defaults,
#: 10000 x 0.5, leave every write unflushed until an estimate read or
#: the drain).
MAX_PENDING_EVENTS = 2000
FLUSH_WATERMARK = 0.01
WATERMARK_EVENTS = int(MAX_PENDING_EVENTS * FLUSH_WATERMARK)
SERVER_FLAGS = ("--max-pending-events", str(MAX_PENDING_EVENTS),
                "--flush-watermark", str(FLUSH_WATERMARK))
#: Watermark flushes must be at least this share of background flushes.
WATERMARK_SHARE_BOUND = 0.5
#: A run whose generator dispatched more than 1% of requests later than
#: this behind schedule fails instead of reporting.
LATENESS_BOUND_S = 0.05
LATE_SHARE_BOUND = 0.01
STARTUP_TIMEOUT_S = 120.0
#: Request mix: (weight, kind).
MIX = (
    (0.15, "write"),
    (0.005, "estimate"),
    (0.215, "rules"),
    (0.31, "top"),
    (0.20, "query"),
    (0.12, "for_item"),
)
FOR_ITEM_TOKENS = ("Annot_1", "Annot_2", "Annot_3", "Annot_4", "c2v25",
                   "c0v25", "Annot_N0")


def event_to_wire(event) -> dict:
    """The HTTP API's event envelope."""
    if isinstance(event, AddAnnotations):
        return {"type": "add_annotations",
                "additions": [list(pair) for pair in event.additions]}
    if isinstance(event, RemoveAnnotations):
        return {"type": "remove_annotations",
                "removals": [list(pair) for pair in event.removals]}
    if isinstance(event, AddAnnotatedTuples):
        return {"type": "add_annotated_tuples",
                "rows": [[list(values), sorted(annotations)]
                         for values, annotations in event.rows]}
    if isinstance(event, AddUnannotatedTuples):
        return {"type": "add_unannotated_tuples",
                "rows": [list(values) for values in event.rows]}
    if isinstance(event, RemoveTuples):
        return {"type": "remove_tuples", "tids": list(event.tids)}
    raise TypeError(f"no wire form for {type(event).__name__}")


class Connection:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def request(self, method: str, path: str,
                      body: object = None) -> tuple[int, bytes]:
        data = b"" if body is None else json.dumps(body).encode("utf-8")
        self.writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n\r\n".encode("ascii") + data)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        payload = await self.reader.readexactly(length) if length else b""
        return status, payload

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class Server:
    """A ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, root: str, *, trace_out: str | None = None) -> None:
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        serve = ["--port", "0", "--min-support", str(inputs.MIN_SUPPORT),
                 "--min-confidence", str(inputs.MIN_CONFIDENCE),
                 *SERVER_FLAGS]
        if trace_out is None:
            command = [sys.executable, "-m", "repro", "serve", *serve]
        else:
            command = [sys.executable,
                       os.path.join(root, "perfbench", "serve_traced.py"),
                       trace_out, *serve]
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        self.stderr: list[str] = []
        self.port = self._wait_for_port()
        self._drain = threading.Thread(target=self._read_stderr,
                                       daemon=True)
        self._drain.start()

    def _wait_for_port(self) -> int:
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        while time.monotonic() < deadline:
            line = self.process.stderr.readline()
            if not line:
                break
            self.stderr.append(line)
            if "listening on http://" in line:
                return int(line.rsplit(":", 1)[1].strip().rstrip("/"))
        self.stop()
        raise RuntimeError("server did not start:\n" + "".join(self.stderr))

    def _read_stderr(self) -> None:
        for line in self.process.stderr:
            self.stderr.append(line)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        """Graceful drain (SIGTERM), then wait; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if getattr(self, "_drain", None) is not None:
            self._drain.join(timeout=10)
        if self.process.stderr is not None:
            self.process.stderr.close()


class ServeMixed:
    """Runs the workload; see the module docstring."""

    UNITS = {"read_ms": "ms", "write_ms": "ms", "estimate_ms": "ms"}
    WRITE = "write_ms"
    READ = "read_ms"
    WORK = "capacity_per_s"
    #: Power of the host-speed factor applied to each end-to-end metric.
    #: Set-up (server start-up, the tenants' initial mines) and the
    #: closed-loop capacity are CPU-bound throughout, as the calibration
    #: loop is, and scale fully.  An open-loop request at light load is
    #: only partly CPU work; its wake-ups and socket round trips slow far
    #: less on a slow host, so its latencies are half-scaled (the power
    #: that kept them steadiest over 50 runs; see README.md).
    HOST_SCALING = {"setup_s": 1.0, "write_p50_ms": 0.5,
                    "read_p50_ms": 0.5, "work_per_s": 1.0}
    #: Client and server keep both CPUs of the virtual machine busy, and
    #: the hypervisor then runs other guests on them for up to ~40% of
    #: the time they want (``measure.stolen_share``), which the
    #: calibration loop, probed between segments on one CPU, does not
    #: see.  Each sample's time is multiplied by
    #: ``exp(-elasticity * share)``, the share measured over its own
    #: segment; the elasticities are the slopes of log time on the
    #: share over the 220 segments of 22 runs (see README.md).
    STEAL_ELASTICITY = {"write_p50_ms": 0.9, "read_p50_ms": 0.8,
                        "work_per_s": 1.8}
    #: Peak RSS is read after the first open-loop segment, whose work is
    #: fixed (later closed-loop writes grow the relations with speed).
    RSS_AFTER_STEPS = 1

    def __init__(self, seed: int, workdir: str, *, root: str,
                 scale: float = 1.0, span=None) -> None:
        """``workdir`` and ``span`` are unused: the server keeps no files
        and is traced in its own process."""
        self.seed = seed
        self.root = root
        self.n_tuples = max(200, int(TENANT_TUPLES * scale))
        self.rows = {name: inputs.paper_relation_rows(
            seed * 31 + index, self.n_tuples)
            for index, name in enumerate(TENANTS)}
        self.streams: dict = {}
        self.create_bodies = {name: {
            "name": name,
            "rows": [[list(values), sorted(annotations)]
                     for values, annotations in self.rows[name]]}
            for name in TENANTS}
        self.setup_s: list[float] = []
        self.samples: dict[str, list[float]] = {
            "read_ms": [], "write_ms": [], "estimate_ms": []}
        self.lateness: list[float] = []
        #: (completed OK requests, seconds) per closed-loop segment.
        self.work: list[tuple[int, float]] = []
        #: Stolen share of the segment each sample (and each ``work``
        #: entry, under ``"work"``) was taken in.
        self.stolen: dict[str, list[float]] = {
            name: [] for name in (*self.samples, "work")}
        #: Per segment: kind, stolen share and raw medians.
        self.segments: list[dict] = []
        self._plan: list[tuple[str, float]] = []
        self.attempted = 0
        self.failed = 0
        self.statuses: dict[int, int] = {}
        self.first_revision: dict[str, int] = {}
        self.last_revision: dict[str, int] = {}
        self.server: Server | None = None
        self.setup_started_ns = 0
        #: Write acks that left their tenant's queue at the watermark.
        self.watermark_writes: dict[str, int] = {}
        #: Estimate answers that scheduled (or joined) a flush.
        self.estimate_flushes = 0
        self.estimate_pending: list[int] = []
        self.sizes = {"tenants": len(TENANTS),
                      "tuples_per_tenant": self.n_tuples,
                      "open_loop_rate_per_s": RATE_PER_S,
                      "events_per_write": EVENTS_PER_WRITE,
                      "closed_loop_connections": 1,
                      "server_flags": " ".join(SERVER_FLAGS)}

    # -- set-up ------------------------------------------------------------

    def setup(self, *, trace_out: str | None = None) -> None:
        """Timed set-up whose server the measured phases use.  The
        server starts from the initial rows, so the curator streams and
        the per-server counters start over with it."""
        self.statuses.clear()
        self.first_revision.clear()
        self.last_revision.clear()
        self.watermark_writes.clear()
        self.estimate_flushes = 0
        self.estimate_pending.clear()
        self.streams = {name: inputs.CuratorStream(
            self.rows[name], self.seed * 31 + index).batches(
                EVENTS_PER_WRITE)
            for index, name in enumerate(TENANTS)}
        self.setup_started_ns = time.monotonic_ns()
        self.server = self._set_up(trace_out)

    def setup_sample(self) -> None:
        """One more timed set-up on a server of its own, then stopped;
        the measured phases keep theirs."""
        self._set_up(None).stop()

    def _set_up(self, trace_out: str | None) -> Server:
        """Spawn -> ``/healthz`` -> both tenants created over HTTP."""
        started = time.perf_counter()
        server = Server(self.root, trace_out=trace_out)
        try:
            asyncio.run(self._create_tenants(server.port))
        except BaseException:
            server.stop()
            raise
        self.setup_s.append(time.perf_counter() - started)
        return server

    async def _create_tenants(self, port: int) -> None:
        connection = await Connection.open(port)
        try:
            status, body = await connection.request("GET", "/healthz")
            if status != 200:
                raise RuntimeError(f"/healthz answered {status}: {body!r}")
            for name in TENANTS:
                status, body = await connection.request(
                    "POST", "/v1/tenants", self.create_bodies[name])
                if status != 201:
                    raise RuntimeError(
                        f"tenant {name} create answered {status}: "
                        f"{body[:200]!r}")
        finally:
            await connection.close()

    # -- requests ----------------------------------------------------------

    @staticmethod
    def _next_request(rng: random.Random, tenant: str) -> tuple[str, str]:
        """(kind, path) of the next request.  A write's events are drawn
        only when it is sent, under its tenant's write lock, so their
        order is the stream order."""
        roll = rng.random()
        for weight, kind in MIX:
            if roll < weight:
                break
            roll -= weight
        base = f"/v1/{tenant}"
        if kind == "rules":
            return kind, f"{base}/rules?limit=20&offset={rng.randrange(3)}"
        if kind == "top":
            metric = rng.choice(("confidence", "support", "lift"))
            return kind, f"{base}/rules/top?n=10&by={metric}"
        if kind == "query":
            return kind, (f"{base}/query?min_confidence=0.85"
                          f"&order_by=support&limit=10")
        if kind == "for_item":
            token = quote(rng.choice(FOR_ITEM_TOKENS))
            return kind, f"{base}/rules/for-item?token={token}"
        if kind == "estimate":
            return kind, f"{base}/rules/top?n=10&estimate=true"
        return kind, f"{base}/events:batch"

    def _record(self, kind: str, tenant: str, status: int,
                payload: bytes, elapsed: float | None = None) -> bool:
        """Count one answer; an open-loop answer (``elapsed`` given)
        also becomes a latency sample."""
        self.statuses[status] = self.statuses.get(status, 0) + 1
        ok = (status == 202) if kind == "write" else (status == 200)
        if not ok:
            self.failed += 1
            return False
        if kind == "write":
            self._note_write(tenant, payload)
            sample = "write_ms"
        else:
            self._note_revision(tenant, payload)
            sample = "estimate_ms" if kind == "estimate" else "read_ms"
        if elapsed is not None:
            self.samples[sample].append(elapsed)
        return True

    def _note_write(self, tenant: str, payload: bytes) -> None:
        if json.loads(payload)["queue_depth"] >= WATERMARK_EVENTS:
            self.watermark_writes[tenant] = \
                self.watermark_writes.get(tenant, 0) + 1

    def _note_revision(self, tenant: str, payload: bytes) -> None:
        answer = json.loads(payload)
        revision = answer["revision"]
        if answer.get("estimated"):
            self.estimate_pending.append(answer["pending_events"])
            self.estimate_flushes += bool(answer["flush_scheduled"])
        self.first_revision.setdefault(tenant, revision)
        self.last_revision[tenant] = max(
            self.last_revision.get(tenant, revision), revision)

    async def _write(self, connection: Connection, tenant: str):
        events = next(self.streams[tenant])
        return await connection.request(
            "POST", f"/v1/{tenant}/events:batch",
            {"events": [event_to_wire(event) for event in events]})

    # -- phases ------------------------------------------------------------

    async def _open_loop(self, seconds: float) -> None:
        port = self.server.port
        loop = asyncio.get_running_loop()
        pool: asyncio.Queue = asyncio.Queue()
        for _ in range(READ_POOL):
            pool.put_nowait(await Connection.open(port))
        writers = {name: (asyncio.Lock(), await Connection.open(port))
                   for name in TENANTS}
        rng = random.Random(self.seed * 5 + 1)

        async def issue(kind: str, tenant: str, path: str,
                        due: float) -> None:
            try:
                if kind == "write":
                    lock, connection = writers[tenant]
                    async with lock:
                        status, payload = await self._write(connection,
                                                            tenant)
                else:
                    connection = await pool.get()
                    try:
                        status, payload = await connection.request(
                            "GET", path)
                    finally:
                        pool.put_nowait(connection)
            except (ConnectionError, OSError, asyncio.IncompleteReadError):
                self.failed += 1
                return
            self._record(kind, tenant, status, payload,
                         time.perf_counter() - due)

        interval = 1.0 / RATE_PER_S
        count = max(1, int(seconds * RATE_PER_S))
        start = time.perf_counter() + 0.01
        tasks = set()
        finished = asyncio.Event()

        def dispatch(due: float) -> None:
            # Runs on the loop, in due order: draw the request here so
            # the mix is the same whatever the timing.
            self.lateness.append(max(0.0, time.perf_counter() - due))
            tenant = rng.choice(TENANTS)
            kind, path = self._next_request(rng, tenant)
            self.attempted += 1
            task = asyncio.ensure_future(issue(kind, tenant, path, due))
            tasks.add(task)
            task.add_done_callback(tasks.discard)

        def pace() -> None:
            # The schedule runs on its own thread: the event loop's
            # timers fire up to a millisecond late, a thread's sleep
            # wakes within tens of microseconds.
            for index in range(count):
                due = start + index * interval
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                loop.call_soon_threadsafe(dispatch, due)
            loop.call_soon_threadsafe(finished.set)

        pacer = threading.Thread(target=pace, name="perfbench-pacer")
        pacer.start()
        try:
            await finished.wait()
        finally:
            pacer.join()
        while tasks:
            await asyncio.gather(*list(tasks))
        while not pool.empty():
            await pool.get_nowait().close()
        for _lock, connection in writers.values():
            await connection.close()

    async def _closed_loop(self, requests: int) -> None:
        """One connection sending each of ``requests`` requests when the
        previous one answered."""
        loop = asyncio.get_running_loop()
        connection = await Connection.open(self.server.port)
        rng = random.Random(self.seed * 11 + len(self.work))
        completed = 0
        started = loop.time()
        try:
            for _ in range(requests):
                tenant = rng.choice(TENANTS)
                kind, path = self._next_request(rng, tenant)
                self.attempted += 1
                if kind == "write":
                    status, payload = await self._write(connection, tenant)
                else:
                    status, payload = await connection.request("GET", path)
                # Closed-loop answers count toward capacity and
                # ``ok_ratio`` but not toward the open-loop latencies.
                completed += self._record(kind, tenant, status, payload)
        finally:
            await connection.close()
        self.work.append((completed, loop.time() - started))

    def plan(self, seconds: float) -> int:
        """Lay out the measured segments; returns how many steps run."""
        open_seconds = seconds * OPEN_LOOP_SHARE / SEGMENT_PAIRS
        closed_requests = max(1, int(seconds * (1.0 - OPEN_LOOP_SHARE)
                                     * CLOSED_LOOP_NOMINAL_PER_S
                                     / SEGMENT_PAIRS))
        self._plan = [("open", open_seconds),
                      ("closed", closed_requests)] * SEGMENT_PAIRS
        return len(self._plan)

    def step(self) -> None:
        """Run the next planned segment against the kept server, then
        let it settle: the host-speed probe that follows must not share
        the CPUs with the segment's trailing background flushes."""
        kind, amount = self._plan.pop(0)
        marks = {name: len(values) for name, values in self.samples.items()}
        before = measure.cpu_ticks()
        if kind == "open":
            asyncio.run(self._open_loop(amount))
        else:
            asyncio.run(self._closed_loop(amount))
        share = measure.stolen_share(before, measure.cpu_ticks())
        segment = {"kind": kind, "stolen_share": share}
        for name, values in self.samples.items():
            self.stolen[name].extend([share] * (len(values) - marks[name]))
            if len(values) > marks[name]:
                segment[name] = statistics.median(values[marks[name]:]) * 1e3
        if kind == "closed":
            self.stolen["work"].append(share)
            segment["capacity_per_s"] = self.work[-1][0] / self.work[-1][1]
        self.segments.append(segment)
        time.sleep(SETTLE_S)

    def peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb()

    def close(self) -> None:
        """Stop a server a failed run left running."""
        if self.server is not None:
            self.server.stop()
            self.server = None

    async def _finish_checks(self) -> dict:
        """Scrape ``/metrics``, then per tenant: drain flush, one read
        (the post-drain revision), ``verify``."""
        connection = await Connection.open(self.server.port)
        results = {"metrics": {}, "verify": {}}
        try:
            status, body = await connection.request("GET", "/metrics")
            if status == 200:
                results["metrics"] = json.loads(body)
            for name in TENANTS:
                status, body = await connection.request(
                    "POST", f"/v1/{name}/flush")
                if status != 200:
                    results["verify"][name] = (False, f"flush {status}")
                    continue
                status, body = await connection.request(
                    "GET", f"/v1/{name}/rules/top?n=1")
                self.statuses[status] = self.statuses.get(status, 0) + 1
                if status == 200:
                    self._note_revision(name, body)
                status, body = await connection.request(
                    "GET", f"/v1/{name}/verify")
                verdict = json.loads(body) if status == 200 else {}
                results["verify"][name] = (
                    bool(verdict.get("equivalent")),
                    verdict.get("detail", f"verify answered {status}"))
        finally:
            await connection.close()
        return results

    def finish(self, outcome) -> dict:
        """Output checks against the kept server, then stop it.  Returns
        the server's exported metrics."""
        reads = len(self.samples["read_ms"]) + len(
            self.samples["estimate_ms"])
        try:
            results = asyncio.run(self._finish_checks())
        finally:
            self.server.stop()
        self.server = None
        bad = {status: count for status, count in self.statuses.items()
               if status not in (200, 202)}
        outcome.check("every_request_ok", not bad and reads > 0,
                      f"{reads} reads; non-2xx: {bad or 'none'}")
        advanced = [name for name in TENANTS
                    if self.last_revision.get(name, 0)
                    > self.first_revision.get(name, 0)]
        outcome.check("revisions_advance", len(advanced) == len(TENANTS),
                      f"advanced: {advanced}; first "
                      f"{self.first_revision}, last {self.last_revision}")
        self._check_flushes(outcome, results["metrics"].get("metrics", {}))
        for name, (ok, detail) in sorted(results["verify"].items()):
            outcome.check(f"verify_{name}", ok, detail)
        outcome.check("verify_ran", len(results["verify"]) == len(TENANTS),
                      f"{len(results['verify'])} tenants verified")
        late = sum(1 for value in self.lateness if value > LATENESS_BOUND_S)
        share = late / max(1, len(self.lateness))
        outcome.diagnostics["generator_lateness"] = {
            "late_share": share, "bound_s": LATENESS_BOUND_S,
            "max_s": max(self.lateness, default=0.0),
            "p50_s": sorted(self.lateness)[len(self.lateness) // 2]
            if self.lateness else 0.0}
        outcome.generator_fell_behind = share > LATE_SHARE_BOUND
        outcome.diagnostics.setdefault("segments", []).append(self.segments)
        self.segments = []
        return results["metrics"]

    def _check_flushes(self, outcome, exported: dict) -> None:
        """Watermark flushes fired on both tenants and are most of the
        background flushes.  Every estimate-scheduled flush answered one
        estimate read with ``flush_scheduled``, so the background
        flushes beyond those answers were scheduled by the watermark."""
        flushes = int(exported.get("service_flush_batches", {}).get(
            "value", 0))
        events = exported.get("service_flushed_events", {}).get("value", 0)
        watermark = flushes - self.estimate_flushes
        split = {"background_flushes": flushes,
                 "watermark_flushes_at_least": watermark,
                 "estimate_flushes_at_most": self.estimate_flushes,
                 "events_per_flush": events / flushes if flushes else 0.0,
                 "watermark_events": WATERMARK_EVENTS,
                 "watermark_writes": dict(sorted(
                     self.watermark_writes.items())),
                 "estimate_reads": len(self.estimate_pending),
                 "estimate_pending_events_mean": (
                     sum(self.estimate_pending) / len(self.estimate_pending)
                     if self.estimate_pending else 0.0)}
        outcome.diagnostics.setdefault("flushes", []).append(split)
        fired = (all(self.watermark_writes.get(name) for name in TENANTS)
                 and watermark >= WATERMARK_SHARE_BOUND * flushes > 0)
        outcome.check("watermark_flushes_fired", fired,
                      f"{flushes} background flushes before the drain, "
                      f">= {watermark} by the watermark, <= "
                      f"{self.estimate_flushes} by estimate reads; "
                      f"watermark writes {split['watermark_writes']}")

    @staticmethod
    def server_extras(metrics: dict) -> dict:
        """Per-layer numbers the server exports at ``/metrics``."""
        extras = {}
        derived = metrics.get("derived", {})
        if "snapshot_hit_rate" in derived:
            extras["server.snapshot_hit_ratio"] = derived["snapshot_hit_rate"]
        series = metrics.get("metrics", {}).get("http_requests", {}).get(
            "series", {})
        extras["server.rejected_429"] = sum(
            entry.get("value", 0) for key, entry in series.items()
            if "status=429" in key)
        return extras
