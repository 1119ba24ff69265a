"""``served-fixed-m36``: ``repro serve`` under load.

The server runs as a child process; this process is its load generator
(one asyncio loop, :data:`CONNECTIONS` connections).  A run:

1. **set-up**, :data:`SETUP_REPEATS` times: spawn ``repro serve``,
   open every session and answer one warm-up step each; the last server
   stays up, the others are stopped;
2. :data:`BLOCK_S`-second blocks, each a saturate phase followed by a
   paced phase, until ``--seconds`` are spent:

   - **saturate** (closed loop): each session sends its next step when
     its previous reply arrives -- large batches, throughput;
   - **paced** (open loop): Poisson arrivals at :data:`PACED_RATE`
     steps/s, latency timed from each request's due time -- small
     batches, latency.

   Each timing metric is taken from the quarter of blocks the host
   disturbed least (see :data:`BEST_QUARTER`);
3. **gate**: the server is stopped and every served stream is replayed
   through in-process ``SessionManager.step_many`` with the same seeds
   and cells; records (minus ``elapsed_s``) must match exactly.  The
   replay's throughput is the engine-only figure behind
   ``service.marginal_ms_per_step``.
"""

from __future__ import annotations

import asyncio
import gc
import json
import signal
import subprocess
import sys
import time

import common

#: Connections from the load generator (= cores of the reference box).
CONNECTIONS = 2
#: Sessions, split evenly over the connections; 32 per connection is
#: the server's default in-flight limit per connection.
SESSIONS = 64
#: Offered rate of the paced phase, steps/s: an absolute constant,
#: about a quarter of the in-process server's capacity on the
#: reference box; never derived from the run's own measurements.
PACED_RATE = 500.0
#: Latency limit of the paced phase (from due time to reply).
LATENCY_LIMIT_MS = 25.0
#: Length of one saturate + paced block; ``--seconds`` is split into
#: ``round(seconds / BLOCK_S)`` blocks (at least one).
BLOCK_S = 5.0
#: Share of each block spent in the saturate phase; the rest is paced.
SATURATE_SHARE = 0.4
#: Percentile over blocks that each timing metric reports: the first
#: quartile of the blocks' latencies (the third of their throughputs).
#: A stalled virtual CPU only ever adds latency, and on a shared host
#: such stalls of several ms come and go over seconds, so the median
#: block still moves with them while the best quarter does not.  A
#: change that slows every request moves the best quarter as much as
#: the median.
BEST_QUARTER = 25
#: Micro-batching window of the served workload (the production setting).
BATCH_WINDOW_MS = 2.0
#: The first UTILITY_STEPS steps of every session feed the utility
#: metrics: a seed-only set, so a bit-identical change leaves them equal.
UTILITY_STEPS = 150
#: In the traced run, the stats op is polled this often for spans.
SPAN_POLL_S = 0.1
SPAN_RING = 512

#: Server set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Latency of a failed, shed or unsent paced request: it misses any limit.
MISS = float("inf")

SERVER_START_TIMEOUT_S = 120.0
REPLY_TIMEOUT_S = 30.0


class Connection:
    """One pipelined JSONL connection; replies matched by request id."""

    def __init__(self, reader, writer):
        self._reader = reader
        self._writer = writer
        self._pending: dict[int, asyncio.Future] = {}
        self._next = 0
        self._task = asyncio.get_running_loop().create_task(self._read())

    async def _read(self) -> None:
        clock = time.perf_counter
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                reply = json.loads(line)
                future = self._pending.pop(reply.get("id"), None)
                if future is not None and not future.done():
                    future.set_result((reply, clock()))
        finally:
            error = ConnectionError("server closed the connection")
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(error)
            self._pending.clear()

    def send(self, op: str, **fields) -> asyncio.Future:
        """Write one request; the future resolves to (reply, received_at)."""
        self._next += 1
        request_id = self._next
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        frame = {"v": 1, "id": request_id, "op": op, **fields}
        self._writer.write(json.dumps(frame, separators=(",", ":")).encode() + b"\n")
        return future

    async def call(self, op: str, **fields) -> dict:
        reply, _ = await asyncio.wait_for(self.send(op, **fields), REPLY_TIMEOUT_S)
        return reply

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except ConnectionError:
            pass
        self._task.cancel()
        try:
            await self._task
        except (asyncio.CancelledError, ConnectionError):
            pass


class Server:
    """One ``repro serve`` child process and its connections."""

    def __init__(self, horizon: int, log_path):
        self.horizon = horizon
        self.log_path = log_path
        self.proc: asyncio.subprocess.Process | None = None
        self.conns: list[Connection] = []

    async def start(self) -> None:
        command = [
            sys.executable, "-m", "repro.cli", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--batch-window-ms", str(BATCH_WINDOW_MS),
            *common.served_flags(self.horizon),
        ]
        self._log = open(self.log_path, "ab")
        self.proc = await asyncio.create_subprocess_exec(
            *command,
            stdout=subprocess.PIPE,
            stderr=self._log,
            cwd=str(common.ROOT),
        )
        line = await asyncio.wait_for(
            self.proc.stdout.readline(), SERVER_START_TIMEOUT_S
        )
        announce = json.loads(line)
        if announce.get("op") != "serving":
            raise RuntimeError(f"unexpected server announcement: {announce}")
        for _ in range(CONNECTIONS):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", announce["port"], limit=1 << 22
            )
            self.conns.append(Connection(reader, writer))

    def cpu(self) -> float:
        """CPU seconds of the server process."""
        return common.cpu_seconds(self.proc.pid)

    def peak_rss_mb(self) -> float:
        return common.peak_rss_mb(self.proc.pid)

    async def stop(self) -> None:
        """Drain the server (SIGTERM) and wait until it has exited."""
        for conn in self.conns:
            await conn.close()
        self.conns = []
        if self.proc is None:
            return
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                await asyncio.wait_for(self.proc.communicate(), 60)
            except asyncio.TimeoutError:
                self.proc.kill()
                await self.proc.wait()
        self._log.close()


# ----------------------------------------------------------------------
# the load generator
# ----------------------------------------------------------------------
class Fleet:
    """The sessions' inputs and every reply they got, in order."""

    def __init__(self, cells, seeds):
        self.cells = cells
        self.seeds = seeds
        self.names = [f"s{i}" for i in range(len(cells))]
        self.records: list[list[dict]] = [[] for _ in cells]
        self.busy = [False] * len(cells)
        self.failed = 0
        self.errors: list[str] = []

    def conn_of(self, server: Server, index: int) -> Connection:
        return server.conns[index % CONNECTIONS]

    def step(self, server: Server, index: int) -> asyncio.Future:
        t = len(self.records[index])
        self.busy[index] = True
        return self.conn_of(server, index).send(
            "step", session=self.names[index], cell=self.cells[index][t]
        )

    def settle(self, index: int, reply: dict) -> bool:
        self.busy[index] = False
        if not reply.get("ok"):
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(json.dumps(reply.get("error")))
            return False
        reply.pop("v", None)
        reply.pop("id", None)
        reply.pop("ok", None)
        reply.pop("op", None)
        self.records[index].append(reply)
        return True


async def set_up(server: Server, fleet: Fleet) -> float:
    """Spawn, open every session, answer one warm-up step each."""
    started = time.perf_counter()
    await server.start()
    opens = [
        fleet.conn_of(server, i).send("open", session=name, seed=fleet.seeds[i])
        for i, name in enumerate(fleet.names)
    ]
    for reply, _ in await asyncio.wait_for(asyncio.gather(*opens), REPLY_TIMEOUT_S):
        if not reply.get("ok"):
            raise RuntimeError(f"open failed: {reply}")
    warm = [fleet.step(server, i) for i in range(len(fleet.names))]
    replies = await asyncio.wait_for(asyncio.gather(*warm), REPLY_TIMEOUT_S)
    for i, (reply, _) in enumerate(replies):
        fleet.settle(i, reply)
    return time.perf_counter() - started


async def saturate(server: Server, fleet: Fleet, seconds: float) -> dict:
    """Closed loop: every session keeps exactly one step in flight."""
    end = None
    done = 0
    limit = server.horizon - 1

    async def client(index: int) -> None:
        nonlocal done
        while time.perf_counter() < end and len(fleet.records[index]) < limit:
            reply, received = await asyncio.wait_for(
                fleet.step(server, index), REPLY_TIMEOUT_S
            )
            if fleet.settle(index, reply) and received <= end:
                done += 1

    cpu0, cpu_started = server.cpu(), time.process_time()
    started = time.perf_counter()
    end = started + seconds
    await asyncio.gather(*(client(i) for i in range(len(fleet.names))))
    wall = time.perf_counter() - started
    cpu1 = server.cpu()
    return {
        "seconds": seconds,
        "steps": done,
        "throughput": done / seconds,
        "wall_s": wall,
        "server_cpu_s": cpu1 - cpu0,
        "loadgen_cpu_s": time.process_time() - cpu_started,
    }


async def paced(server: Server, fleet: Fleet, seconds: float, rng,
                spans: list | None) -> dict:
    """Open loop: Poisson arrivals at PACED_RATE, timed from due time."""
    loop = asyncio.get_running_loop()
    gaps = rng.exponential(1.0 / PACED_RATE, size=int(PACED_RATE * seconds * 2) + 16)
    # ms from due time to reply; a failed, shed or unsent request is a
    # miss with infinite latency.
    latencies: list[float] = []
    sent_latency: list[float] = []  # ms from send to reply
    lateness: list[float] = []  # ms the generator sent after due time
    outstanding: set[asyncio.Future] = set()
    cursor = 0
    n = len(fleet.names)
    limit = server.horizon - 1

    def on_reply(index: int, due: float, sent: float, future) -> None:
        outstanding.discard(future)
        try:
            reply, received = future.result()
        except Exception as error:  # noqa: BLE001 - a lost reply is a miss
            fleet.busy[index] = False
            fleet.failed += 1
            fleet.errors.append(repr(error))
            latencies.append(MISS)
            return
        if fleet.settle(index, reply):
            latencies.append((received - due) * 1e3)
            sent_latency.append((received - sent) * 1e3)
        else:
            latencies.append(MISS)

    poller = None
    stop_polling = asyncio.Event()
    if spans is not None:
        poller = loop.create_task(_poll_spans(server, spans, stop_polling))
    started_unix = time.time()
    started = time.perf_counter()
    due = started
    for gap in gaps:
        due += gap
        if due - started >= seconds:
            break
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        for probe in range(n):
            index = (cursor + probe) % n
            if not fleet.busy[index] and len(fleet.records[index]) < limit:
                break
        else:
            fleet.failed += 1
            latencies.append(MISS)
            continue
        cursor = index + 1
        now = time.perf_counter()
        lateness.append((now - due) * 1e3)
        future = fleet.step(server, index)
        outstanding.add(future)
        future.add_done_callback(
            lambda f, i=index, d=due, s=now: on_reply(i, d, s, f)
        )
    if outstanding:
        await asyncio.wait(list(outstanding), timeout=REPLY_TIMEOUT_S)
    for _ in list(outstanding):
        fleet.failed += 1
        latencies.append(MISS)
    if poller is not None:
        stop_polling.set()
        await poller
    return {
        "seconds": seconds,
        "started_unix": started_unix,
        "ended_unix": time.time(),
        "requests": len(latencies),
        "latency_ms": latencies,
        "sent_latency_ms": sent_latency,
        "late_ms": lateness,
    }


async def _poll_spans(server: Server, sink: list, stop: asyncio.Event) -> None:
    """Collect the server's own spans through the stats op (traced run).

    Returns after the first poll that starts once ``stop`` is set.  It is
    stopped by a flag, not by cancelling the task: before Python 3.12,
    ``asyncio.wait_for`` can swallow a cancel that races its reply.
    """
    seen: set[str] = set()
    while True:
        final = stop.is_set()
        reply = await server.conns[0].call("stats", spans=SPAN_RING)
        for span in reply.get("spans", {}).get("recent", []):
            if span["span"] not in seen:
                seen.add(span["span"])
                sink.append(span)
        if final:
            return
        try:
            await asyncio.wait_for(stop.wait(), SPAN_POLL_S)
        except asyncio.TimeoutError:
            pass


async def top_up(server: Server, fleet: Fleet) -> None:
    """Untimed: bring every session to UTILITY_STEPS releases."""
    async def client(index: int) -> None:
        while len(fleet.records[index]) < UTILITY_STEPS:
            reply, _ = await asyncio.wait_for(
                fleet.step(server, index), REPLY_TIMEOUT_S
            )
            if not fleet.settle(index, reply):
                return

    await asyncio.gather(*(client(i) for i in range(len(fleet.names))))


def span_means(spans: list, windows: list[tuple[float, float]]) -> dict:
    """Mean of each server span over complete step traces of the phases
    that ran in ``windows`` (unix-time ``(start, end)`` pairs)."""
    traces: dict[str, dict] = {}
    for span in spans:
        start = span.get("start_unix_s", 0)
        if not any(lo <= start <= hi for lo, hi in windows):
            continue
        traces.setdefault(span["trace"], {})[span["name"]] = span["ms"]
    names = ("request", "batch_wait", "solve", "serialize")
    complete = [
        trace for trace in traces.values()
        if all(name in trace for name in names)
    ]
    for trace in complete:
        # Everything inside the request span but outside solve and
        # serialize: the batch window, the executor queue and the
        # event-loop hops on either side of the batched call.
        trace["queue_wait"] = trace["request"] - trace["solve"] - trace["serialize"]
    means = {
        name: (sum(t[name] for t in complete) / len(complete) if complete else 0.0)
        for name in (*names, "queue_wait")
    }
    means["traces"] = len(complete)
    return means


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def horizon_for(seconds: float) -> int:
    """A horizon no session can reach within one run."""
    return int(UTILITY_STEPS + 64 + 150 * seconds)


def replay(spec, fleet: Fleet, recorder=None) -> tuple[float, int, list]:
    """In-process ``step_many`` over the served inputs; (s, steps, records)."""
    from repro.engine import SessionManager

    manager = SessionManager(spec)
    for name, seed in zip(fleet.names, fleet.seeds):
        manager.open(name, rng=seed)
    depth = [len(r) for r in fleet.records]
    out: list[list[dict]] = [[] for _ in fleet.names]
    steps = 0
    started = time.perf_counter()
    for t in range(max(depth)):
        wave = {
            name: fleet.cells[i][t]
            for i, name in enumerate(fleet.names) if depth[i] > t
        }
        if recorder is not None:
            with recorder:
                records = manager.step_many(wave)
        else:
            records = manager.step_many(wave)
        steps += len(wave)
        for i, name in enumerate(fleet.names):
            if name in records:
                out[i].append(records[name].to_json())
    elapsed = time.perf_counter() - started
    return elapsed, steps, out


async def run_served(seed: int, seconds: float, trace: bool, name: str) -> dict:
    import numpy as np

    import layers

    horizon = horizon_for(seconds)
    spec = common.served_spec(horizon)
    compiled = spec.compile()
    root = np.random.SeedSequence(seed)
    inputs_rng, arrivals_rng = (np.random.default_rng(s) for s in root.spawn(2))
    cells = common.trajectories(compiled, SESSIONS, horizon, inputs_rng)
    seeds = [int(s) for s in inputs_rng.integers(0, 2**62, size=SESSIONS)]

    common.OUT.mkdir(parents=True, exist_ok=True)
    log_path = common.OUT / f"{name}-seed{seed}-server.log"
    setups = []
    server = fleet = None
    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                await server.stop()
            server = Server(horizon, log_path)
            fleet = Fleet(cells, seeds)
            setups.append(await set_up(server, fleet))

        stats0 = await server.conns[0].call("stats")
        kernel = stats0["solver"]["kernel"]["kernel"]
        blocks = max(1, round(seconds / BLOCK_S))
        block_s = seconds / blocks
        sats, paces = [], []
        batches = batched = 0
        spans = [] if trace else None
        # The generator's own cyclic garbage collector would pause its
        # loop and show up as server latency; it is off while measuring.
        gc.collect()
        gc.disable()
        try:
            for _ in range(blocks):
                before = (await server.conns[0].call("stats"))["batching"]
                sats.append(await saturate(server, fleet, block_s * SATURATE_SHARE))
                after = (await server.conns[0].call("stats"))["batching"]
                batches += after["batches"] - before["batches"]
                batched += after["steps"] - before["steps"]
                await asyncio.sleep(0.2)
                paces.append(await paced(
                    server, fleet, block_s * (1 - SATURATE_SHARE),
                    arrivals_rng, spans,
                ))
        finally:
            gc.enable()
        await top_up(server, fleet)
        stats2 = await server.conns[0].call("stats")
        peak_rss = server.peak_rss_mb()
    finally:
        if server is not None:
            await server.stop()

    problems = [f"server error reply: {e}" for e in fleet.errors]
    expected = [list(range(1, len(r) + 1)) for r in fleet.records]
    if [[rec["t"] for rec in r] for r in fleet.records] != expected:
        problems.append("served timestamps are not consecutive per session")

    # Gate: served streams == in-process step_many streams.
    replay_s, replay_steps, local = replay(spec, fleet)
    mismatched = sum(
        [common.strip_record(r) for r in served]
        != [common.strip_record(r) for r in mine]
        for served, mine in zip(fleet.records, local)
    )
    if mismatched:
        problems.append(f"{mismatched} served streams differ from step_many")

    utility = [r for recs in fleet.records for r in recs[:UTILITY_STEPS]]
    latencies = [x for pace in paces for x in pace["latency_ms"]]
    sent_latencies = [x for pace in paces for x in pace["sent_latency_ms"]]
    late_p99 = common.percentile([x for pace in paces for x in pace["late_ms"]], 99)
    block_p50 = [common.percentile(pace["latency_ms"], 50) for pace in paces]
    block_p75 = [common.percentile(pace["latency_ms"], 75) for pace in paces]
    sat_steps = sum(sat["steps"] for sat in sats)
    sat_wall = sum(sat["wall_s"] for sat in sats)
    sat_cpu = sum(sat["server_cpu_s"] for sat in sats)
    loadgen_cpu = sum(sat["loadgen_cpu_s"] for sat in sats)
    if late_p99 > LATENCY_LIMIT_MS:
        problems.append(
            f"invalid paced run: the generator ran {late_p99:.1f} ms late at "
            f"p99, past the {LATENCY_LIMIT_MS} ms limit"
        )
    shed_total = sum(stats2["shed"].values())
    result = {
        "setup_s": common.median(setups),
        "setups_s": setups,
        "kernel": kernel,
        "blocks": blocks,
        "saturate": sats,
        "throughput": common.percentile(
            [sat["throughput"] for sat in sats], 100 - BEST_QUARTER
        ),
        "p50_ms": common.percentile(block_p50, BEST_QUARTER),
        "p75_ms": common.percentile(block_p75, BEST_QUARTER),
        "block_p50_ms": block_p50,
        "block_p75_ms": block_p75,
        "latency_ms": common.percentile_table(latencies),
        "slo": sum(x <= LATENCY_LIMIT_MS for x in latencies) / len(latencies),
        "paced_requests": len(latencies),
        "late_p99_ms": late_p99,
        "peak_rss_mb": peak_rss,
        "error_km": compiled.grid.trajectory_error_km(
            [r["true_cell"] for r in utility], [r["released_cell"] for r in utility]
        ),
        "budget": sum(r["budget"] for r in utility) / len(utility),
        "steps": sum(len(r) for r in fleet.records),
        "failed": fleet.failed + mismatched,
        "shed_total": shed_total,
        "replay": {"seconds": replay_s, "steps": replay_steps,
                   "throughput": replay_steps / replay_s},
        "problems": problems,
    }
    if trace:
        means = span_means(
            spans, [(pace["started_unix"], pace["ended_unix"]) for pace in paces]
        )
        client_ms = sum(sent_latencies) / max(len(sent_latencies), 1)
        wire = client_ms - means["request"]
        recorder = layers.SpanRecorder()
        traced_s, traced_steps, _ = replay(spec, fleet, recorder)
        engine_metrics, closure = layers.engine_layer_metrics(
            recorder, traced_steps, SESSIONS,
            sum(r["n_attempts"] for recs in fleet.records for r in recs),
        )
        service = {
            "trace.overhead_ratio": (replay_s / traced_s, "ratio"),
            "service.request_ms": (means["request"], "ms"),
            "service.queue_wait_ms": (means["queue_wait"], "ms"),
            "service.batch_wait_ms": (means["batch_wait"], "ms"),
            "service.solve_ms": (means["solve"], "ms"),
            "service.serialize_ms": (means["serialize"], "ms"),
            "service.wire_ms": (wire, "ms"),
            "service.batch_mean_size": (batched / max(batches, 1), "count"),
            "service.cpu_ms_per_step": (sat_cpu * 1e3 / max(sat_steps, 1), "ms"),
            "service.marginal_ms_per_step": (
                1e3 / result["throughput"] - 1e3 * replay_s / replay_steps, "ms"
            ),
            "service.shed_total": (shed_total, "count"),
            "loadgen.late_p99_ms": (late_p99, "ms"),
            "loadgen.cpu_share": (loadgen_cpu / sat_wall, "ratio"),
        }
        parts = means["queue_wait"] + means["solve"] + means["serialize"] + wire
        result["layers"] = {**engine_metrics, **service}
        result["closure"] = {
            "engine": closure,
            "service": {
                "client_ms": client_ms,
                "parts_ms": parts,
                "ratio": parts / client_ms if client_ms else 0.0,
                "span_traces": means["traces"],
            },
        }
        result["spans"] = {"server": spans, "engine_replay": recorder.as_json()}
    return result
