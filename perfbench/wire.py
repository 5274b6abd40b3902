"""Wire workload: ``repro-serve`` in its own process, an open-loop sender here.

The sender is one asyncio thread with at most ``nproc`` connections
(JSON-lines framing, requests pipelined).  Requests are scheduled before
they are sent; every latency is measured from when the request was *due*,
so a stalled server also delays the requests queued behind the stall
(no coordinated omission), and the sender reports how late it ran.

A query is the built-in read-mostly template's statement: a ``query``
op inlining the template's page size, then ``fetch`` ops until the
LIMIT is reached (or the cursor runs dry), then ``close`` if the cursor
is still open.  TTF is the arrival of the first row (or of the answer,
for an empty result); TT(k) the arrival of the k-th row.

Unlike the library workloads' times, these are reported as measured:
``common.speed_probe_ms`` does not follow them (see
``perfbench/design.json``).
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import random
import select
import selectors
import signal
import subprocess
import sys
import time

from common import (DESIGN, HERE, OUT, ROOT, child_environment, median,
                    peak_rss_mb, percentile, tail_percentile)

_clock = time.perf_counter


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
class Server:
    """One ``repro-serve --gen`` process on an ephemeral port."""

    def __init__(self, dataset: str, spans_out: str | None = None) -> None:
        serve = ["--gen", dataset, "--port", "0"]
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro.server.cli", *serve]
        else:
            cmd = [sys.executable, str(HERE / "serve_traced.py"),
                   "--spans-out", spans_out, "--", *serve]
        self.proc = subprocess.Popen(
            cmd, cwd=str(ROOT), env=child_environment(),
            stdout=subprocess.PIPE, bufsize=0)
        self.port = self._await_listening(timeout=60.0)

    def _await_listening(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        seen = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.5)
            if not ready:
                if self.proc.poll() is not None:
                    break
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                break
            seen += chunk
            for line in seen.decode(errors="replace").splitlines():
                if "listening on" in line:
                    return int(line.rsplit(":", 1)[1])
        self.stop()
        raise RuntimeError("repro-serve did not start listening")

    def signal(self, signum: int) -> None:
        self.proc.send_signal(signum)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(str(self.proc.pid))

    def stop(self) -> None:
        if self.proc.returncode is not None:
            return
        if self.proc.poll() is None:
            # SIGTERM, not SIGINT: a child of a background job inherits
            # SIGINT ignored.  The traced launcher turns it into a clean
            # shutdown that writes its spans.
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


# ----------------------------------------------------------------------
# The client side
# ----------------------------------------------------------------------
class Connection:
    """One pipelined JSON-lines connection; responses matched by id."""

    def __init__(self) -> None:
        self.pending: dict = {}
        self.reader = self.writer = self._task = None

    async def open(self, port: int) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=1 << 24)
        self._task = asyncio.get_running_loop().create_task(self._read())

    async def _read(self) -> None:
        while True:
            line = await self.reader.readline()
            if not line:
                break
            received = _clock()
            message = json.loads(line)
            future = self.pending.pop(message.get("id"), None)
            if future is not None and not future.done():
                future.set_result((message, received, len(line)))
        for future in self.pending.values():
            if not future.done():
                future.set_exception(ConnectionError("server closed"))

    def request(self, message: dict):
        """Send now; returns (future of (response, received_at, bytes), sent_at)."""
        future = asyncio.get_running_loop().create_future()
        self.pending[message["id"]] = future
        sent = _clock()
        self.writer.write((json.dumps(message) + "\n").encode())
        return future, sent

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass
        if self._task is not None:
            await self._task


def run_async(coro):
    """Run ``coro`` on a select()-based loop: its timeouts have microsecond
    resolution, where epoll's round up to whole milliseconds and would
    make every send up to 1 ms late."""
    factory = lambda: asyncio.SelectorEventLoop(selectors.SelectSelector())  # noqa: E731
    with asyncio.Runner(loop_factory=factory) as runner:
        return runner.run(coro)


def read_mostly():
    """The built-in scenario whose templates and mutation mix are sent."""
    from repro.workload.scenarios import SCENARIOS

    return SCENARIOS[DESIGN["workloads"]["wire-read-mostly"]["scenario"]]


def draw_query(scenario, popularity, rng, cache) -> tuple[str, int, int]:
    """(sql, k, page size) of one read, as the scenario's templates draw it."""
    template = scenario.templates[popularity.draw(rng)]
    values = {name: spec.draw(rng, cache) for name, spec in template.params}
    return template.sql.format(**values), values["k"], template.batch


def draw_mutation(scenario, rng, cache) -> str:
    weights = [m.weight for m in scenario.mutations]
    template = rng.choices(scenario.mutations, weights=weights)[0]
    return template.instantiate(rng, cache)


def phase_schedule(seed: int, label: str, rate: float, duration: float,
                   mutation_rate: float) -> list[tuple[float, str, tuple]]:
    """Sorted ``(offset_s, kind, payload)`` for one phase.

    Poisson arrivals conditioned on their count: ``round(rate*duration)``
    reads at sorted uniform offsets, so every run of a step offers exactly
    its nominal rate.  Payloads are a pure function of (seed, label).
    """
    from repro.workload.sampling import make_sampler

    scenario = read_mostly()
    rng = random.Random(f"{seed}/wire/{label}")
    cache: dict = {}
    popularity = make_sampler(scenario.popularity, len(scenario.templates))
    events = []
    for _ in range(max(1, round(rate * duration))):
        events.append((rng.uniform(0.0, duration), "query",
                       draw_query(scenario, popularity, rng, cache)))
    mut_rng = random.Random(f"{seed}/wire/{label}/mutations")
    for _ in range(round(mutation_rate * duration)):
        events.append((mut_rng.uniform(0.0, duration), "mutate",
                       (draw_mutation(scenario, mut_rng, cache),)))
    events.sort(key=lambda event: event[0])
    return events


class Sender:
    """Runs phases against one server; keeps every record in memory.

    Reads alternate over every connection; writes ride the last one.
    The server's accepted sockets run without TCP_NODELAY, so a response
    written while the previous one on its socket is unacknowledged waits
    for the client's delayed ACK (~40 ms).  With every read on one socket,
    a third of the TT(k) samples carried that stall and the TT(k) median
    sat on the edge between the two modes (its spread over ten seeds was
    0.39); spreading reads over the allowed connections halves the
    overlap per socket, as many independent clients would.  The stall
    still shows in every tail.
    """

    def __init__(self, connections: list, sample_every: int,
                 max_inflight: int = 32) -> None:
        self.connections = connections
        self.sample_every = sample_every
        # Reads in flight at once, below the server's default cursor
        # limit (64): past the knee, reads queue here, and the wait counts
        # in their latency (timed from when they were due) instead of
        # coming back refused with cursor_limit.
        self._slots = asyncio.Semaphore(max_inflight)
        # Writes go one at a time, each sent once the previous one is
        # acknowledged (a writer thread's pattern, like the mutation lane
        # of repro.workload.driver), still timed from when they were due.
        self._write_lane = asyncio.Lock()
        self.reads_sent = 0
        self.next_id = 0
        self.mutation_log: list[tuple[int, str]] = []
        self.samples: list = []
        self.errors: list[str] = []

    async def _call(self, conn, rid, message, rec):
        message["id"] = rid
        future, sent = conn.request(message)
        response, received, size = await future
        rec["rtts"][rid] = received - sent
        rec["bytes"] += size
        return response, received

    def new_id(self, prefix: str) -> str:
        self.next_id += 1
        return f"{prefix}{self.next_id}"

    async def query(self, conn, rid, sql, k, page, due, sample: bool) -> dict:
        async with self._slots:
            return await self._query(conn, rid, sql, k, page, due, sample)

    async def _query(self, conn, rid, sql, k, page, due, sample: bool) -> dict:
        from repro.workload.validate import SampledPage, normalize_page

        rec = {"rid": rid, "kind": "query", "due": due, "sql": sql, "k": k,
               "rtts": {}, "bytes": 0, "rows": 0, "ok": False}
        try:
            response, received = await self._call(
                conn, rid, {"op": "query", "sql": sql, "fetch": page}, rec)
            round_trip = 0
            while True:
                if not response.get("ok"):
                    code = response.get("error", {}).get("code")
                    self.errors.append(f"{rid} ({sql!r}): {code}")
                    rec["error"] = code
                    return rec
                rows = response["rows"]
                if "version" in response:
                    version, cursor = response["version"], response["cursor"]
                    rec["engine"] = response.get("engine")
                if rows and "first" not in rec:
                    rec["first"] = received
                if sample and rows:
                    self.samples.append(SampledPage(
                        sql=sql, version=version, offset=rec["rows"],
                        rows=normalize_page(rows)))
                rec["rows"] += len(rows)
                rec["mem_peak"] = response.get("mem", {}).get("peak_bytes", 0)
                done = response["done"]
                if done or rec["rows"] >= k:
                    rec["last"] = received
                    rec.setdefault("first", received)
                    break
                round_trip += 1
                response, received = await self._call(
                    conn, f"{rid}.f{round_trip}",
                    {"op": "fetch", "cursor": cursor, "n": page}, rec)
            if not done:
                response, _ = await self._call(
                    conn, f"{rid}.c", {"op": "close", "cursor": cursor}, rec)
                if not response.get("ok"):
                    self.errors.append(f"{rid}.c: close refused")
                    return rec
            rec["ok"] = True
        except ConnectionError as exc:
            self.errors.append(f"{rid}: {exc}")
        return rec

    async def mutate(self, conn, rid, sql, due) -> dict:
        rec = {"rid": rid, "kind": "mutate", "due": due, "rtts": {},
               "bytes": 0, "ok": False}
        try:
            async with self._write_lane:
                response, received = await self._call(
                    conn, rid, {"op": "mutate", "sql": sql}, rec)
        except ConnectionError as exc:
            self.errors.append(f"{rid}: {exc}")
            return rec
        if response.get("ok"):
            self.mutation_log.append((response["version"], sql))
            rec["ok"] = True
            rec["last"] = received
        else:
            self.errors.append(f"{rid} ({sql!r}): "
                               f"{response.get('error', {}).get('code')}")
        return rec

    async def run_phase(self, events, sample: bool = True) -> dict:
        """Send ``events`` on schedule; wait for every answer."""
        loop = asyncio.get_running_loop()
        start = _clock() + 0.01
        tasks, late = [], []
        for offset, kind, payload in events:
            due = start + offset
            delay = due - _clock()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append((_clock() - due) * 1000.0)
            if kind == "query":
                sql, k, page = payload
                rid = self.new_id("q")
                take = sample and self.next_id % self.sample_every == 0
                conn = self.connections[self.reads_sent % len(self.connections)]
                self.reads_sent += 1
                coro = self.query(conn, rid, sql, k, page, due, take)
            else:
                coro = self.mutate(self.connections[-1], self.new_id("m"),
                                   payload[0], due)
            tasks.append(loop.create_task(coro))
        records = await asyncio.gather(*tasks)
        return {"start": start, "records": records, "late_ms": late}


# ----------------------------------------------------------------------
# Phase summaries
# ----------------------------------------------------------------------
def summarize(phase: dict, tail_p: float) -> dict:
    queries = [r for r in phase["records"] if r["kind"] == "query"]
    mutations = [r for r in phase["records"] if r["kind"] == "mutate"]
    ok = [r for r in queries if r["ok"]]
    ttf = [(r["first"] - r["due"]) * 1000.0 for r in ok]
    ttk = [(r["last"] - r["due"]) * 1000.0 for r in ok]
    # For the SLO, a failed or refused request misses every latency limit.
    missed = [float("inf")] * (len(queries) - len(ok))
    last_due = max(r["due"] for r in queries)
    last_done = max((r["last"] for r in ok), default=float("inf"))
    span = last_done - phase["start"]
    return {
        "ttf": ttf, "ttk": ttk,
        "ttf_tail": percentile(ttf + missed, tail_p),
        "scheduled_qps": len(queries) / (last_due - phase["start"]),
        "achieved_qps": len(ok) / span,
        "results_per_s": sum(r["rows"] for r in ok) / span,
        "mutate": [(r["last"] - r["due"]) * 1000.0 for r in mutations
                   if r["ok"]],
        "late_p90": percentile(phase["late_ms"], 90.0),
        "late_p99": percentile(phase["late_ms"], 99.0),
        "attempted": len(queries) + len(mutations),
        "failed": sum(not r["ok"] for r in phase["records"]),
    }


def step_passes(summary: dict, spec: dict, base_late_ms: float) -> bool:
    """The SLO: TTF tail within the limit and no growing backlog (the
    achieved rate keeps up, the generator's p90 lateness does not rise by
    more than ``max_late_rise_ms`` over the nominal step's; p90, not p99,
    because p99 of a step's few hundred sends rests on its 2-4 latest)."""
    return (summary["ttf_tail"] <= spec["ttf_limit_ms"]
            and summary["achieved_qps"]
            >= spec["min_achieved_share"] * summary["scheduled_qps"]
            and summary["late_p90"] <= base_late_ms + spec["max_late_rise_ms"])


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def _first_answer(port: int, sql: str) -> None:
    """One blocking query round trip (set-up's 'first answered query')."""
    import socket

    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall((json.dumps({"id": 0, "op": "query", "sql": sql,
                                  "fetch": 1}) + "\n").encode())
        buffer = b""
        while not buffer.endswith(b"\n"):
            chunk = sock.recv(65536)
            if not chunk:
                raise RuntimeError("server closed during set-up")
            buffer += chunk
    response = json.loads(buffer)
    if not response.get("ok") or not response["rows"]:
        raise RuntimeError(f"set-up query failed: {response}")


def setup_servers(spec: dict, spans_out=None):
    """Start the server ``setups`` times, each timed from its spawn to its
    first answer; keep the last one running."""
    scenario = read_mostly()
    warm_sql = scenario.templates[0].sql.format(k=5)
    setups = []
    server = None
    for attempt in range(spec["setups"]):
        if server is not None:
            server.stop()
        traced_here = spans_out if attempt == spec["setups"] - 1 else None
        started = _clock()
        server = Server(spec["dataset"], spans_out=traced_here)
        _first_answer(server.port, warm_sql)
        setups.append(_clock() - started)
    return server, setups


async def _connect(port: int) -> list:
    conns = []
    for _ in range(max(1, min(2, os.cpu_count() or 1))):
        conn = Connection()
        await conn.open(port)
        conns.append(conn)
    return conns


async def _stats(conn) -> dict:
    future, _ = conn.request({"id": "stats", "op": "stats"})
    response, _, _ = await future
    return response


def verify(spec: dict, sender: Sender) -> list[str]:
    """Replay sampled pages against serial recomputes (wire correctness)."""
    from repro.server.cli import parse_generator_spec
    from repro.workload.validate import verify_samples

    result = verify_samples(lambda: parse_generator_spec(spec["dataset"]),
                            sender.mutation_log, sender.samples)
    failures = []
    for m in result.mismatches:
        for sample in sender.samples:
            if (sample.sql, sample.version, sample.offset) == (
                    m.sql, m.version, m.offset):
                versions = matching_versions(spec, sender.mutation_log, sample)
                if m.version not in versions:
                    break
        failures.append(f"sampled page {m.sql!r} @version {m.version} offset "
                        f"{m.offset}: {m.detail}; the observed rows equal the "
                        f"recompute at versions {_spans(versions)} of "
                        f"1..{m.version}")
    if result.checked == 0:
        failures.append("no sampled page could be verified")
    if result.unverifiable:
        failures.append(f"{result.unverifiable} sampled pages unverifiable "
                        "(gap in the mutation log)")
    return failures


def matching_versions(spec: dict, mutation_log, sample) -> list[int]:
    """The versions, up to the one the server named, whose serial recompute
    gives the page the server sent: a page equal to an older version's
    recompute was read from a stale snapshot or plan."""
    import repro.sql
    from repro.dynamic import VersionedDatabase
    from repro.server.cli import parse_generator_spec
    from repro.workload.validate import normalize_page

    shadow = VersionedDatabase(parse_generator_spec(spec["dataset"]),
                               copy=False)
    pending = iter(sorted(mutation_log))
    found = []
    while True:
        page = normalize_page(
            repro.sql.query(shadow.snapshot(), sample.sql).fetchall())
        if page[sample.offset:sample.offset + len(sample.rows)] == sample.rows:
            found.append(shadow.version)
        version, sql = next(pending, (None, None))
        if version != shadow.version + 1 or version > sample.version:
            return found
        repro.sql.mutate(shadow, sql)


def _spans(versions: list[int]) -> str:
    """``[1, 2, 3, 7]`` -> ``'1-3, 7'``."""
    runs: list[list[int]] = []
    for version in versions:
        if runs and runs[-1][1] == version - 1:
            runs[-1][1] = version
        else:
            runs.append([version, version])
    return ", ".join(f"{a}-{b}" if a != b else str(a) for a, b in runs) or "none"


def run(name: str, seed: int, seconds: float,
        trace: bool) -> tuple[dict, dict, list[str]]:
    spec = DESIGN["workloads"][name]
    spans_out = None
    if trace:
        OUT.mkdir(exist_ok=True)
        spans_out = str(OUT / f"{name}-seed{seed}-server-spans.json")
    server, setups = setup_servers(spec, spans_out)
    try:
        if trace:
            return _run_traced(name, spec, seed, seconds, server, spans_out)
        # The sender's own collector pauses would land in the latencies
        # it measures; the program under test keeps its GC.
        gc.disable()
        try:
            values, context, failures = run_async(
                _run_timed(spec, seed, seconds, server))
        finally:
            gc.enable()
        values["setup_s"] = median(setups)
        values["peak_rss_mb"] = server.peak_rss_mb()
        context["setups_s"] = [round(s, 4) for s in setups]
        return values, context, failures
    finally:
        server.stop()


async def _run_timed(spec, seed, seconds, server):
    conns = await _connect(server.port)
    sender = Sender(conns, spec["sample_every"], spec["max_inflight"])
    nominal = spec["nominal_qps"]
    mut_rate = spec["mutation_rate"]
    await sender.run_phase(phase_schedule(seed, "warmup", nominal,
                                          spec["warmup_s"], 0.0), sample=False)
    tail_p = tail_percentile(round(nominal * seconds))
    mut_tail_p = tail_percentile(round(mut_rate * seconds))
    phase = await sender.run_phase(phase_schedule(
        seed, "nominal", nominal, seconds, mut_rate))
    head = summarize(phase, tail_p)
    attempted, failed = head["attempted"], head["failed"]
    # The nominal step is the ladder's first; if it misses, no rate meets
    # the SLO and the climb is skipped.
    nominal_passed = step_passes(head, spec, head["late_p90"])

    ladder: list[dict] = []

    async def step_passes_at(rate: float, step_s: float) -> tuple[bool, float]:
        """Measure one ladder step; a miss is measured once more before it
        counts, so a single transient stall does not decide the knee."""
        nonlocal attempted, failed
        # A step's read count is fixed by its rate and length, so is its tail.
        step_tail_p = tail_percentile(round(rate * step_s))
        for attempt in range(2):
            step = summarize(await sender.run_phase(phase_schedule(
                seed, f"step{rate:.1f}.{attempt}", rate, step_s, mut_rate)),
                step_tail_p)
            attempted += step["attempted"]
            failed += step["failed"]
            passed = step_passes(step, spec, head["late_p90"])
            ladder.append({"offered_qps": round(rate, 1),
                           "seconds": step_s,
                           "tail_percentile": step_tail_p,
                           "achieved_qps": round(step["achieved_qps"], 2),
                           "ttf_tail_ms": round(step["ttf_tail"], 3),
                           "late_p90_ms": round(step["late_p90"], 3),
                           "passed": passed})
            await asyncio.sleep(0.2)  # let the server settle between steps
            if passed:
                return True, step["achieved_qps"]
        return False, 0.0

    # The ladder: short coarse steps bracket the knee, then longer ~10%
    # steps climb from the last coarse step that passed up to the first
    # that missed (near the knee a step needs more reads to decide).
    best = head["achieved_qps"] if nominal_passed else 0.0
    floor = nominal
    while nominal_passed and floor * spec["coarse_ratio"] <= spec["max_qps"]:
        passed, achieved = await step_passes_at(floor * spec["coarse_ratio"],
                                                spec["coarse_step_s"])
        if not passed:
            break
        floor *= spec["coarse_ratio"]
        best = achieved
    rate = floor * spec["fine_ratio"]
    while nominal_passed and rate < floor * spec["coarse_ratio"] * 0.99:
        passed, achieved = await step_passes_at(rate, spec["fine_step_s"])
        if not passed:
            break
        best = achieved
        rate *= spec["fine_ratio"]
    for conn in conns:
        await conn.close()

    failures = verify(spec, sender)
    values = {
        "ttf_ms_p50": median(head["ttf"]),
        "ttf_ms_tail": percentile(head["ttf"], tail_p),
        "ttk_ms_p50": median(head["ttk"]),
        "ttk_ms_tail": percentile(head["ttk"], tail_p),
        "results_per_s": head["results_per_s"],
        "queries_per_s": head["achieved_qps"],
        "max_qps_at_slo": best,
        "mutate_ms_p50": median(head["mutate"]),
        "mutate_ms_tail": percentile(head["mutate"], mut_tail_p),
    }
    context = {
        "workload": "wire-read-mostly",
        "attempted": attempted,
        "failed": failed,
        "tail_percentile": tail_p,
        "mutate_tail_percentile": mut_tail_p,
        "nominal_samples": len(head["ttf"]),
        "ladder": ladder,
        "loadgen_late_ms_p90": round(head["late_p90"], 3),
        "loadgen_late_ms_p99": round(head["late_p99"], 3),
        "sampled_pages": len(sender.samples),
        "mutations": len(sender.mutation_log),
        "errors": sender.errors,
    }
    return values, context, failures


def _run_traced(name, spec, seed, seconds, server, spans_out):
    from layers import wire_layer_metrics

    async def drive():
        conns = await _connect(server.port)
        sender = Sender(conns, spec["sample_every"], spec["max_inflight"])
        nominal = spec["nominal_qps"]
        half = seconds / 2.0
        await sender.run_phase(phase_schedule(
            seed, "warmup", nominal, spec["warmup_s"], 0.0), sample=False)
        plain = await sender.run_phase(phase_schedule(
            seed, "untraced", nominal, half, spec["mutation_rate"]))
        server.signal(signal.SIGUSR1)  # tracing on
        await asyncio.sleep(0.3)
        before = await _stats(conns[0])
        traced = await sender.run_phase(phase_schedule(
            seed, "traced", nominal, half, spec["mutation_rate"]))
        after = await _stats(conns[0])
        server.signal(signal.SIGUSR1)  # tracing off
        await asyncio.sleep(0.3)
        for conn in conns:
            await conn.close()
        return sender, plain, traced, before, after

    gc.disable()
    try:
        sender, plain, traced, before, after = run_async(drive())
    finally:
        gc.enable()
    server.stop()
    with open(spans_out, encoding="utf-8") as fh:
        dumped = json.load(fh)
    queries = [r for r in traced["records"] if r["kind"] == "query" and r["ok"]]
    # The client side of the spans: one record per request, its round
    # trips keyed by the protocol ids the server spans carry.
    with open(OUT / f"{name}-seed{seed}-client-spans.json", "w",
              encoding="utf-8") as fh:
        json.dump(traced["records"], fh)

    def ttk_ms(phase):
        return [(r["last"] - r["due"]) * 1000.0 for r in phase["records"]
                if r["kind"] == "query" and r["ok"]]

    snaps = dumped["kernel_stats"]
    values = wire_layer_metrics(
        dumped["spans"], queries, ttk_ms(traced), ttk_ms(plain),
        before, after, snaps[0], snaps[1], traced["late_ms"])
    failures = verify(spec, sender)
    context = {
        "errors": sender.errors,
        "workload": "wire-read-mostly",
        "attempted": sum(len(p["records"]) for p in (plain, traced)),
        "failed": sum(not r["ok"] for p in (plain, traced)
                      for r in p["records"]),
        "traced_queries": len(queries),
        "spans": len(dumped["spans"]),
    }
    return values, context, failures
