"""Library workloads: ``repro.anyk.rank_enumerate(method="auto")`` in process.

One thread, closed loop, GC enabled.  Each request draws its ``k`` from
the workload's band; after each request the benchmark commits one
INSERT and one DELETE of a fresh dangling tuple through
``repro.sql.mutate`` (so the snapshot the next request reads holds the
same rows again), timing the pair from the first call.

Every request and its mutation pair sit between two readings of
``common.speed_probe_ms``; their times are rescaled by the mean of the
two (``common.scaled``).  So does every set-up, each timed in a fresh
interpreter::

    python3 perfbench/libload.py '<instance spec as JSON>' <k>

which generates the instance, answers one warm-up request and prints the
answer's digest.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import subprocess
import sys
import time
from typing import Iterator

from common import (DESIGN, HERE, OUT, ROOT, child_environment, median,
                    peak_rss_mb, percentile, probe_summary, scaled,
                    speed_probe_ms, tail_percentile)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def build_instance(spec: dict):
    """(database, query, mutation target) for a workload's instance spec."""
    from repro.data.database import Database
    from repro.data.generators import path_database, random_graph_database
    from repro.data.relation import Relation
    from repro.query.cq import cycle_query, path_query

    inst = spec["instance"]
    kind = inst["kind"]
    if kind == "path":
        db = path_database(inst["length"], inst["size"], inst["domain"],
                           seed=inst["seed"])
        return db, path_query(inst["length"]), ("R1", "A1", "A2")
    if kind == "path-int-weights":
        rng = random.Random(inst["seed"])
        relations = []
        for i in range(1, inst["length"] + 1):
            rel = Relation(f"R{i}", (f"A{i}", f"A{i + 1}"))
            for _ in range(inst["size"]):
                rel.add((rng.randrange(inst["domain"]),
                         rng.randrange(inst["domain"])),
                        rng.randint(0, inst["max_weight"]))
            relations.append(rel)
        return Database(relations), path_query(inst["length"]), ("R1", "A1", "A2")
    if kind == "graph":
        db = random_graph_database(inst["num_edges"], inst["num_nodes"],
                                   seed=inst["seed"])
        return db, cycle_query(4), ("E", "src", "dst")
    raise ValueError(f"unknown instance kind {kind!r}")


#: k is drawn stratified: every block of this many requests takes one k
#: from each tenth of the band, in shuffled order, so runs of different
#: seeds ask for the same amount of work.
STRATA = 10


def schedule(name: str, seed: int) -> Iterator[tuple[int, int, int]]:
    """Per-request ``(k, mutation partner value, mutation weight)``, a pure
    function of (workload, seed)."""
    spec = DESIGN["workloads"][name]
    lo, hi = spec["k_band"]
    span = hi - lo + 1
    domain = spec["instance"].get("domain", spec["instance"].get("num_nodes"))
    rng = random.Random(f"{seed}/{name}/requests")
    while True:
        strata = list(range(STRATA))
        rng.shuffle(strata)
        for stratum in strata:
            first = lo + stratum * span // STRATA
            last = lo + (stratum + 1) * span // STRATA - 1
            yield rng.randint(first, last), rng.randrange(domain), rng.randint(0, 9)


def digest(rows) -> str:
    return hashlib.sha256(repr(list(rows)).encode()).hexdigest()[:16]


def reference_engine(routed: str) -> str:
    """The engine the router did *not* pick, to referee its output."""
    return "part:lazy" if routed == "rec" else "rec"


# ----------------------------------------------------------------------
# Set-up, in a fresh interpreter
# ----------------------------------------------------------------------
def timed_setup(spec: dict, warm_k: int) -> tuple[float, str]:
    """(seconds from spawning a fresh interpreter until it has generated
    the instance and answered one warm-up request, that answer's digest)."""
    cmd = [sys.executable, str(HERE / "libload.py"),
           json.dumps(spec["instance"]), str(warm_k)]
    started = time.perf_counter()
    child = subprocess.Popen(cmd, cwd=str(ROOT), env=child_environment(),
                             stdout=subprocess.PIPE, text=True)
    answer = child.stdout.readline().strip()
    elapsed = time.perf_counter() - started
    try:
        child.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
    if child.returncode != 0 or not answer:
        raise RuntimeError(f"set-up process exited {child.returncode}")
    return elapsed, answer


def setup_main(instance_json: str, warm_k: str) -> None:
    """The set-up process: generate, answer one warm-up, print its digest."""
    from repro.anyk import rank_enumerate
    from repro.dynamic import VersionedDatabase

    db, query, _ = build_instance({"instance": json.loads(instance_json)})
    versioned = VersionedDatabase(db, copy=False)
    print(digest(rank_enumerate(versioned.snapshot(), query, method="auto",
                                k=int(warm_k))), flush=True)


# ----------------------------------------------------------------------
# Open-loop replay of the measured service times
# ----------------------------------------------------------------------
#: The replay cycles the measured requests this many times, each time in
#: a fresh order with fresh arrival gaps, so its tail rests on many
#: arrival patterns rather than one.
REPLAY_ROUNDS = 25


def replay_stream(ttf_s, service_s, rng) -> list[tuple[float, float, float]]:
    """``(unit gap, ttf, service)`` per replayed request, shuffled rounds."""
    pairs = list(zip(ttf_s, service_s))
    stream = []
    for _ in range(REPLAY_ROUNDS):
        rng.shuffle(pairs)
        stream.extend((rng.expovariate(1.0), ttf, service)
                      for ttf, service in pairs)
    return stream


def replay_tail_ms(stream, rate, p) -> float:
    """TTF tail (from due) of a single-threaded caller fed Poisson
    arrivals at ``rate``, replaying the measured per-request times."""
    due = 0.0
    free_at = 0.0
    waits = []
    for gap, ttf, service in stream:
        due += gap / rate
        start = due if due > free_at else free_at
        free_at = start + service
        waits.append((start - due + ttf) * 1000.0)
    return percentile(waits, p)


def max_rate_at_slo(stream, limit_ms, p) -> float:
    """Highest Poisson rate whose replayed TTF tail meets ``limit_ms``."""
    mean_service = sum(s for _, _, s in stream) / len(stream)
    lo, hi = 0.0, 1.0 / mean_service  # beyond hi the backlog grows
    if replay_tail_ms(stream, hi * 1e-6, p) > limit_ms:
        return 0.0  # even an unloaded caller misses the limit
    for _ in range(30):
        mid = (lo + hi) / 2.0
        if replay_tail_ms(stream, mid, p) <= limit_ms:
            lo = mid
        else:
            hi = mid
    return lo


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def run(name: str, seed: int, seconds: float,
        trace: bool) -> tuple[dict, dict, list[str]]:
    """Returns (metric values, context, failures)."""
    from repro.anyk import rank_enumerate
    from repro.dynamic import VersionedDatabase
    from repro.anyk.kernels import kernel_stats
    from repro.engine.planner import route
    import repro.sql

    spec = DESIGN["workloads"][name]
    failures: list[str] = []
    requests = schedule(name, seed)
    lo, hi = spec["k_band"]

    # -- the instance this process measures on, and its warm-up ----------
    db, query, target = build_instance(spec)
    versioned = VersionedDatabase(db, copy=False)
    warm_k = lo
    warm = list(rank_enumerate(versioned.snapshot(), query, method="auto",
                               k=warm_k))

    routed = {route(db, query, k=k, allow_middleware=False).engine
              for k in (lo, hi)}
    if len(routed) != 1 or "batch" in routed:
        raise RuntimeError(f"{name}: k band routes to {sorted(routed)}; "
                           "the workload must route to one any-k engine")
    engine = routed.pop()
    reference = list(rank_enumerate(db, query, method=reference_engine(engine),
                                    k=hi))
    if len(reference) < hi:
        raise RuntimeError(f"{name}: only {len(reference)} answers < k={hi}")
    if warm != reference[:warm_k]:
        failures.append(f"warm-up request (k={warm_k}) differs from the "
                        f"{reference_engine(engine)} reference")

    # -- setup_s: each set-up in a fresh interpreter, between two probes --
    setups, raw_setups = [], []
    for attempt in range(spec["setups"]):
        before = speed_probe_ms()
        elapsed, answer = timed_setup(spec, warm_k)
        speed = (before + speed_probe_ms()) / 2.0
        if answer != digest(reference[:warm_k]):
            failures.append(f"set-up {attempt}: warm-up answer (k={warm_k}) "
                            f"differs from the {reference_engine(engine)} "
                            "reference")
        setups.append(scaled(elapsed, speed))
        raw_setups.append(elapsed)

    relation, col_a, col_b = target
    recorder = patches = None
    if trace:
        from tracing import Recorder, engine_patches
        from repro.util.counters import Counters

        recorder = Recorder()
        patches = engine_patches(recorder)

    def one_request(k: int, counters=None):
        t0 = time.perf_counter()
        stream = rank_enumerate(versioned.snapshot(), query, method="auto",
                                k=k, counters=counters)
        first = next(stream)
        t1 = time.perf_counter()
        rows = [first]
        rows.extend(stream)
        t2 = time.perf_counter()
        return rows, t1 - t0, t2 - t0

    def one_mutation(sql: str, index: int, kind: str) -> None:
        result = repro.sql.mutate(versioned, sql)
        if result.rows != 1:
            failures.append(f"mutation {index} ({kind}) touched "
                            f"{result.rows} rows, expected 1")

    ttf, ttk, rows_out, mutate = [], [], 0, []
    raw_ttf, raw_ttk, raw_mutate = [], [], []
    traced_ttk, untraced_ttk, traced_rows = [], [], 0
    counters_used = []
    # GC stays on inside each request; collecting before each probe
    # reading, outside the timed region, starts every reading and every
    # request from the same collector state instead of wherever the last
    # request left it.
    gc.collect()
    probes = [speed_probe_ms()]
    attempted = failed = 0
    errors: list[str] = []
    kernels_before = kernel_stats()
    # The traced run needs no tail, only enough pairs for stable shares.
    min_samples = spec["samples"] if not trace else spec["samples"] // 3
    # Run for ``seconds``, longer if the fixed sample count is not reached
    # yet, but never past 1.25 x ``seconds`` (a slow machine then gets a
    # tail resting on fewer samples rather than an overlong run).
    started = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - started
        if elapsed >= 1.25 * seconds or (index >= min_samples
                                      and elapsed >= seconds):
            break
        k, partner, weight = next(requests)
        attempted += 1
        try:
            if trace:
                # Paired arms with the same k: untraced, then traced.
                attempted += 1
                rows, _, total = one_request(k)
                untraced_ttk.append(total)
                if rows != reference[:k]:
                    failures.append(_mismatch(index, k, rows, reference))
                gc.collect()
                counters = Counters()
                patches.install()
                recorder.enabled = True
                recorder.request_id = f"q{index}"
                traced_at = time.perf_counter()
                try:
                    rows = recorder.call(
                        "request", one_request, (k, counters), {})[0]
                finally:
                    traced_ttk.append(time.perf_counter() - traced_at)
                    recorder.enabled = False
                    patches.uninstall()
                traced_rows += len(rows)
                counters_used.append(counters)
            else:
                rows, first_s, total = one_request(k)
        except Exception as exc:  # a failed operation, counted
            failed += 1
            errors.append(f"request {index} (k={k}) raised "
                          f"{type(exc).__name__}: {exc}")
            index += 1
            gc.collect()
            probes.append(speed_probe_ms())
            continue
        if rows != reference[:k]:
            failures.append(_mismatch(index, k, rows, reference))
        fresh = -1 - index
        insert = (f"INSERT INTO {relation} ({col_a}, {col_b}, weight) "
                  f"VALUES ({fresh}, {partner}, {weight})")
        delete = (f"DELETE FROM {relation} WHERE {col_a} = {fresh} "
                  f"AND {col_b} = {partner}")
        # One sample per INSERT+DELETE pair: the DELETE scans the relation
        # for its predicate while the INSERT does not (~12 ms vs ~0.5 ms on
        # path-shallow), so the median of the two kinds mixed fell anywhere
        # in the gap between them.
        pair_started = time.perf_counter()
        pair_ok = True
        for kind, sql in (("insert", insert), ("delete", delete)):
            attempted += 1
            try:
                if trace:
                    patches.install()
                    recorder.enabled = True
                    recorder.request_id = f"m{index}.{kind}"
                    try:
                        one_mutation(sql, index, kind)
                    finally:
                        recorder.enabled = False
                        patches.uninstall()
                else:
                    one_mutation(sql, index, kind)
            except Exception as exc:
                failed += 1
                pair_ok = False
                errors.append(f"mutation {index} ({kind}) raised "
                              f"{type(exc).__name__}: {exc}")
        pair_ms = (time.perf_counter() - pair_started) * 1000.0
        gc.collect()
        probes.append(speed_probe_ms())
        speed = (probes[-2] + probes[-1]) / 2.0
        if not trace:
            ttf.append(scaled(first_s * 1000.0, speed))
            ttk.append(scaled(total * 1000.0, speed))
            raw_ttf.append(first_s * 1000.0)
            raw_ttk.append(total * 1000.0)
            rows_out += len(rows)
            if pair_ok:
                mutate.append(scaled(pair_ms, speed))
                raw_mutate.append(pair_ms)
        index += 1

    context = {
        "workload": name,
        "engine": engine,
        "reference_engine": reference_engine(engine),
        "reference_digest": digest(reference),
        "requests": index,
        "speed_probe_ms": probe_summary(probes),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
    }
    if trace:
        from layers import library_layer_metrics
        from tracing import export_spans

        OUT.mkdir(exist_ok=True)
        with open(OUT / f"{name}-seed{seed}-spans.json", "w",
                  encoding="utf-8") as fh:
            json.dump(export_spans(recorder.spans), fh)

        values = library_layer_metrics(
            recorder.spans, counters_used, traced_rows,
            traced_ttk, untraced_ttk, kernels_before, kernel_stats())
        return values, context, failures

    p_tail = tail_percentile(spec["samples"])
    mutate_tail = tail_percentile(spec["samples"])
    query_s = sum(ttk) / 1000.0
    replay = replay_stream([t / 1000.0 for t in ttf],
                           [t / 1000.0 for t in ttk],
                           random.Random(f"{seed}/{name}/arrivals"))
    values = {
        "setup_s": median(setups),
        "ttf_ms_p50": median(ttf),
        "ttf_ms_tail": percentile(ttf, p_tail),
        "ttk_ms_p50": median(ttk),
        "ttk_ms_tail": percentile(ttk, p_tail),
        "results_per_s": rows_out / query_s,
        "queries_per_s": len(ttk) / query_s,
        "max_qps_at_slo": max_rate_at_slo(replay, spec["ttf_limit_ms"],
                                          p_tail),
        "mutate_ms_p50": median(mutate),
        "mutate_ms_tail": percentile(mutate, mutate_tail),
        "peak_rss_mb": peak_rss_mb(),
    }
    context.update(tail_percentile=p_tail, mutate_tail_percentile=mutate_tail,
                   setups_s=[round(s, 4) for s in setups],
                   unscaled={"setup_s": round(median(raw_setups), 4),
                             "ttf_ms_p50": round(median(raw_ttf), 3),
                             "ttk_ms_p50": round(median(raw_ttk), 3),
                             "mutate_ms_p50": round(median(raw_mutate), 3)})
    return values, context, failures


def _mismatch(index: int, k: int, rows: list, reference: list) -> str:
    want = reference[:k]
    if len(rows) != len(want):
        return (f"request {index} (k={k}): {len(rows)} rows, reference "
                f"prefix has {len(want)}")
    for position, (got, expected) in enumerate(zip(rows, want)):
        if got != expected:
            return (f"request {index} (k={k}): row {position} is {got!r}, "
                    f"reference has {expected!r}")
    return f"request {index} (k={k}): rows differ"


if __name__ == "__main__":
    setup_main(*sys.argv[1:])
