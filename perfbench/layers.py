"""Per-layer metrics from recorded spans (the traced run).

Every ``*_ms`` layer metric is self time per query (summed over the
query's calls and pulls), except ``dynamic.apply_ms``, which is per
mutation.  Counts are per query unless the name says otherwise.
"""

from __future__ import annotations

from common import LAYER_UNITS, median, percentile
from tracing import ATTRS, ID, NAME, RID, TOTAL, self_time_by_name, self_times

#: span name -> per-layer metric carrying its self time.
SELF_TIME_METRICS = {
    "parse": "sql.parse_ms",
    "route": "engine.route_ms",
    "fingerprint": "engine.fingerprint_ms",
    "filter": "engine.filter_ms",
    "reduce": "joins.reduce_ms",
    "heavylight": "joins.heavylight_ms",
    "tdp": "anyk.bottom_up_ms",
    "kernels": "anyk.kernels.install_ms",
    "enumerate": "anyk.enumerate_ms",
    "ties": "anyk.ties_ms",
    "handle": "server.handle_ms",
}

ROUTED = {"part:lazy": "engine.routed.part_lazy", "rec": "engine.routed.rec",
          "batch": "engine.routed.batch", "rank_join": "engine.routed.rank_join"}


def _zeroed() -> dict:
    return {name: 0.0 for name in LAYER_UNITS}


def _engine_span_metrics(spans: list, queries: int, rows: int,
                         values: dict) -> dict:
    """Fill the engine layers' metrics; returns layer self seconds."""
    self_s = self_time_by_name(spans)
    for span_name, metric in SELF_TIME_METRICS.items():
        values[metric] = self_s.get(span_name, 0.0) * 1000.0 / queries

    tuples_in = tuples_out = tuples_read = buckets = intermediate = 0
    ties_sources = {}
    for span in spans:
        name, attrs = span[NAME], span[ATTRS] or {}
        if name == "reduce":
            tuples_in += attrs.get("tuples_in", 0)
            tuples_out += attrs.get("tuples_out", 0)
            tuples_read += attrs.get("tuples_read", 0)
        elif name == "tdp":
            buckets += attrs.get("buckets", 0)
        elif name == "heavylight":
            intermediate += attrs.get("intermediate_tuples", 0)
        elif name == "ties":
            ties_sources[attrs.get("_key", id(attrs))] = attrs
        elif name == "route" and attrs.get("engine") in ROUTED:
            values[ROUTED[attrs["engine"]]] += 1
    values["joins.reduce.tuples_read"] = tuples_read / queries
    values["joins.reduce.survival"] = tuples_out / tuples_in if tuples_in else 0.0
    values["joins.heavylight.intermediate_tuples"] = intermediate / queries
    values["anyk.tdp.buckets"] = buckets / queries
    pulled = sum(getattr(a["source"], "n", a["source"])
                 for a in ties_sources.values())
    emitted = sum(a.get("rows", 0) for a in ties_sources.values())
    values["anyk.ties.overpull"] = pulled / emitted if emitted else 0.0
    values["anyk.enumerate_us_per_result"] = (
        self_s.get("enumerate", 0.0) * 1e6 / rows if rows else 0.0)
    return self_s


def _apply_ms(spans: list) -> float:
    """Mean self time of VersionedDatabase.apply, per mutation."""
    own = self_times(spans)
    applies = [own[s[ID]] for s in spans if s[NAME] == "apply"]
    return sum(applies) * 1000.0 / len(applies) if applies else 0.0


def kernel_hit_rate(before: dict, after: dict) -> float:
    """(template + slot hits) / lookups between two ``kernel_stats()``."""
    def total(stats, event):
        return sum(counts.get(event, 0) for counts in stats.values())

    hits = sum(total(after, e) - total(before, e)
               for e in ("template_hits", "slot_hits"))
    misses = total(after, "template_misses") - total(before, "template_misses")
    return hits / (hits + misses) if hits + misses else 0.0


def shares(values: dict) -> dict:
    """Each layer's share of the traced per-query time."""
    total = values["trace.request_ms"]
    out = {metric: round(values[metric] / total, 4)
           for metric in list(SELF_TIME_METRICS.values())
           + ["server.queue_wait_ms", "server.wire_ms", "trace.other_ms"]
           if values.get(metric)}
    return out


def library_layer_metrics(spans, counters_used, rows, traced_s, untraced_s,
                          kernel_before, kernel_after) -> dict:
    values = _zeroed()
    queries = len(traced_s)
    self_s = _engine_span_metrics(spans, queries, rows, values)
    values["dynamic.apply_ms"] = _apply_ms(spans)
    values["anyk.heap_ops_per_result"] = (
        sum(c.heap_ops for c in counters_used) / rows if rows else 0.0)
    values["anyk.kernels.template_hit_rate"] = kernel_hit_rate(
        kernel_before, kernel_after)
    values["trace.request_ms"] = sum(traced_s) * 1000.0 / queries
    values["trace.other_ms"] = self_s.get("request", 0.0) * 1000.0 / queries
    values["trace.overhead_pct"] = 100.0 * (
        median([t / u for t, u in zip(traced_s, untraced_s)]) - 1.0)
    return values


def wire_layer_metrics(spans, queries: list, traced_ttk_ms, untraced_ttk_ms,
                       stats_before, stats_after, kernel_before, kernel_after,
                       late_ms) -> dict:
    """``queries``: per traced query, the client's record (dict with
    ``rid``, ``rtts`` (seconds per round trip id), ``bytes``, ``mem_peak``,
    ``engine``, ``rows``)."""
    values = _zeroed()
    n = len(queries)
    rows = sum(q["rows"] for q in queries)
    query_rids = {q["rid"] for q in queries}

    def query_of(rid) -> str:
        return str(rid).split(".", 1)[0]

    # Engine/server spans of traced queries (and mutations for apply).
    mine = [s for s in spans if query_of(s[RID]) in query_rids]
    _engine_span_metrics(mine, n, rows, values)
    values["dynamic.apply_ms"] = _apply_ms(spans)
    for key in [k for k in values if k.startswith("engine.routed.")]:
        values[key] = 0.0
    for q in queries:
        if q["engine"] in ROUTED:
            values[ROUTED[q["engine"]]] += 1

    handle_total: dict = {}
    queue_wait: dict = {}
    for span in mine:
        if span[NAME] == "handle":
            handle_total[span[RID]] = handle_total.get(span[RID], 0.0) + span[TOTAL]
        elif span[NAME] == "queue_wait":
            queue_wait[span[RID]] = queue_wait.get(span[RID], 0.0) + span[TOTAL]
    wire = 0.0
    for q in queries:
        for rid, rtt in q["rtts"].items():
            wire += rtt - handle_total.get(rid, 0.0) - queue_wait.get(rid, 0.0)
    values["server.queue_wait_ms"] = sum(queue_wait.values()) * 1000.0 / n
    values["server.wire_ms"] = wire * 1000.0 / n
    values["server.round_trips_per_query"] = (
        sum(len(q["rtts"]) for q in queries) / n)
    values["server.response_bytes_per_query"] = sum(q["bytes"] for q in queries) / n
    values["obs.mem_peak_bytes_p50"] = median([q["mem_peak"] for q in queries])

    cache0, cache1 = stats_before["plan_cache"], stats_after["plan_cache"]
    hits = cache1["hits"] - cache0["hits"]
    misses = cache1["misses"] - cache0["misses"]
    values["plancache.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    values["plancache.recosts"] = cache1["recosts"] - cache0["recosts"]
    heap = stats_after["counters"]["heap_ops"] - stats_before["counters"]["heap_ops"]
    served = stats_after["rows_served"] - stats_before["rows_served"]
    values["anyk.heap_ops_per_result"] = heap / served if served else 0.0
    values["anyk.kernels.template_hit_rate"] = kernel_hit_rate(
        kernel_before, kernel_after)
    values["loadgen.late_ms_p99"] = percentile(late_ms, 99.0)
    values["trace.request_ms"] = sum(
        sum(q["rtts"].values()) for q in queries) * 1000.0 / n
    attributed = sum(values[m] for m in SELF_TIME_METRICS.values())
    values["trace.other_ms"] = max(
        0.0, values["trace.request_ms"] - attributed
        - values["server.queue_wait_ms"] - values["server.wire_ms"])
    values["trace.overhead_pct"] = 100.0 * (
        median(traced_ttk_ms) / median(untraced_ttk_ms) - 1.0)
    return values
