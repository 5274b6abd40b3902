"""Span recording from outside the program: wrappers around layer entry points.

The benchmark never edits the program.  It patches the module attributes
through which callers reach each layer (``repro.anyk.api.TDP``,
``repro.anyk.tdp.full_reducer``, ...) with wrappers that record one span
per call.  Generators (the any-k engines and the tie stabilizer) are
wrapped in iterators that time every pull; consecutive pulls of one
generator under one parent span fold into one span record whose
``total`` is the summed pull time and ``calls`` the pull count.

A span record is a list::

    [span_id, name, start, end, parent_id, request_id, total, calls, attrs]

``total`` is the busy time inside the span (``end - start`` for a call
span).  A span's *self time* is its ``total`` minus the ``total`` of its
direct children (:func:`self_times`).
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Callable, Iterable, Optional

ID, NAME, START, END, PARENT, RID, TOTAL, CALLS, ATTRS = range(9)

_clock = time.perf_counter


class Recorder:
    """Keeps spans in memory; one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.enabled = False
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- per-thread state ------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def request_id(self) -> Any:
        return getattr(self._local, "rid", None)

    @request_id.setter
    def request_id(self, rid: Any) -> None:
        self._local.rid = rid

    def _new(self, name: str, start: float, attrs: Optional[dict]) -> list:
        stack = self._stack()
        parent = stack[-1][ID] if stack else None
        span = [next(self._ids), name, start, start, parent, self.request_id,
                0.0, 0, attrs]
        self.spans.append(span)
        return span

    # -- call spans --------------------------------------------------------
    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             attrs: Optional[dict] = None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``;
        ``attrs`` (filled in by the caller) rides on the span."""
        if not self.enabled:
            return fn(*args, **kwargs)
        span = self._new(name, _clock(), attrs)
        stack = self._stack()
        stack.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            end = _clock()
            span[END] = end
            span[TOTAL] = end - span[START]
            span[CALLS] = 1

    def wrap_call(self, name: str, fn: Callable,
                  count: Optional[Callable] = None) -> Callable:
        """``fn`` traced; ``count(attrs, args, result)`` records counts
        measured at the boundary."""
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            attrs: dict = {}
            result = self.call(name, fn, args, kwargs, attrs)
            if count is not None:
                count(attrs, args, result)
            return result

        return traced

    # -- pull spans ----------------------------------------------------------
    def pulls(self, name: str, iterator: Iterable, attrs: Optional[dict] = None):
        if not self.enabled:
            return iterator
        return _TimedPulls(self, name, iter(iterator), attrs)


class _TimedPulls:
    """Times each ``next()``; folds consecutive pulls under one parent."""

    __slots__ = ("_rec", "_name", "_it", "_span", "_attrs", "rows")

    def __init__(self, recorder: Recorder, name: str, iterator, attrs) -> None:
        self._rec = recorder
        self._name = name
        self._it = iterator
        self._span: Optional[list] = None
        self._attrs = attrs if attrs is not None else {}
        self.rows = 0

    def __iter__(self):
        return self

    def __next__(self):
        rec = self._rec
        stack = rec._stack()
        parent = stack[-1][ID] if stack else None
        start = _clock()
        span = self._span
        if span is None or span[PARENT] != parent:
            span = self._span = rec._new(self._name, start, self._attrs)
        stack.append(span)
        try:
            item = next(self._it)
            self.rows += 1
            self._attrs["rows"] = self._attrs.get("rows", 0) + 1
            return item
        finally:
            stack.pop()
            end = _clock()
            span[END] = end
            span[TOTAL] += end - start
            span[CALLS] += 1

    def close(self) -> None:
        close = getattr(self._it, "close", None)
        if close is not None:
            close()


class Counting:
    """Counts the items a consumer pulls from ``iterator``."""

    __slots__ = ("_it", "n")

    def __init__(self, iterator: Iterable) -> None:
        self._it = iter(iterator)
        self.n = 0

    def __iter__(self):
        return self

    def __next__(self):
        item = next(self._it)
        self.n += 1
        return item


def export_spans(spans: list[list]) -> list[list]:
    """Spans as JSON-ready lists; shared per-generator attrs keep a key."""
    out = []
    for span in spans:
        attrs = span[ATTRS]
        if attrs is not None:
            plain = {k: getattr(v, "n", v) for k, v in attrs.items()}
            plain["_key"] = id(attrs)
            attrs = plain
        out.append(span[:ATTRS] + [attrs])
    return out


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> self time: its busy time minus its direct children's."""
    child_total: dict[int, float] = {}
    for span in spans:
        parent = span[PARENT]
        if parent is not None:
            child_total[parent] = child_total.get(parent, 0.0) + span[TOTAL]
    return {span[ID]: span[TOTAL] - child_total.get(span[ID], 0.0)
            for span in spans}


def self_time_by_name(spans: list[list]) -> dict[str, float]:
    """Layer name -> summed self time (seconds)."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for span in spans:
        out[span[NAME]] = out.get(span[NAME], 0.0) + own[span[ID]]
    return out


# ----------------------------------------------------------------------
# The layer map: which attribute each wrapper replaces
# ----------------------------------------------------------------------
class Patches:
    """A set of (owner, attribute, replacement) swaps, reversible."""

    def __init__(self) -> None:
        self._swaps: list[tuple[Any, str, Any, Any]] = []

    def add(self, owner: Any, attr: str, replacement: Any) -> None:
        self._swaps.append((owner, attr, getattr(owner, attr), replacement))

    def install(self) -> None:
        for owner, attr, _, replacement in self._swaps:
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._swaps:
            setattr(owner, attr, original)


def _tdp_counts(attrs, args, result):
    attrs["buckets"] = sum(len(b) for b in result.buckets)


def _route_counts(attrs, args, result):
    attrs["engine"] = result.engine


def _heavylight_counts(attrs, args, result):
    attrs["intermediate_tuples"] = sum(
        len(rel) for tree in result for rel in tree.database
    )


def engine_patches(recorder: Recorder) -> Patches:
    """Wrappers around the engine layers, where their callers look them up."""
    import repro.anyk.api as api
    import repro.anyk.cyclic as cyclic
    import repro.anyk.kernels as kernels
    import repro.anyk.tdp as tdp
    import repro.dynamic.versioned as versioned
    import repro.engine.planner as planner

    patches = Patches()
    patches.add(planner, "route",
                recorder.wrap_call("route", planner.route, _route_counts))
    real_reducer = tdp.full_reducer

    def traced_reducer(db, query, *args, **kwargs):
        if not recorder.enabled:
            return real_reducer(db, query, *args, **kwargs)
        counters = kwargs.get("counters")
        before = counters.tuples_read if counters is not None else 0
        attrs: dict = {}
        result = recorder.call("reduce", real_reducer, (db, query, *args),
                               kwargs, attrs)
        attrs["tuples_in"] = sum(len(db[a.relation]) for a in query.atoms)
        attrs["tuples_out"] = sum(len(rel) for rel in result.values())
        if counters is not None:
            attrs["tuples_read"] = counters.tuples_read - before
        return result

    patches.add(tdp, "full_reducer", traced_reducer)
    traced_tdp = recorder.wrap_call("tdp", tdp.TDP, _tdp_counts)
    patches.add(api, "TDP", traced_tdp)
    patches.add(cyclic, "TDP", traced_tdp)
    patches.add(cyclic, "fourcycle_union_of_trees", recorder.wrap_call(
        "heavylight", cyclic.fourcycle_union_of_trees, _heavylight_counts))
    patches.add(kernels, "install_kernels",
                recorder.wrap_call("kernels", kernels.install_kernels))

    def engine_generator(real):
        def traced(*args, **kwargs):
            return recorder.pulls("enumerate", real(*args, **kwargs))

        return traced

    patches.add(api, "anyk_part", engine_generator(api.anyk_part))
    patches.add(api, "anyk_rec", engine_generator(api.anyk_rec))

    real_ties = api.stabilize_ties

    def traced_ties(stream, *args, **kwargs):
        if not recorder.enabled:
            return real_ties(stream, *args, **kwargs)
        source = Counting(stream)
        attrs = {"source": source}
        return recorder.pulls("ties", real_ties(source, *args, **kwargs), attrs)

    patches.add(api, "stabilize_ties", traced_ties)

    real_apply = versioned.VersionedDatabase.apply

    def traced_apply(self, mutation):
        return recorder.call("apply", real_apply, (self, mutation), {})

    patches.add(versioned.VersionedDatabase, "apply", traced_apply)
    return patches


def server_patches(recorder: Recorder) -> Patches:
    """Wrappers around the server layers (installed inside the server)."""
    import repro.engine.executor as executor
    import repro.server.protocol as protocol
    import repro.server.service as service

    patches = Patches()
    patches.add(service, "parameterize_sql",
                recorder.wrap_call("parse", service.parameterize_sql))
    patches.add(service, "database_fingerprint",
                recorder.wrap_call("fingerprint", service.database_fingerprint))
    patches.add(executor, "filtered_database",
                recorder.wrap_call("filter", executor.filtered_database))

    decoded: dict[int, float] = {}
    real_decode = protocol.decode_line

    def traced_decode(line):
        request = real_decode(line)
        if recorder.enabled:
            decoded[id(request)] = _clock()
        return request

    patches.add(protocol, "decode_line", traced_decode)

    real_handle = service.QueryService.handle

    def traced_handle(self, request):
        if not recorder.enabled:
            return real_handle(self, request)
        started = _clock()
        queued_at = decoded.pop(id(request), None)
        recorder.request_id = request.get("id")
        try:
            return recorder.call("handle", real_handle, (self, request), {})
        finally:
            if queued_at is not None:
                recorder.spans.append([
                    next(recorder._ids), "queue_wait", queued_at, started,
                    None, request.get("id"), started - queued_at, 1, None,
                ])
            recorder.request_id = None

    patches.add(service.QueryService, "handle", traced_handle)
    return patches
