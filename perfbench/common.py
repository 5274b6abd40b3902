"""Shared pieces: the design record, statistics, fingerprint, result line."""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import math
import os
import platform
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

with open(HERE / "design.json", encoding="utf-8") as _fh:
    DESIGN: dict = json.load(_fh)

with open(ROOT / "BENCHMARK.json", encoding="utf-8") as _fh:
    BENCHMARK: dict = json.load(_fh)

#: end-to-end metric name -> unit, in the order they are reported.
E2E_UNITS: dict[str, str] = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
#: end-to-end metrics that are printed but carry no bound (design.json
#: says why), name -> unit.
REPORTED_ONLY_UNITS: dict[str, str] = {
    name: entry["unit"] for name, entry in DESIGN["reported_only"].items()}
#: per-layer metric name -> unit.
LAYER_UNITS: dict[str, str] = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
#: where traced runs write their spans (ignored by git).
OUT = ROOT / ".perfbench_out"


def scrub_environment() -> None:
    """Run the program as shipped: drop every ``REPRO_*`` override."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


def child_environment() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values, p: float) -> float:
    """Linear-interpolated percentile (``p`` in 0..100)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    if rank == lo:
        return float(ordered[lo])
    # Written so an infinite upper neighbour (a failed request) stays inf.
    return float(ordered[lo] * (lo + 1 - rank) + ordered[lo + 1] * (rank - lo))


def median(values) -> float:
    return percentile(values, 50.0)


def tail_percentile(sample_count: int) -> float:
    """The highest percentile (0.1 resolution) leaving >= 10 samples above
    it at ``sample_count`` samples."""
    if sample_count < 20:
        raise ValueError("a tail needs at least 20 samples")
    return math.floor(1000.0 * (1.0 - 10.0 / sample_count)) / 10.0


# ----------------------------------------------------------------------
# Fingerprint
# ----------------------------------------------------------------------
def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest() -> str:
    """sha256 over the program's Python sources (identifies the code when
    the checkout carries no git metadata)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_commit": _git_commit(),
        "source_digest": source_digest(),
    }


_PROBE_ROWS: list = []


def speed_probe_ms() -> float:
    """How long a fixed piece of pure-Python work takes right now, in ms.

    On a shared VM the same code runs up to twice as fast in one minute as
    in the next, which swamps any change to the program.  The probe is
    the kind of work the engine does (hash a relation on one column,
    semi-join it against itself, keep the best weight per key, then push
    and pop a heap of weighted tuples), so its time follows the engine's
    through those shifts; library runs divide their times by it (see
    ``scaled``).  The collector is off while it runs, so the probe
    measures the machine, not the program's heap.
    """
    if not _PROBE_ROWS:
        rng = random.Random(0)
        _PROBE_ROWS.extend((rng.randrange(700), rng.randrange(700),
                            rng.random()) for _ in range(15000))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        index: dict = {}
        for row in _PROBE_ROWS:
            index.setdefault(row[1], []).append(row)
        keep = {a for a, _, _ in _PROBE_ROWS if a in index}
        best: dict = {}
        for a, b, w in _PROBE_ROWS:
            if b in keep and w < best.get(b, 2.0):
                best[b] = w
        heap: list = []
        for position, (a, b, w) in enumerate(_PROBE_ROWS[:6000]):
            heapq.heappush(heap, (w, position, (a, b)))
        while heap:
            heapq.heappop(heap)
        return (time.perf_counter() - started) * 1000.0
    finally:
        if was_enabled:
            gc.enable()


#: The probe's time on the reference machine; see ``scaled``.
REFERENCE_PROBE_MS: float = DESIGN["speed_probe"]["reference_ms"]


def scaled(duration: float, probe_ms: float) -> float:
    """A duration taken while the probe read ``probe_ms``, rescaled to the
    machine speed at which it reads ``REFERENCE_PROBE_MS``."""
    return duration * REFERENCE_PROBE_MS / probe_ms


def probe_summary(readings: list) -> dict:
    return {"n": len(readings), "min": round(min(readings), 3),
            "p50": round(median(readings), 3), "max": round(max(readings), 3)}


def peak_rss_mb(pid: str = "self") -> float:
    """``VmHWM`` of a process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found")


# ----------------------------------------------------------------------
# Result line
# ----------------------------------------------------------------------
def metric_block(values: dict, units: dict) -> dict:
    missing = [name for name in units if name not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {name: {"value": float(values[name]), "unit": units[name]}
            for name in units}


def emit(result: dict, extra: dict) -> None:
    """Human-readable lines, then context lines, then the result line."""
    reported = extra.get("context", {}).get("reported_only", {})
    for name, metric in [*result["metrics"].items(), *reported.items()]:
        print(f"{name:38s} {metric['value']:>14.6g} {metric['unit']}")
    for key, value in extra.items():
        print(json.dumps({key: value}, sort_keys=True))
    print(json.dumps(result, sort_keys=False))
    sys.stdout.flush()
