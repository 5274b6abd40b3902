"""The repository's benchmark: ranked enumeration end to end, and per layer.

One workload per process::

    python3 perfbench/run.py --workload path-shallow --seed 1 --seconds 24 --trace 0

prints every end-to-end metric (``--trace 0``) or every per-layer metric
from a separate traced run (``--trace 1``), a fingerprint line, a context
line, and as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  It exits 1 when an
output differs from its reference, 2 when the program is missing.

All workloads, one after another, each in a fresh process::

    python3 perfbench/run.py --seed 1 [--seconds 24] [--trace 1] [--out FILE]

The workloads, the layer map and the design choices are recorded in
``perfbench/design.json``; metric names, units and bounds in
``BENCHMARK.json``, which lists only the workloads steady enough to bound.
The others run here too, correctness gate included, and are marked as
unbounded.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default=None,
                        help="one workload (default: all, each in a fresh "
                        "process)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: "
                        "BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="with all workloads: also write the results "
                        "as JSON to this file")
    return parser.parse_args(argv)


def run_one(args) -> int:
    import common

    common.scrub_environment()
    sys.path.insert(0, str(common.SRC))
    spec = common.DESIGN["workloads"].get(args.workload)
    if spec is None:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(common.DESIGN['workloads'])}", file=sys.stderr)
        return 2
    if spec["kind"] == "wire":
        import wire as module
    else:
        import libload as module
    values, context, failures = module.run(
        args.workload, args.seed, args.seconds, bool(args.trace))
    for error in context.pop("errors", []):
        print(f"perfbench: failed operation: {error}", file=sys.stderr)
    units = common.LAYER_UNITS if args.trace else common.E2E_UNITS
    if args.trace:
        from layers import shares

        context["layer_shares"] = shares(values)
    result = {
        "correct": not failures,
        "attempted": int(context["attempted"]),
        "failed": int(context["failed"]),
        "metrics": common.metric_block(values, units),
    }
    if not args.trace:
        context["reported_only"] = common.metric_block(
            values, common.REPORTED_ONLY_UNITS)
    for failure in failures:
        print(f"perfbench: INCORRECT OUTPUT: {failure}", file=sys.stderr)
    common.emit(result, {"fingerprint": common.fingerprint(),
                         "context": context})
    return 1 if failures else 0


def run_all(args) -> int:
    import common

    results = {}
    status = 0
    bounded = {workload["name"] for workload in common.BENCHMARK["workloads"]}
    for name in common.DESIGN["workloads"]:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=str(ROOT), capture_output=True,
                              text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            status = 1
        if not lines:
            print(f"== {name}: no result (exit {done.returncode})")
            continue
        result = json.loads(lines[-1])
        context = {}
        for line in lines:
            if line.startswith('{"context"'):
                context = json.loads(line)["context"]
        results[name] = {"result": result, "context": context}
        verdict = "correct" if result["correct"] else "INCORRECT"
        bound = "" if name in bounded else " (unbounded, see design.json)"
        print(f"== {name}{bound}: {verdict}, {result['failed']} of "
              f"{result['attempted']} operations failed")
        for metric, entry in result["metrics"].items():
            print(f"   {metric:38s} {entry['value']:>14.6g} {entry['unit']}")
        if "layer_shares" in context:
            print(f"   layer shares: {json.dumps(context['layer_shares'])}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"fingerprint": common.fingerprint(),
                       "seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, "workloads": results}, fh,
                      indent=1)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds is None:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            args.seconds = float(json.load(fh)["run_seconds"])
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: the program's sources (src/repro) are missing; "
              "nothing to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
