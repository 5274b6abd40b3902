"""Launch ``repro-serve`` with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/serve_traced.py --spans-out FILE -- <repro-serve
arguments>``.  Tracing starts off; each SIGUSR1 toggles it and snapshots
``kernel_stats()``.  On shutdown (SIGTERM or SIGINT) the spans and snapshots are
written to FILE as JSON.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from tracing import Recorder, engine_patches, export_spans, server_patches  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans-out" or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_out, serve_args = argv[1], argv[3:]
    recorder = Recorder()
    engine_patches(recorder).install()
    server_patches(recorder).install()

    from repro.anyk.kernels import kernel_stats
    from repro.server.cli import main as serve

    snapshots = []

    def toggle(signum, frame) -> None:
        snapshots.append(kernel_stats())
        recorder.enabled = not recorder.enabled

    def shutdown(signum, frame) -> None:
        raise KeyboardInterrupt

    signal.signal(signal.SIGUSR1, toggle)
    signal.signal(signal.SIGTERM, shutdown)
    signal.signal(signal.SIGINT, shutdown)
    try:
        return serve(serve_args)
    finally:
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump({"spans": export_spans(recorder.spans),
                       "kernel_stats": snapshots}, fh)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
