"""Traced-run launcher: ``plssvm-train`` or ``plssvm-serve`` with layer spans.

Usage::

    python3 perfbench/traced.py SPANS_OUT SPAWNED {train|serve} ARGS...

``SPAWNED`` is the parent's ``time.monotonic()`` just before it started
this process; the span from it to entering ``main`` is ``cli.startup``.
The launcher wraps the layer entry points (see :mod:`tracing`), calls
``repro.cli.{train,serve}.main(ARGS)``, and writes the spans to
``SPANS_OUT`` when ``main`` returns. SIGTERM is turned into the
KeyboardInterrupt ``plssvm-serve`` shuts down on, so a server's spans
are written too.
"""

from __future__ import annotations

import signal
import sys
import time
from pathlib import Path


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv) -> int:
    spans_out, spawned, command, *args = argv
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracing import Recorder

    recorder = Recorder()
    recorder.install()
    if command == "train":
        from repro.cli.train import main as entry
    elif command == "serve":
        from repro.cli.serve import main as entry
    else:
        raise SystemExit(f"unknown command {command!r}")
    signal.signal(signal.SIGTERM, _interrupt)
    recorder.span("cli.startup", float(spawned), time.monotonic())
    try:
        return entry(args)
    finally:
        recorder.dump(Path(spans_out))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
