"""Run ``repro`` with the benchmark's span wrappers installed in-process.

Usage: ``python launcher.py SPANS_OUT serve IMAGE [serve options...]``

The wrappers start switched off; ``SIGUSR1`` switches recording on and
creates ``SPANS_OUT.on`` to say so.  When
the daemon has shut down, the spans held in memory are written to
``SPANS_OUT``.
"""

from __future__ import annotations

import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from tmlbench import spans  # noqa: E402


def main(argv: list[str]) -> int:
    out, repro_argv = argv[0], argv[1:]
    recorder = spans.Recorder(enabled=False)
    spans.install_compiler(recorder)
    spans.install_store(recorder)
    spans.install_server(recorder)

    def start_recording(signum, frame):
        recorder.enabled = True
        open(out + ".on", "w").close()

    signal.signal(signal.SIGUSR1, start_recording)
    from repro.cli import main as repro_main

    try:
        return repro_main(repro_argv)
    finally:
        recorder.enabled = False
        recorder.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
