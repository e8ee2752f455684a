"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 tmlbench/run.py --workload stanford --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
exit status is non-zero when any output was wrong.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from tmlbench import common  # noqa: E402

#: ``kv-big`` runs here but is not listed in BENCHMARK.json: the program's
#: concurrent-read defect makes its gets fail or return another key's value
#: (NOTES.md, "Known defect")
WORKLOADS = ("stanford", "kv-big", "mixed-small")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(common.SRC, "repro")):
        print(f"error: no program sources under {common.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, common.SRC)
    # a terminated run still stops its daemons (they are killed in the
    # workloads' ``finally`` blocks)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} {common.machine_info()}")
    shutil.rmtree(common.WORK, ignore_errors=True)
    try:
        if args.workload == "stanford":
            from tmlbench import stanford

            return stanford.run(args.seed, args.seconds, bool(args.trace))
        from tmlbench import serve

        return serve.run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(common.WORK, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
