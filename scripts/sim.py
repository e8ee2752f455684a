#!/usr/bin/env python
"""Run one chaos sweep of :mod:`repro.sim` (``make SUITE-sim``).

Exits nonzero if any scenario violated one of its suite's invariants and
writes the report as JSON for artifact upload.  The suites, their
invariants and their negative controls are listed in docs/durability.md,
"Chaos sweeps".

``--negative-control`` runs only the suite's negative control, a scenario
with one protection disabled.  It MUST exit nonzero, which CI asserts by
inverting the invocation: that proves the suite's detector still detects.

Usage: python scripts/sim.py SUITE [--quick] [--negative-control]
                             [--json OUT] [--verbose]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.sim import SUITES, run_sweep  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("suite", choices=sorted(SUITES))
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced scenario grid for local iteration",
    )
    parser.add_argument(
        "--negative-control", action="store_true",
        help="run only the suite's negative control; MUST exit nonzero",
    )
    parser.add_argument("--json", metavar="OUT", help="write the report as JSON")
    parser.add_argument(
        "--verbose", action="store_true", help="print every scenario result"
    )
    args = parser.parse_args(argv)

    started = time.monotonic()

    def progress(done, total, result):
        if args.verbose or not result.ok:
            mark = "ok  " if result.ok else "FAIL"
            print(
                f"  [{done:3d}/{total}] {mark} {result.name} "
                f"({result.elapsed_s:.2f}s)"
                + ("" if result.ok else f" — {result.detail}")
            )
        elif done % 25 == 0 or done == total:
            print(f"  [{done:3d}/{total}] ...")

    with tempfile.TemporaryDirectory(prefix=f"{args.suite}-sim-") as workdir:
        report = run_sweep(
            args.suite,
            workdir,
            quick=args.quick,
            negative_control=args.negative_control,
            progress=progress,
        )
    report["suite"] = args.suite
    report["duration_s"] = round(time.monotonic() - started, 2)
    report["mode"] = (
        "negative-control" if args.negative_control
        else ("quick" if args.quick else "full")
    )

    print(
        f"{args.suite}-sim [{report['mode']}]: {report['scenarios']} scenarios "
        f"in {report['duration_s']}s -> "
        + ("OK" if not report["failed"] else f"{report['failed']} FAILURES")
    )
    for failure in report["failures"]:
        print(f"  FAIL {failure['name']}: {failure['detail']}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fp:
            json.dump(report, fp, indent=2, sort_keys=True)
            fp.write("\n")
        print(f"wrote {args.json}")
    return 0 if not report["failed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
