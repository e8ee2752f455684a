"""Shared pieces of the benchmark: metric catalogue, statistics, output.

The metric catalogue below is the single source of the names and units the
benchmark prints; ``BENCHMARK.json`` at the repository root lists the same
names (``test_tmlbench.py`` checks that the two agree).
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: scratch space for images, daemon logs and span dumps (git-ignored)
WORK = os.path.join(ROOT, ".tmlbench_work")

#: end-to-end metrics, printed by every untraced run of every workload
END_TO_END = {
    "setup_s": "s",
    "rss_mb": "MB",
    "min_ms": "ms",
}

#: per-layer metrics, printed by every traced run (0 where a workload does
#: not use the layer, e.g. the store on ``stanford``)
PER_LAYER = {
    "lang.front_ms": "ms",
    "rewrite.optimize_ms": "ms",
    "rewrite.rules_fired": "count",
    "machine.codegen_ms": "ms",
    "reflect.optimize_ms": "ms",
    "reflect.break_even_runs": "runs",
    "machine.instructions": "count",
    "machine.ns_per_instr": "ns",
    "store.commit_ms": "ms",
    "store.sync_ms": "ms",
    "store.fsyncs_per_commit": "count",
    "store.pages_written_per_commit": "count",
    "store.bytes_written_per_user_byte": "ratio",
    "store.log_append_ms": "ms",
    "store.cache_miss_ratio": "ratio",
    "store.read_chain_ms": "ms",
    "store.decode_ms": "ms",
    "store.space_amp": "ratio",
    "server.lock_wait_ms": "ms",
    "server.handler_ms": "ms",
    "server.wire_ms": "ms",
    "server.codecache_hit_ratio": "ratio",
    "trace.overhead": "ratio",
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def kind_gm(by_kind: dict[str, list[float]], q: float) -> float:
    """Geometric mean, over operation kinds, of each kind's percentile ``q``.

    A workload mixes kinds of very different cost (a 0.5 ms ``get`` next to
    a 9 ms ``call``), so a percentile of the pooled sample falls between
    modes and jumps from run to run; each kind's own percentile does not.
    ``q = 0`` takes each kind's fastest operation.
    """
    logs = [math.log(percentile(v, q)) for v in by_kind.values() if v]
    return math.exp(sum(logs) / len(logs))


def kind_rows(by_kind: dict[str, list[float]]) -> dict[str, str]:
    """Count, min, p50, p95 and p99 per kind, for the human-readable table."""
    return {
        f"  {kind}": f"{len(v)} / " + " / ".join(
            f"{percentile(v, q):.3f}" for q in (0.0, 0.50, 0.95, 0.99)
        )
        for kind, v in sorted(by_kind.items()) if v
    }


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def src_env() -> dict:
    """Environment for child processes that import the program from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def machine_info() -> dict:
    """Where the numbers came from: cores, interpreter, image filesystem."""
    fs = "?"
    try:
        out = subprocess.run(
            ["df", "-T", ROOT], capture_output=True, text=True, timeout=10
        ).stdout.split("\n")
        if len(out) > 1 and out[1].split():
            fs = out[1].split()[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "fs": fs,
    }


def emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    """Print the result object as the last line of standard output."""
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    payload = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    sys.stdout.flush()
    print(json.dumps(payload), flush=True)


def table(title: str, rows: dict) -> None:
    """Human-readable lines above the result object."""
    print(f"# {title}")
    for key, value in rows.items():
        if isinstance(value, float):
            value = f"{value:.4f}"
        print(f"#   {key:<34} {value}")
