"""The one sweep mechanism behind the chaos harnesses.

Each suite is a module that exposes

* ``build_scenarios(quick)`` — the sweep as ``(name, thunk(root))`` pairs,
  built with :func:`scenarios`; ``quick`` selects a reduced grid;
* ``NEGATIVE_CONTROL = (name, thunk)`` — one scenario run with a
  protection disabled.  It MUST fail: a passing negative control means
  the suite's detector can no longer see the fault it exists to catch,
  so CI runs it with an inverted exit code.

:func:`run_sweep` runs either list the same way: every scenario gets its
own ``s{index:03d}`` directory, is timed, and any exception it raises
becomes a failed :class:`ScenarioResult` whose detail is ``Type: msg``.
The suites (:data:`SUITES`) are driven by ``scripts/sim.py SUITE`` /
``make SUITE-sim``; see docs/durability.md, "Chaos sweeps".
"""

from __future__ import annotations

import importlib
import os
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.obs.metrics import METRICS

__all__ = ["SUITES", "ScenarioResult", "run_sweep", "scenarios", "wait_until"]

#: suite name -> harness module, imported only when its sweep runs
SUITES = {
    "crash": "repro.store.crashsim",
    "replication": "repro.server.netchaos",
    "sharding": "repro.server.shardchaos",
    "exhaustion": "repro.store.exhaustsim",
    "recovery": "repro.store.recoverysim",
}

Thunk = Callable[[str], dict]


@dataclass
class ScenarioResult:
    name: str
    ok: bool
    detail: str = ""
    elapsed_s: float = 0.0
    checks: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "detail": self.detail,
            "elapsed_s": round(self.elapsed_s, 3),
            "checks": self.checks,
        }


def scenarios() -> tuple[list[tuple[str, Thunk]], Callable[..., None]]:
    """An empty scenario list and its builder: ``add(name, fn, *args,
    **kwargs)`` appends ``(name, thunk)`` where ``thunk(root)`` calls
    ``fn(root, *args, **kwargs)``."""
    found: list[tuple[str, Thunk]] = []

    def add(name: str, fn: Callable[..., dict], *args, **kwargs) -> None:
        found.append((name, lambda root: fn(root, *args, **kwargs)))

    return found, add


def wait_until(
    predicate: Callable[[], object],
    timeout: float,
    message: str,
    interval: float = 0.02,
) -> None:
    """Poll ``predicate`` until it is truthy; raise ``AssertionError(message)``
    once ``timeout`` seconds pass without that."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            raise AssertionError(message)
        time.sleep(interval)


def run_sweep(
    suite: str,
    root: str,
    quick: bool = False,
    negative_control: bool = False,
    progress: Callable[[int, int, ScenarioResult], None] | None = None,
) -> dict:
    """Run suite ``suite``'s sweep (or only its negative control) under
    ``root``; ``progress(done, total, result)`` is called after every
    scenario.  Returns the report dict."""
    module = importlib.import_module(SUITES[suite])
    if negative_control:
        todo = [module.NEGATIVE_CONTROL]
    else:
        todo = module.build_scenarios(quick=quick)
    ran = METRICS.counter(f"sim.{suite}.scenarios", f"{suite} sweep scenarios run")
    broke = METRICS.counter(f"sim.{suite}.failures", f"{suite} sweep scenarios failed")
    results: list[ScenarioResult] = []
    for index, (name, thunk) in enumerate(todo):
        ran.inc()
        started = time.monotonic()
        try:
            checks = thunk(os.path.join(root, f"s{index:03d}"))
            result = ScenarioResult(
                name, True, elapsed_s=time.monotonic() - started, checks=checks
            )
        except Exception as exc:
            broke.inc()
            result = ScenarioResult(
                name,
                False,
                detail=f"{type(exc).__name__}: {exc}",
                elapsed_s=time.monotonic() - started,
            )
        results.append(result)
        if progress is not None:
            progress(index + 1, len(todo), result)
    failed = [r for r in results if not r.ok]
    return {
        "scenarios": len(results),
        "passed": len(results) - len(failed),
        "failed": len(failed),
        "failures": [r.as_dict() for r in failed],
        "results": [r.as_dict() for r in results],
    }
