"""Exhaustive crash-point simulation — SQLite-style durability proof.

The harness answers one question: *is there any single I/O operation at
which a crash leaves the image in a third state* — neither the last
committed state nor the next one?  It answers by brute force:

1. build a pristine baseline image fault-free;
2. replay a multi-commit workload once through a counting
   :class:`~repro.store.faults.FaultPlan` to learn the total number of
   I/O operations *N* and capture the expected heap state after every
   commit;
3. for each failure mode (write-through, torn write, write-back, and
   write-back + torn) and each crash point ``k in 0..N-1``, replay the
   workload against a fresh copy of the baseline with a simulated crash
   at operation *k*, then **reopen the image with the real, fault-free
   file layer** and assert that
   - recovery succeeds (the image is never bricked),
   - the recovered roots equal the state after commit *c* or commit
     *c+1*, where *c* is the number of commits that completed before the
     crash (no third state), and
   - the recovered image still accepts a fresh commit (a crash must not
     poison the free list or allocator);
4. optionally run :func:`repro.store.fsck.fsck_image` over every
   recovered image and require zero integrity errors (leaked pages are
   expected after a crash and are *not* errors).

The workload is deterministic, so "crash at op *k*" names a unique
machine state; the sweep over *k* is exhaustive by construction.

This is the ``crash`` suite of :mod:`repro.sim` (``scripts/sim.py crash``
/ ``make crash-sim``): :func:`build_scenarios` makes every (mode, crash
point) pair one scenario.  Tests call :func:`run_crash_sim`, which runs
the same sweep in one call and returns a :class:`CrashSimReport`.

:func:`scenario_negative_control` sweeps the torn mode (without fsck) over
:func:`negative_control_workload`, whose last step stores a run-varying
value: no replay can match its recorded expectation, so the comparator
must flag it.  CI inverts the invocation; a passing negative control
means the third-state detector is broken.
"""

from __future__ import annotations

import itertools
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.store.faults import CrashPoint, FaultPlan
from repro.store.heap import ObjectHeap

__all__ = [
    "CrashSimError",
    "CrashSimReport",
    "MODES",
    "NEGATIVE_CONTROL",
    "build_scenarios",
    "default_workload",
    "negative_control_workload",
    "run_crash_sim",
    "scenario_negative_control",
]

#: the four failure models: every write durable immediately; the crashing
#: write half-persisted; nothing durable but what was fsynced; and both.
MODES = ("writethrough", "torn", "writeback", "writeback-torn")

#: one workload step: mutate the heap (the harness commits after each).
#: ``state`` carries OIDs between steps.
Step = Callable[[ObjectHeap, dict], None]


def default_workload() -> list[Step]:
    """A five-commit workload covering store/update/rebind/chain-release.

    Values are codec-native (ints, strs, tuples, dicts); the big string
    spans several pages so commits exercise multi-page chains, and the
    shrinking update forces page releases through the free list.
    """

    def s1(heap: ObjectHeap, state: dict) -> None:
        state["a"] = heap.store(("alpha", 1))
        heap.set_root("a", state["a"])

    def s2(heap: ObjectHeap, state: dict) -> None:
        state["blob"] = heap.store("B" * 3000)
        heap.set_root("blob", state["blob"])

    def s3(heap: ObjectHeap, state: dict) -> None:
        heap.update(state["a"], ("alpha", 2, "mutated"))
        heap.set_root("b", heap.store({"k": "v", "n": 7}))

    def s4(heap: ObjectHeap, state: dict) -> None:
        # shrink the blob: its old multi-page chain is released, pushing
        # pages through the shadow-paged free list
        heap.update(state["blob"], "C" * 900)
        heap.set_root("c", heap.store(tuple(range(50))))

    def s5(heap: ObjectHeap, state: dict) -> None:
        heap.set_root("a", heap.store("rebound"))

    return [s1, s2, s3, s4, s5]


def negative_control_workload() -> list[Step]:
    """The default workload plus one run-varying step.

    The counting run records one value; every scenario replay stores a
    different one, so the reopened state can never match the recorded
    pre- or post-commit expectation and the comparator must flag it.
    """
    ticket = itertools.count(1)

    def nondeterministic(heap: ObjectHeap, state: dict) -> None:
        heap.set_root("negative", heap.store(("run", next(ticket))))

    return [*default_workload(), nondeterministic]


class CrashSimError(AssertionError):
    """A crash point reopened to a third state, or failed recovery/fsck."""


@dataclass
class CrashSimReport:
    """Outcome of an exhaustive sweep (JSON-friendly via :meth:`as_dict`)."""

    page_size: int
    io_ops: int = 0
    commits: int = 0
    modes: tuple[str, ...] = MODES
    scenarios: int = 0
    fsck_runs: int = 0
    duration_s: float = 0.0
    #: one dict per broken scenario: mode, crash_at, commits_done, error
    failures: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "page_size": self.page_size,
            "io_ops_per_run": self.io_ops,
            "commits": self.commits,
            "modes": list(self.modes),
            "scenarios": self.scenarios,
            "fsck_runs": self.fsck_runs,
            "duration_s": round(self.duration_s, 3),
            "failures": self.failures,
        }


def _snapshot(heap: ObjectHeap) -> dict[str, Any]:
    """The observable durable state: every root's loaded value."""
    return {
        name: heap.load_root(name)
        for name in heap.root_names()
        if not name.startswith("__")
    }


def run_crash_sim(
    workdir: str | os.PathLike,
    page_size: int = 256,
    modes: Sequence[str] = MODES,
    workload: Sequence[Step] | None = None,
    fsck: bool = True,
    max_failures: int = 20,
) -> CrashSimReport:
    """Sweep every crash point in every failure mode; see module docstring.

    ``max_failures`` bounds the recorded failure detail (the counts in the
    report stay exact).  Pass ``fsck=False`` to skip the per-scenario
    integrity check (it roughly doubles the runtime).
    """
    for mode in modes:
        if mode not in MODES:
            raise ValueError(f"unknown crash-sim mode {mode!r}")
    steps = list(workload) if workload is not None else default_workload()
    workdir = os.fspath(workdir)
    os.makedirs(workdir, exist_ok=True)
    baseline = os.path.join(workdir, "baseline.tyc")
    scratch = os.path.join(workdir, "scenario.tyc")
    started = time.monotonic()

    report = CrashSimReport(page_size=page_size, modes=tuple(modes))
    report.io_ops, states = _baseline_and_count(baseline, scratch, page_size, steps)
    report.commits = len(states) - 1

    # 3. the exhaustive sweep
    for mode in modes:
        for crash_at in range(report.io_ops):
            report.scenarios += 1
            failure = _run_scenario(
                baseline, scratch, page_size, steps, states, mode, crash_at, fsck
            )
            if failure is not None:
                if len(report.failures) < max_failures:
                    report.failures.append(failure)
            if fsck:
                report.fsck_runs += 1
    report.duration_s = time.monotonic() - started
    return report


def _baseline_and_count(
    baseline: str, scratch: str, page_size: int, steps: Sequence[Step]
) -> tuple[int, list[dict[str, Any]]]:
    """Steps 1 and 2: build the pristine baseline image fault-free, then
    replay the workload once on a copy through a counting fault plan;
    returns N (the run's I/O operations) and the state after each commit."""
    if os.path.exists(baseline):
        os.remove(baseline)
    ObjectHeap(baseline, page_size).close()
    shutil.copyfile(baseline, scratch)
    count_plan = FaultPlan()
    heap = ObjectHeap(scratch, page_size, io_factory=count_plan.file_factory)
    states: list[dict[str, Any]] = [_snapshot(heap)]
    state: dict = {}
    for step in steps:
        step(heap, state)
        heap.commit()
        states.append(_snapshot(heap))
    heap.close()
    return count_plan.ops, states


def build_scenarios(quick: bool = False) -> list[tuple[str, Callable[[str], dict]]]:
    """One scenario per (mode, crash point) of the default workload at page
    size 256, fsck included.  The sweep is exhaustive by construction, so
    ``quick`` selects the same grid."""
    page_size = 256
    steps = default_workload()
    with tempfile.TemporaryDirectory(prefix="crash-sim-") as workdir:
        baseline = os.path.join(workdir, "baseline.tyc")
        io_ops, states = _baseline_and_count(
            baseline, os.path.join(workdir, "count.tyc"), page_size, steps
        )
        with open(baseline, "rb") as f:
            pristine = f.read()

    def crash_point(root: str, mode: str, crash_at: int) -> dict:
        os.makedirs(root, exist_ok=True)
        base = os.path.join(root, "baseline.tyc")
        with open(base, "wb") as f:
            f.write(pristine)
        failure = _run_scenario(
            base, os.path.join(root, "scenario.tyc"), page_size, steps, states,
            mode, crash_at, fsck=True,
        )
        if failure is not None:
            raise CrashSimError(
                f"{failure['commits_done']} commits done: {failure['error']}"
            )
        return {}

    return [
        (f"{mode}/op{crash_at}",
         lambda root, m=mode, k=crash_at: crash_point(root, m, k))
        for mode in MODES
        for crash_at in range(io_ops)
    ]


def scenario_negative_control(root: str) -> dict:
    """The torn-mode sweep, without fsck, over the run-varying workload: it
    MUST report a third state (see the module docstring)."""
    report = run_crash_sim(
        root, modes=("torn",), workload=negative_control_workload(), fsck=False
    )
    if not report.ok:
        first = report.failures[0]
        raise CrashSimError(
            f"{len(report.failures)} failing crash points; first: "
            f"{first['mode']} @ op {first['crash_at']}: {first['error']}"
        )
    return report.as_dict()


NEGATIVE_CONTROL = ("negative-control/nondeterministic", scenario_negative_control)


def _run_scenario(
    baseline: str,
    scratch: str,
    page_size: int,
    steps: Sequence[Step],
    states: list[dict],
    mode: str,
    crash_at: int,
    fsck: bool,
) -> dict | None:
    """One (mode, crash point) replay; returns a failure record or None."""
    shutil.copyfile(baseline, scratch)
    plan = FaultPlan(
        crash_at=crash_at,
        torn="torn" in mode,
        writeback="writeback" in mode,
    )
    commits_done = 0
    try:
        heap = ObjectHeap(scratch, page_size, io_factory=plan.file_factory)
        state: dict = {}
        try:
            for step in steps:
                step(heap, state)
                heap.commit()
                commits_done += 1
        finally:
            if not plan.crashed:
                heap.close()
    except CrashPoint:
        pass
    except Exception as exc:  # a non-crash error is itself a failure
        plan.close_all()
        return _failure(mode, crash_at, commits_done, f"workload error: {exc!r}")
    finally:
        plan.close_all()

    # recovery with the real file layer — the moment of truth
    try:
        recovered = ObjectHeap(scratch, page_size)
    except Exception as exc:
        return _failure(mode, crash_at, commits_done, f"image bricked: {exc!r}")
    try:
        snap = _snapshot(recovered)
        allowed = [states[commits_done]]
        if commits_done + 1 < len(states):
            allowed.append(states[commits_done + 1])
        if snap not in allowed:
            return _failure(
                mode,
                crash_at,
                commits_done,
                f"third state: roots {sorted(snap)} match no adjacent commit",
            )
        # the recovered image must still accept new work (a crash must not
        # have poisoned the allocator or free list)
        recovered.set_root("__probe__", recovered.store((mode, crash_at)))
        recovered.commit()
    except Exception as exc:
        return _failure(mode, crash_at, commits_done, f"recovery unusable: {exc!r}")
    finally:
        recovered.close()

    if fsck:
        from repro.store.fsck import fsck_image

        try:
            result = fsck_image(scratch, page_size=page_size)
        except Exception as exc:
            return _failure(mode, crash_at, commits_done, f"fsck crashed: {exc!r}")
        if result.errors:
            return _failure(
                mode,
                crash_at,
                commits_done,
                f"fsck errors: {[f.message for f in result.errors][:3]}",
            )
    return None


def _failure(mode: str, crash_at: int, commits_done: int, error: str) -> dict:
    return {
        "mode": mode,
        "crash_at": crash_at,
        "commits_done": commits_done,
        "error": error,
    }
