"""``stanford``: the paper's section-6 suite, dynamically optimised, in process.

Set-up compiles all eleven Stanford programs at ``bench_n`` under the
``none`` and ``static`` configurations and runs ``reflect.optimize_result``
on every ``run``.  The measured phase then repeats suite cycles of the
dynamically optimised ``run`` closures on one thread.  The VM, rewrite and
reflect layers do all the work; the store does none.

Run as a script (``python stanford.py``) it performs one set-up and prints
``ready``: the parent times that child from spawn to the line, so
``setup_s`` includes interpreter start and imports.
"""

from __future__ import annotations

import os
import random
import resource
import subprocess
import sys
import time

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from tmlbench import common, spans  # noqa: E402

SETUPS = 5


class Suite:
    """The set-up's products: one static system and the dynamic closures."""

    def __init__(self):
        from repro import reflect
        from repro.bench.harness import CONFIG_NONE, CONFIG_STATIC
        from repro.bench.stanford import PROGRAMS
        from repro.lang import TycoonSystem

        self.programs = PROGRAMS
        self.names = sorted(PROGRAMS)
        none = TycoonSystem(options=CONFIG_NONE)
        self.static = TycoonSystem(options=CONFIG_STATIC)
        self.dynamic = {}
        self.optimize_ns = {}
        for name in self.names:
            none.compile(PROGRAMS[name].source)
            self.static.compile(PROGRAMS[name].source)
            start = time.perf_counter_ns()
            # looked up on the module at call time, so a traced run's
            # wrapper sees the call
            self.dynamic[name] = reflect.optimize_result(self.static, name, "run").closure
            self.optimize_ns[name] = time.perf_counter_ns() - start


def timed_setups() -> list[float]:
    """Spawn-to-ready seconds of ``SETUPS`` fresh set-up processes."""
    times = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdout=subprocess.PIPE,
            env=common.src_env(),
            cwd=common.ROOT,
            text=True,
        )
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        if proc.wait(timeout=120) != 0 or line.strip() != "ready":
            raise RuntimeError("stanford set-up process failed")
        times.append(elapsed)
    return times


class Checker:
    """Every checksum against the Python reference; every instruction count
    against the first run of the same program and configuration."""

    def __init__(self, programs):
        self.programs = programs
        self.expected = {name: p.reference(p.bench_n) for name, p in programs.items()}
        self.first_instr: dict[tuple[str, str], int] = {}
        #: wrong outputs (fail the run) and failed runs (counted)
        self.wrong: list[str] = []
        self.failures: list[str] = []

    def check(self, name: str, config: str, result) -> None:
        if result.value != self.expected[name]:
            self.wrong.append(
                f"{name}[{config}] = {result.value!r}, expected {self.expected[name]!r}"
            )
        first = self.first_instr.setdefault((name, config), result.instructions)
        if result.instructions != first:
            self.wrong.append(
                f"{name}[{config}] ran {result.instructions} instructions, "
                f"first run ran {first}"
            )


class Loop:
    """What one stretch of suite cycles measured."""

    def __init__(self, names):
        self.per_program: dict[str, list[float]] = {name: [] for name in names}
        self.cycle_s: list[float] = []
        self.failed = 0
        self.elapsed = 0.0

    @property
    def runs(self) -> int:
        return sum(len(v) for v in self.per_program.values())


def run_cycles(suite: Suite, checker: Checker, seconds: float, rng: random.Random) -> Loop:
    """Suite cycles, each in a seeded order, until ``seconds`` pass."""
    loop = Loop(suite.names)
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        order = list(suite.names)
        rng.shuffle(order)
        cycle_start = time.perf_counter()
        for name in order:
            vm = suite.static.vm()
            t0 = time.perf_counter()
            try:
                result = vm.call(suite.dynamic[name], [suite.programs[name].bench_n])
            except Exception as exc:  # a failed run is counted, not fatal
                loop.failed += 1
                checker.failures.append(f"{name}: {type(exc).__name__}: {exc}")
                continue
            loop.per_program[name].append(time.perf_counter() - t0)
            checker.check(name, "dynamic", result)
        loop.cycle_s.append(time.perf_counter() - cycle_start)
    loop.elapsed = time.perf_counter() - start
    return loop


def run(seed: int, seconds: float, trace: bool) -> int:
    rng = random.Random(seed)
    setup_times = timed_setups()
    recorder = spans.Recorder() if trace else None
    if recorder is not None:
        spans.install_compiler(recorder)
    suite = Suite()
    setup_spans = list(recorder.spans) if recorder else []
    checker = Checker(suite.programs)

    if not trace:
        loop = run_cycles(suite, checker, seconds, rng)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        runs_ms = {name: [t * 1e3 for t in v] for name, v in loop.per_program.items()}
        rows = {
            "setup_s (each)": " ".join(f"{t:.3f}" for t in setup_times),
            "cycles": len(loop.cycle_s),
            "mean runs/s": loop.runs / loop.elapsed,
            "fastest cycle runs/s": len(suite.names) / min(loop.cycle_s),
            "program: n / min / p50 / p95 / p99 ms": "",
        }
        rows.update(common.kind_rows(runs_ms))
        common.table("stanford", rows)
        metrics = {
            "setup_s": common.median(setup_times),
            "rss_mb": rss_mb,
            # the fastest run of each program: on a shared host the slow
            # stretches come from neighbours, the fast ones from the code
            "min_ms": common.kind_gm(runs_ms, 0.0),
        }
        return finish(checker, loop.runs + loop.failed, loop.failed, metrics, common.END_TO_END)

    # traced: half the time with the wrappers switched off, half on, so
    # the pair gives the tracing overhead of this workload
    recorder.enabled = False
    off = run_cycles(suite, checker, seconds / 2, rng)
    recorder.enabled = True
    loop_mark = len(recorder.spans)
    loop = run_cycles(suite, checker, seconds / 2, rng)
    loop_spans = recorder.spans[loop_mark:]

    # break-even: optimize time over the per-run saving, static vs dynamic
    break_even = {}
    for name in suite.names:
        closure = suite.static.closure(name, "run")
        static_s = float("inf")
        for _ in range(3):
            vm = suite.static.vm()
            t0 = time.perf_counter()
            result = vm.call(closure, [suite.programs[name].bench_n])
            static_s = min(static_s, time.perf_counter() - t0)
            checker.check(name, "static", result)
        saving = static_s - min(loop.per_program[name] + off.per_program[name])
        if saving > 0:
            break_even[name] = suite.optimize_ns[name] / 1e9 / saving
    recorder.uninstall()

    setup_self = spans.self_times(setup_spans)
    vm_spans = spans.by_name(loop_spans, "machine.vm")
    loop_instr = sum(s[6].get("instructions", 0) for s in vm_spans)
    metrics = dict.fromkeys(common.PER_LAYER, 0.0)
    metrics.update({
        "lang.front_ms": (setup_self.get("lang.check", 0) + setup_self.get("lang.cps", 0)) / 1e6,
        "rewrite.optimize_ms": setup_self.get("rewrite.optimize", 0) / 1e6,
        "rewrite.rules_fired": sum(s[6].get("rules_fired", 0)
                                   for s in spans.by_name(setup_spans, "rewrite.optimize")),
        "machine.codegen_ms": setup_self.get("machine.codegen", 0) / 1e6,
        "reflect.optimize_ms": setup_self.get("reflect.optimize", 0) / 1e6,
        "reflect.break_even_runs": common.median(break_even.values()),
        "machine.instructions": sum(v for (_, config), v in checker.first_instr.items()
                                    if config == "dynamic"),
        "machine.ns_per_instr": sum(s[2] - s[1] for s in vm_spans) / loop_instr,
        "trace.overhead": (loop.elapsed / len(loop.cycle_s)) / (off.elapsed / len(off.cycle_s)),
    })
    rows = {
        "untraced / traced cycles": f"{len(off.cycle_s)} / {len(loop.cycle_s)}",
        "traced-loop instructions": loop_instr,
    }
    rows.update({f"self ms [{k}] per set-up": v for k, v in spans.layer_table(setup_spans).items()})
    rows.update({f"self ms [{k}] traced loop": v for k, v in spans.layer_table(loop_spans).items()})
    rows.update({f"break-even runs [{k}]": v for k, v in break_even.items()})
    common.table("stanford traced", rows)
    failed = loop.failed + off.failed
    return finish(checker, loop.runs + off.runs + failed, failed, metrics, common.PER_LAYER)


def finish(checker: Checker, attempted: int, failed: int, metrics: dict, units: dict) -> int:
    for error in checker.failures[:20]:
        print(f"# failed: {error}", file=sys.stderr)
    for error in checker.wrong[:20]:
        print(f"# WRONG: {error}", file=sys.stderr)
    correct = not checker.wrong
    common.emit(correct, attempted, failed, metrics, units)
    return 0 if correct else 1


def _probe() -> None:
    Suite()
    print("ready", flush=True)


if __name__ == "__main__":
    _probe()
