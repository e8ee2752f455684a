"""The shared sweep mechanism (repro.sim) and its driver, scripts/sim.py.

This module doubles as a toy suite: it exposes ``build_scenarios`` and
``NEGATIVE_CONTROL`` like the real harnesses do, and the tests register it
under the name ``toy``.
"""

import importlib.util
import json
import os

import pytest

from repro import sim
from repro.obs.metrics import METRICS

ROOTS: list[str] = []


def _passing(root, value):
    ROOTS.append(root)
    return {"value": value}


def _failing(root):
    ROOTS.append(root)
    raise AssertionError("invariant broken")


def _raising(root):
    ROOTS.append(root)
    raise RuntimeError("harness crashed")


def build_scenarios(quick=False):
    found, add = sim.scenarios()
    add("toy/pass", _passing, 3 if quick else 7)
    add("toy/fail", _failing)
    add("toy/raise", _raising)
    return found


NEGATIVE_CONTROL = ("negative-control/toy", _failing)


@pytest.fixture
def toy(monkeypatch):
    monkeypatch.setitem(sim.SUITES, "toy", __name__)
    ROOTS.clear()
    yield "toy"
    ROOTS.clear()


def test_run_sweep_reports_each_scenario(toy, tmp_path):
    calls = []
    before = METRICS.counter("sim.toy.failures").value
    report = sim.run_sweep(
        toy, str(tmp_path), progress=lambda *args: calls.append(args)
    )
    assert (report["scenarios"], report["passed"], report["failed"]) == (3, 1, 2)
    by_name = {r["name"]: r for r in report["results"]}
    assert by_name["toy/pass"]["ok"] and by_name["toy/pass"]["checks"] == {"value": 7}
    assert by_name["toy/fail"]["detail"] == "AssertionError: invariant broken"
    assert by_name["toy/raise"]["detail"] == "RuntimeError: harness crashed"
    assert [f["name"] for f in report["failures"]] == ["toy/fail", "toy/raise"]
    assert ROOTS == [os.path.join(str(tmp_path), f"s{i:03d}") for i in range(3)]
    assert [(done, total, result.name) for done, total, result in calls] == [
        (1, 3, "toy/pass"), (2, 3, "toy/fail"), (3, 3, "toy/raise"),
    ]
    assert METRICS.counter("sim.toy.failures").value == before + 2


def test_quick_selects_the_reduced_grid(toy, tmp_path):
    report = sim.run_sweep(toy, str(tmp_path), quick=True)
    assert report["results"][0]["checks"] == {"value": 3}


def test_negative_control_runs_only_the_control(toy, tmp_path):
    report = sim.run_sweep(toy, str(tmp_path), negative_control=True)
    assert [r["name"] for r in report["results"]] == ["negative-control/toy"]
    assert report["failed"] == 1
    assert ROOTS == [os.path.join(str(tmp_path), "s000")]


def test_wait_until_raises_the_message_on_timeout():
    sim.wait_until(lambda: True, 0.0, "never raised")
    with pytest.raises(AssertionError, match="still waiting"):
        sim.wait_until(lambda: False, 0.05, "still waiting", interval=0.01)


@pytest.mark.parametrize(
    "suite, full, quick",
    [
        ("exhaustion", 35, 12),
        ("recovery", 8, 4),
        ("replication", 226, 43),
        ("sharding", 35, 11),
    ],
)
def test_grid_sizes(suite, full, quick):
    module = importlib.import_module(sim.SUITES[suite])
    full_grid = module.build_scenarios(quick=False)
    quick_grid = module.build_scenarios(quick=True)
    assert (len(full_grid), len(quick_grid)) == (full, quick)
    assert len({name for name, _ in full_grid}) == full  # names are unique
    name, thunk = module.NEGATIVE_CONTROL
    assert name.startswith("negative-control/") and callable(thunk)


def test_crash_grid_is_every_crash_point_in_every_mode():
    from repro.store.crashsim import MODES, build_scenarios

    grid = build_scenarios()
    assert len(grid) % len(MODES) == 0 and len(grid) > 0
    assert len(build_scenarios(quick=True)) == len(grid)
    assert len({name for name, _ in grid}) == len(grid)


def _load_driver():
    path = os.path.join(os.path.dirname(__file__), "..", "scripts", "sim.py")
    spec = importlib.util.spec_from_file_location("sim_driver", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_driver_rejects_an_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        _load_driver().main(["no-such-suite"])
    assert exc.value.code != 0
    assert "invalid choice" in capsys.readouterr().err


def test_driver_exits_nonzero_on_a_failing_sweep(toy, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert _load_driver().main([toy, "--json", str(out)]) == 1
    summary = capsys.readouterr().out
    assert "toy-sim [full]: 3 scenarios" in summary and "2 FAILURES" in summary
    report = json.loads(out.read_text())
    assert (report["suite"], report["mode"], report["failed"]) == ("toy", "full", 2)
