"""The benchmark's own tests.  Run with ``python -m pytest tmlbench``.

They check that exact counts repeat under one seed, that the printed
metric names are the ones ``BENCHMARK.json`` lists, that the oracles turn
red on a wrong output, and that the runner refuses to report without the
program's sources.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

from tmlbench import common, run, serve, stanford

sys.path.insert(0, common.SRC)

EXACT = (
    "machine.instructions",
    "rewrite.rules_fired",
    "store.fsyncs_per_commit",
    "store.pages_written_per_commit",
)


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.fixture
def quick(monkeypatch):
    """One set-up per run instead of several."""
    monkeypatch.setattr(stanford, "SETUPS", 1)
    monkeypatch.setattr(serve, "SETUPS", 1)


def _benchmark_json() -> dict:
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as src:
        return json.load(src)


def test_catalogue_matches_benchmark_json():
    spec = _benchmark_json()
    assert [m["name"] for m in spec["end_to_end"]] == list(common.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(common.PER_LAYER)
    for metric in spec["end_to_end"]:
        assert metric["unit"] == common.END_TO_END[metric["name"]]
    for metric in spec["per_layer"]:
        assert metric["unit"] == common.PER_LAYER[metric["name"]]
    assert [w["name"] for w in spec["workloads"]] == ["stanford", "mixed-small"]
    # kv-big stays runnable but is left out of BENCHMARK.json (NOTES.md)
    assert set(run.WORKLOADS) == {"stanford", "kv-big", "mixed-small"}


def test_stanford_exact_counts_repeat(quick, capsys):
    runs = []
    for _ in range(2):
        assert stanford.run(seed=7, seconds=1.0, trace=True) == 0
        runs.append(_result(capsys))
    first, second = (r["metrics"] for r in runs)
    assert set(first) == set(common.PER_LAYER)
    assert first["machine.instructions"]["value"] > 0
    assert first["rewrite.rules_fired"]["value"] > 0
    for name in EXACT:
        assert first[name] == second[name], name


def test_stanford_untraced_prints_end_to_end(quick, capsys):
    assert stanford.run(seed=3, seconds=1.0, trace=False) == 0
    result = _result(capsys)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(common.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize(
    "workload, fsyncs, vm", [("mixed-small", 4, True), ("kv-big", 5, False)]
)
def test_server_exact_counts_repeat(quick, capsys, workload, fsyncs, vm):
    runs = []
    for _ in range(2):
        serve.run(workload, seed=5, seconds=1.0, trace=True)
        runs.append(_result(capsys))
    shutil.rmtree(common.WORK, ignore_errors=True)
    first, second = (r["metrics"] for r in runs)
    assert set(first) == set(common.PER_LAYER)
    # the pager's two header syncs (two fsyncs each), plus the commit log's
    assert first["store.fsyncs_per_commit"]["value"] == fsyncs
    assert first["store.pages_written_per_commit"]["value"] > 0
    assert (first["machine.instructions"]["value"] > 0) == vm
    for name in EXACT:
        assert first[name] == second[name], name


def test_stanford_oracle_red_on_corrupted_checksum(quick, capsys, monkeypatch):
    from repro.bench.stanford import PROGRAMS

    fib = PROGRAMS["fib"]
    corrupted = dataclasses.replace(fib, reference=lambda n: fib.reference(n) + 1)
    monkeypatch.setitem(PROGRAMS, "fib", corrupted)
    assert stanford.run(seed=1, seconds=0.5, trace=False) == 1
    assert _result(capsys)["correct"] is False


def test_server_oracle_red_on_wrong_value():
    state = serve.Run("mixed-small", seed=1)
    state.keys = ["k00000", "k00001"]
    state.model.acked("k00000", "a")
    state.model.acked("k00001", "b")

    class Corrupting:
        def get(self, *roots):
            return {root: "a" for root in roots}

    state.read_back(Corrupting())
    assert state.wrong == ["read-back k00001 = 'a'"]


def test_model_accepts_either_value_after_failed_write():
    model = serve.Model()
    model.acked("k", "old")
    model.unknown("k", "new")
    assert model.allows("k", "old") and model.allows("k", "new")
    model.acked("k", "newer")
    assert not model.allows("k", "old")


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(os.path.join(common.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(common.ROOT, "tmlbench"), tmp_path / "tmlbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "tmlbench/run.py", "--workload", "stanford",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
