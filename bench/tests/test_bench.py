"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import run as bench  # noqa: E402
import homsim.experiments as experiments  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    non_increasing,
    proportional,
    redistribution_ok,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]


@pytest.fixture(autouse=True)
def one_setup_probe(monkeypatch):
    monkeypatch.setattr(bench, "SETUP_PROBES", 1)


@pytest.fixture
def small_chunks(monkeypatch):
    """Chunks of 50 trajectories, so that a tiny run still starts the pool."""
    monkeypatch.setattr(experiments, "_CHUNK", 50)


def tiny_workload(name):
    w = WORKLOADS[name]
    if name == "oracle-me":
        return dataclasses.replace(w, n_traj=50, grid=((0.1, 0.2),))
    return dataclasses.replace(w, n_traj=120, grid=w.grid[:2])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_runs_end_to_end(name, small_chunks):
    out = bench.measure(tiny_workload(name), seed=1, seconds=0.01)
    assert set(out["metrics"]) == set(END_TO_END)
    assert all(v > 0 for v, _, _ in out["metrics"].values())
    assert out["attempted"] >= 1
    assert 0 <= out["failed"] <= out["attempted"]
    assert len(out["digest"]) == 64


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_layer_and_repeats_its_counts(name, small_chunks):
    w = tiny_workload(name)
    first = bench.measure_traced(w, seed=3, seconds=0.01)["metrics"]
    second = bench.measure_traced(w, seed=3, seconds=0.01)["metrics"]
    assert set(first) == set(PER_LAYER)
    assert {k: first[k][0] for k in COUNTS} == {k: second[k][0] for k in COUNTS}


def test_traced_pool_workers_report_their_layers(small_chunks):
    w = tiny_workload("redistribute-phi")
    m = {k: v for k, (v, _, _) in bench.measure_traced(w, seed=1, seconds=0.01)["metrics"].items()}
    # 120 trajectories in chunks of 50 make 3 chunks per phase, all in workers
    assert m["experiments.pool_starts"] == 2
    assert m["experiments.chunks"] == 6
    assert m["trajectory.engine_builds"] == 6
    assert m["trajectory.windows"] >= 240
    assert 0 < m["experiments.pool_efficiency"] <= 1
    assert m["trajectory.expm_calls"] > 0


def test_seed_changes_the_digest():
    w = tiny_workload("herald-eta")
    a = bench.measure(w, seed=1, seconds=0.01)["digest"]
    b = bench.measure(w, seed=1, seconds=0.01)["digest"]
    c = bench.measure(w, seed=2, seconds=0.01)["digest"]
    assert a == b
    assert a != c


def test_tracer_restores_the_program():
    import homsim.trajectory as trajectory
    from tracing import Tracer

    before = (trajectory.run_until_click, trajectory.StageEngine.__init__,
              experiments.ProcessPoolExecutor)
    tracer = Tracer()
    tracer.install()
    assert trajectory.run_until_click is not before[0]
    tracer.uninstall()
    assert (trajectory.run_until_click, trajectory.StageEngine.__init__,
            experiments.ProcessPoolExecutor) == before


def test_checks():
    eta = [0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    assert proportional(eta, [0.1 * x + 0.002 for x in eta], [0.001] * 6)
    assert not proportional(eta, [0.1 * x + 0.02 for x in eta], [0.001] * 6)
    assert non_increasing([0.10, 0.09, 0.091], [0.001] * 3)
    assert not non_increasing([0.10, 0.09, 0.11], [0.001] * 3)
    pt = experiments.SweepPoint("phi", 0.0, 100, 0.1, 0.01, 0.99, 0.01, ps_hat=0.98,
                                ps_stderr=0.01)
    assert redistribution_ok(pt)
    assert not redistribution_ok(dataclasses.replace(pt, ps_hat=0.9))


def test_command_needs_the_program():
    """In a directory holding only BENCHMARK.json and bench/, the command
    fails without printing a result."""
    with tempfile.TemporaryDirectory(prefix=".bench-test-", dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(ROOT / "bench", Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(SPEC["command"] + ["--workload", "herald-eta", "--seed", "1",
                                                "--seconds", "1", "--trace", "0"],
                             cwd=tmp, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout == ""
