"""Smoke tests for the benchmark: every workload at small sizes, its checks,
the tracer, and the result line.

    python3 -m pytest perfbench/smoke.py -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import specedge  # noqa: E402
import workloads  # noqa: E402
from layertrace import LayerTrace  # noqa: E402
from workloads import CheckFailed  # noqa: E402


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_small_passes_its_checks(name, tmp_path):
    runner = run.Runner(workloads.build(name, 7, str(tmp_path), small=True))
    runner.run_pass()
    runner.run_pass()
    assert runner.errors == []
    assert runner.attempted == 2 * sum(op.repeat for op in runner.workload.ops)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_pass_counts_match(name, tmp_path):
    workload = workloads.build(name, 7, str(tmp_path), small=True)
    runner = run.Runner(workload)
    tracer = LayerTrace()
    original = specedge.cli.find_edges
    tracer.install()
    try:
        assert specedge.cli.find_edges is not original
        assert specedge.edges.find_edges is specedge.cli.find_edges
        p = runner.run_pass()
        assert run.trace_assertions(tracer, workload, p.outputs) == []
        metrics = run.layer_metrics(tracer, sum(p.times), sum(p.scaled))
    finally:
        tracer.uninstall()
    assert specedge.cli.find_edges is original
    assert metrics["cli.main.calls"][0] == sum(op.metric != "library_s" for op in workload.ops)
    assert metrics["edges.find_edges.calls"][0] > 0


def test_montecarlo_flops_from_shapes(tmp_path):
    workload = workloads.build("montecarlo", 7, str(tmp_path), small=True)
    tracer = LayerTrace()
    tracer.install()
    try:
        run.Runner(workload).run_pass()
    finally:
        tracer.uninstall()
    calls = tracer.stats["simulate.sample_spectrum"].calls
    assert tracer.counts["simulate.replicates"] > 0 and calls > 0
    assert tracer.counts["simulate.gflop_computed"] > 0


def test_edge_checks_reject_bad_documents():
    good = {"edges": [{"e_star": 3.0}, {"e_star": 2.0}, {"e_star": 1.0}, {"e_star": 0.5}],
            "intervals": [[0.5, 1.0], [2.0, 3.0]]}
    assert workloads.check_edges_doc(good)["n_edges"] == 4
    odd = {"edges": good["edges"][:3], "intervals": [[0.5, 1.0]]}
    overlap = dict(good, intervals=[[0.5, 2.5], [2.0, 3.0]])
    unsorted = dict(good, edges=[good["edges"][i] for i in (1, 0, 2, 3)])
    for doc in (odd, overlap, unsorted):
        with pytest.raises(CheckFailed):
            workloads.check_edges_doc(doc)


def _grid_text(pop, n):
    grid = specedge.spectral.density_grid(pop, n)
    rows = [f"{x:.12g},{f:.12g}" for x, f in grid.points]
    return "\n".join(["x,f0", *rows, f"# atom_mass_at_zero = {grid.atom_at_zero:.12g}"])


def test_density_checks_reject_wrong_mass_and_wrong_values():
    pop = specedge.PopulationSpec(workloads.FIG1, 500)
    text = _grid_text(pop, 200)
    assert workloads.check_density_grid(pop, text, 200)["rows"] == 200
    lines = text.splitlines()
    scaled = [lines[0]] + [f"{r.split(',')[0]},{1.5 * float(r.split(',')[1]):.12g}"
                           for r in lines[1:-1]] + [lines[-1]]
    with pytest.raises(CheckFailed, match="mass"):
        workloads.check_density_grid(pop, "\n".join(scaled), 200)
    # Corrupt one sampled row by less than the mass tolerance.
    idx = 1 + np.linspace(0, 199, workloads.POINTWISE_SAMPLES).astype(int)[10]
    x, f = lines[idx].split(",")
    lines[idx] = f"{x},{float(f) + 1e-3:.12g}"
    with pytest.raises(CheckFailed, match="solve_m0"):
        workloads.check_density_grid(pop, "\n".join(lines), 200)


def test_runner_counts_failures_and_changing_outputs():
    calls = []

    def flaky():
        calls.append(1)
        return len(calls)

    def boom():
        raise ValueError("no")

    ops = [workloads.Op("changes", "library_s", flaky, lambda raw: raw, lambda out: {}),
           workloads.Op("raises", "library_s", boom, lambda raw: raw, lambda out: {})]
    runner = run.Runner(workloads.Workload("t", ops, [], "vector"))
    runner.run_pass()
    runner.run_pass()
    assert runner.attempted == 4 and runner.failed == 3
    assert any("differs" in e for e in runner.errors)


def test_reference_comparison():
    assert run.same_values({"n": 3, "x": [1.0, 2.0]}, {"n": 3, "x": [1.0, 2.0 + 1e-12]}) is None
    assert run.same_values({"n": 3}, {"n": 4}) is not None
    assert run.same_values({"x": 1.0}, {"x": 1.0 + 1e-6}) is not None
    reference = json.loads((HERE / "reference.json").read_text())
    assert sorted(reference) == sorted(workloads.NAMES)


def test_result_line_and_missing_program(tmp_path):
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "montecarlo",
                          "--seed", "3", "--seconds", "0.1", "--trace", "0"],
                         capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert sorted(result["metrics"]) == ["cli_s", "library_s", "peak_rss_mb", "setup_s", "wall_s"]

    alone = tmp_path / "bare"
    shutil.copytree(HERE, alone / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, os.path.join(HERE.name, "run.py"), "--workload", "density",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=alone, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert not out.stdout.strip()
