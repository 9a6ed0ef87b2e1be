"""End-to-end command-line checks: outputs, manifests, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import specedge
from specedge import (
    OneWayDesign,
    PopulationSpec,
    SimConfig,
    oneway_population,
    sample_spectrum,
    spectral,
)
from specedge.cli import main
from specedge.errors import PopulationError

FIG1 = {"n_dim": 500, "entries": [
    {"t": -2.0, "mult": 350}, {"t": 0.5, "mult": 300}, {"t": 6.0, "mult": 50}]}
FIG2 = {"n_dim": 500, "entries": [{"t": -1.0, "mult": 400}, {"t": 4.0, "mult": 100}]}
ID500 = {"n_dim": 500, "entries": [{"t": 1.0, "mult": 500}]}
DESIGN20 = {"n": 20, "p": 20, "I": 10, "J": 2, "sigma1_sq": 0.0, "sigma2_sq": 1.0}


@pytest.fixture
def ws(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write(ws, name, obj):
    path = ws / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_edges_fig1(ws):
    pop = write(ws, "pop.json", FIG1)
    assert main(["edges", pop, "--out", "edges.json"]) == 0
    report = json.loads((ws / "edges.json").read_text())
    assert len(report["edges"]) == 4
    assert all(e["soft"] for e in report["edges"])
    assert (ws / "edges.json.manifest.json").exists()
    manifest = json.loads((ws / "edges.json.manifest.json").read_text())
    assert manifest["command"] == "edges"
    assert list(manifest["inputs"]) == [pop]


SLOW_STEP = {"edges": ("cli", "find_edges"), "test": ("twtest", "edge_test"),
             "density": ("spectral", "density_grid"),
             "simulate": ("simulate", "support_adherence"),
             "swapseq": ("swaps", "build_swap_sequence")}


@pytest.mark.parametrize("command", list(SLOW_STEP))
def test_manifest_wall_time_covers_the_computation(ws, monkeypatch, command):
    # Each command's compute step sleeps 0.05 s; the manifest's wall time
    # runs from the command's start, so it includes that step.
    import importlib

    module, name = SLOW_STEP[command]
    owner = importlib.import_module(f"specedge.{module}")
    step = getattr(owner, name)

    def slow(*args, **kwargs):
        time.sleep(0.05)
        return step(*args, **kwargs)

    monkeypatch.setattr(owner, name, slow)
    pop = write(ws, "pop.json", ID500)
    np.savetxt(ws / "eigs.txt", sample_spectrum(
        PopulationSpec(((1.0, 500),), 500), SimConfig(reps=1, seed=1), 0))
    argv = {"edges": ["edges", pop], "test": ["test", pop, "eigs.txt"],
            "density": ["density", pop, "--grid", "10"],
            "simulate": ["simulate", pop, "--mode", "adherence", "--reps", "1"],
            "swapseq": ["swapseq", pop]}[command]
    assert main(argv + ["--out", "out.txt"]) == 0
    manifest = json.loads((ws / "out.txt.manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["wall_time_s"] >= 0.05


def test_edges_fig2_flags_hard_edge(ws):
    pop = write(ws, "pop.json", FIG2)
    assert main(["edges", pop, "--tau", "0.05", "--out", "edges.json"]) == 0
    report = json.loads((ws / "edges.json").read_text())
    hard = [e for e in report["edges"] if not e["soft"]]
    assert len(hard) == 1
    assert hard[0]["m_star"] == "inf" and hard[0]["e_star"] == 0.0
    assert hard[0]["regular"] is False


def test_edges_parse_error_exit_2(ws):
    bad = write(ws, "pop.json", {"n_dim": 10, "entries": []})
    assert main(["edges", bad, "--out", "edges.json"]) == 2
    (ws / "junk.json").write_text("{not json")
    assert main(["edges", str(ws / "junk.json"), "--out", "edges.json"]) == 2
    assert main(["edges", str(ws / "missing.json"), "--out", "e.json"]) == 2


def test_malformed_data_files_exit_2(ws):
    design = write(ws, "design.json", DESIGN20)
    (ws / "eigs.txt").write_text("1.0\nnot-a-number\n")
    assert main(["test", design, str(ws / "eigs.txt"), "--out", "r.json"]) == 2
    listing = write(ws, "list.json", [1, 2, 3])
    assert main(["test", listing, str(ws / "eigs.txt"), "--out", "r.json"]) == 2
    bad_design = write(ws, "bad.json", dict(DESIGN20, n="twenty"))
    assert main(["simulate", bad_design, "--reps", "1", "--out", "s.csv"]) == 2


def test_fractional_document_integers_exit_2(ws, capsys):
    # int() would read mult 2.5 as 2 and report edges of another population.
    pop = write(ws, "pop.json", {"n_dim": 10, "entries": [
        {"t": 1.0, "mult": 8}, {"t": 2.0, "mult": 2.5}]})
    assert main(["edges", pop, "--out", "edges.json"]) == 2
    assert "entries[1].mult must be an integer, got 2.5" in capsys.readouterr().err
    assert not (ws / "edges.json").exists()
    design = write(ws, "design.json", dict(DESIGN20, n=20.9))
    assert main(["simulate", design, "--reps", "1", "--out", "s.csv"]) == 2
    assert "n must be an integer, got 20.9" in capsys.readouterr().err


def test_document_values_that_are_not_numbers_exit_2(ws, capsys):
    # float() would read t = true as 1.0 and sigma2_sq = "1" as 1.0.
    pop = write(ws, "pop.json", {"n_dim": 10, "entries": [
        {"t": 1.0, "mult": 8}, {"t": True, "mult": 2}]})
    assert main(["edges", pop, "--out", "edges.json"]) == 2
    assert "entries[1].t must be a number, got True" in capsys.readouterr().err
    assert not (ws / "edges.json").exists()
    design = write(ws, "design.json", dict(DESIGN20, sigma2_sq="1"))
    assert main(["simulate", design, "--reps", "1", "--out", "s.csv"]) == 2
    assert "sigma2_sq must be a number, got '1'" in capsys.readouterr().err
    assert not (ws / "s.csv").exists()


def test_cmd_test_non_finite_eigenvalue_exit_2(ws, capsys):
    # A NaN lies in no edge window; it must not be skipped silently.
    pop = write(ws, "pop.json", FIG1)
    spec = PopulationSpec(tuple((e["t"], e["mult"]) for e in FIG1["entries"]), FIG1["n_dim"])
    eigs = sample_spectrum(spec, SimConfig(reps=1, seed=1), 0)
    eigs[-1] = np.nan
    np.savetxt(ws / "eigs.txt", eigs)
    assert main(["test", pop, str(ws / "eigs.txt"), "--out", "r.json"]) == 2
    assert "input error: 1 of 500 eigenvalues are not finite" in capsys.readouterr().err
    assert not (ws / "r.json").exists()


@pytest.mark.parametrize("argv", [
    ["density", "{pop}", "--grid", "-1"],
    ["density", "{pop}", "--grid", "0"],
    ["test", "{pop}", "{eigs}", "--alpha", "1.5"],
    ["test", "{pop}", "{eigs}", "--alpha", "nan"],
    ["swapseq", "{pop}", "--phi", "nan"],
    ["swapseq", "{pop}", "--phi", "0"],
    ["swapseq", "{pop}", "--c0", "0"],
    ["swapseq", "{pop}", "--c0", "1.5"],
    ["simulate", "{pop}", "--mode", "adherence", "--reps", "1", "--delta", "nan"],
    ["simulate", "{pop}", "--mode", "adherence", "--reps", "1", "--delta", "-0.1"],
    ["simulate", "{pop}", "--mode", "concentration", "--reps", "1", "--epsilon", "nan"],
])
def test_out_of_domain_arguments_exit_2(ws, capsys, argv):
    pop = write(ws, "pop.json", FIG1)
    np.savetxt(ws / "eigs.txt", np.linspace(-5.0, 20.0, 500))
    args = [a.format(pop=pop, eigs=ws / "eigs.txt") for a in argv]
    assert main(args + ["--out", "out.txt"]) == 2
    assert "input error" in capsys.readouterr().err
    assert not (ws / "out.txt").exists()


def test_bad_eta_and_scale_factor_are_named(ws, capsys):
    # Each error names the argument at fault, not the point z = E* + i*eta
    # it makes or a diagonal value of the population it scales.
    pop = write(ws, "pop.json", {"n_dim": 400, "entries": [{"t": 1.0, "mult": 400}]})
    for eta in ("-1", "0", "nan"):
        assert main(["simulate", pop, "--mode", "locallaw", "--reps", "1", "--eta", eta,
                     "--out", "l.csv"]) == 2
        err = capsys.readouterr().err
        assert err == f"input error: eta must be finite and positive, got {float(eta)!r}\n"
    for c in (math.nan, math.inf):
        with pytest.raises(PopulationError, match="^scale factor must be finite and positive"):
            PopulationSpec(((1.0, 400),), 400).scaled(c)


def test_edges_near_merged_exit_0(ws):
    pop = write(ws, "pop.json", {"n_dim": 300, "entries": [
        {"t": 1.0, "mult": 100}, {"t": 1.0001, "mult": 100}, {"t": 3.0, "mult": 100}]})
    assert main(["edges", pop, "--out", "edges.json"]) == 0
    assert len(json.loads((ws / "edges.json").read_text())["edges"]) == 2


def test_edges_solver_failure_exit_3(ws, monkeypatch, capsys):
    import specedge.edges

    monkeypatch.setattr(specedge.edges, "_g_derivs", lambda p, d, j, s: np.full((3, s.size), np.nan))
    pop = write(ws, "pop.json", FIG1)
    assert main(["edges", pop, "--out", "edges.json"]) == 3
    assert "numerical failure: NonConvergence" in capsys.readouterr().err


def test_edges_degenerate_exit(ws):
    pop = write(ws, "pop.json", {"n_dim": 100, "entries": [{"t": 0.0, "mult": 100}]})
    assert main(["edges", pop, "--out", "edges.json"]) == 4


def test_density_ambiguous_root_exit_3(ws, monkeypatch, capsys):
    # chains that leave each edge into the wrong half plane: every Newton
    # root is the conjugate of the boundary value, a second root with
    # |Im m| > 0, and the certificate rejects each one
    chains = spectral._chains
    monkeypatch.setattr(spectral, "_chains", lambda t, c, a, anchors, *rest: chains(
        t, c, a, (*anchors[:5], np.conj(anchors[5])), *rest))
    pop = write(ws, "pop.json", FIG1)
    assert main(["density", pop, "--grid", "10", "--out", "d.csv"]) == 3
    assert "no certified root of z0(m) = x" in capsys.readouterr().err


def test_density_grid_rows(ws):
    pop = write(ws, "pop.json", ID500)
    assert main(["density", pop, "--grid", "10", "--out", "d.csv"]) == 0
    lines = (ws / "d.csv").read_text().strip().splitlines()
    data = [l for l in lines if not l.startswith(("x,", "#"))]
    assert len(data) == 10
    assert lines[-1].startswith("# atom_mass_at_zero")


def test_density_identity_matches_closed_form(ws):
    pop = write(ws, "pop.json", ID500)
    assert main(["density", pop, "--grid", "400", "--out", "d.csv"]) == 0
    rows = np.loadtxt(ws / "d.csv", delimiter=",", skiprows=1, comments="#")
    xs, f0 = rows[:, 0], rows[:, 1]
    inside = (xs > 1e-9) & (xs < 4 - 1e-9)
    expected = np.sqrt(np.clip((4 - xs) * xs, 0, None)) / (2 * np.pi * np.clip(xs, 1e-12, None))
    assert np.max(np.abs(f0[inside] - expected[inside])) < 1e-6
    assert np.all(f0[~inside] == 0)


def test_density_fig2_two_bulks(ws):
    pop = write(ws, "pop.json", FIG2)
    assert main(["density", pop, "--grid", "240", "--out", "d.csv"]) == 0
    rows = np.loadtxt(ws / "d.csv", delimiter=",", skiprows=1, comments="#")
    xs, f0 = rows[:, 0], rows[:, 1]
    assert f0[(xs > -3.0) & (xs < -0.5)].min() > 0
    assert f0[(xs > 1.0) & (xs < 7.0)].max() > 0
    assert np.all(f0[(xs > 0.1) & (xs < 0.6)] == 0)   # the gap above the hard edge


def golden_eigenvalues(tmp):
    design = OneWayDesign(**DESIGN20)
    pop = oneway_population(design)
    eigs = sample_spectrum(pop, SimConfig(reps=1, seed=424242), 0)
    path = tmp / "eigs.txt"
    np.savetxt(path, eigs)
    return str(path)


def test_cmd_test_golden_regression(ws):
    design = write(ws, "design.json", DESIGN20)
    eigs = golden_eigenvalues(ws)
    assert main(["test", design, eigs, "--alpha", "0.05", "--out", "r.json"]) == 0
    report = json.loads((ws / "r.json").read_text())
    assert report["statistic"] == pytest.approx(-2.4311397333355127, abs=1e-9)
    assert report["p_value"] == pytest.approx(0.8340246355831529, abs=1e-9)
    assert report["reject"] is False


def test_cmd_test_alpha_one_always_rejects(ws):
    design = write(ws, "design.json", DESIGN20)
    eigs = golden_eigenvalues(ws)
    assert main(["test", design, eigs, "--alpha", "1.0", "--out", "r.json"]) == 0
    report = json.loads((ws / "r.json").read_text())
    assert report["reject"] is True


def test_cmd_test_irregular_edge_exit_4(ws):
    pop = write(ws, "pop.json", ID500)
    eigs = golden_eigenvalues(ws)
    # edge index 1 is the hard edge of the identity population
    assert main(["test", pop, eigs, "--edge-index", "1", "--out", "r.json"]) == 4


def test_cmd_test_plugin(ws):
    design = write(ws, "design.json", DESIGN20)
    rng = np.random.default_rng(7)
    y = rng.standard_normal((20, 20))
    np.savetxt(ws / "y.csv", y, delimiter=",")
    assert main(["test", design, str(ws / "y.csv"), "--plugin", "--out", "r.json"]) == 0
    report = json.loads((ws / "r.json").read_text())
    assert report["plugin_variances"] is not None
    assert report["plugin_variances"][1] == pytest.approx(1.0, abs=0.4)


def test_cmd_test_edge_index_out_of_range_exit_2(ws, capsys):
    pop = write(ws, "pop.json", FIG1)
    np.savetxt(ws / "eigs.txt", np.linspace(-5.0, 20.0, 500))
    assert main(["test", pop, str(ws / "eigs.txt"), "--edge-index", "99", "--out", "r.json"]) == 2
    assert "--edge-index 99 out of range; report has 4 edges" in capsys.readouterr().err
    assert not (ws / "r.json").exists()


def test_cmd_test_plugin_needs_a_design_file(ws, capsys):
    pop = write(ws, "pop.json", FIG1)
    np.savetxt(ws / "y.csv", np.ones((4, 4)), delimiter=",")
    assert main(["test", pop, str(ws / "y.csv"), "--plugin", "--out", "r.json"]) == 2
    assert "--plugin requires a design file" in capsys.readouterr().err
    assert not (ws / "r.json").exists()


def test_simulate_table1_smoke(ws):
    design = write(ws, "design.json", DESIGN20)
    code = main(["simulate", design, "--mode", "table1", "--reps", "200",
                 "--seed", "3", "--out", "t.csv"])
    assert code == 0
    rows = (ws / "t.csv").read_text().strip().splitlines()
    assert rows[0] == "level,coverage,std_error"
    assert len(rows) == 4
    manifest = json.loads((ws / "t.csv.manifest.json").read_text())
    assert manifest["seed"] == 3


def test_simulate_rerun_bit_identical(ws):
    design = write(ws, "design.json", DESIGN20)
    args = ["simulate", design, "--mode", "table1", "--reps", "100", "--seed", "5"]
    assert main(args + ["--out", "a.csv"]) == 0
    assert main(args + ["--out", "b.csv", "--parallel-width", "3"]) == 0
    assert (ws / "a.csv").read_text() == (ws / "b.csv").read_text()


def test_simulate_adherence_mode(ws):
    pop = write(ws, "pop.json", ID500)
    code = main(["simulate", pop, "--mode", "adherence", "--reps", "20",
                 "--seed", "3", "--delta", "0.3", "--out", "a.csv"])
    assert code == 0
    assert "outside_support_fraction,0.000000" in (ws / "a.csv").read_text()


def test_simulate_concentration_mode(ws):
    pop = write(ws, "pop.json", FIG1)
    code = main(["simulate", pop, "--mode", "concentration", "--reps", "2",
                 "--seed", "3", "--tau", "0.01", "--out", "c.csv"])
    assert code == 0
    rows = (ws / "c.csv").read_text().splitlines()
    assert rows[0] == "metric,value"
    assert rows[1].startswith("exclusion_zone_fraction,")


def test_simulate_table1_needs_a_design_file(ws, capsys):
    pop = write(ws, "pop.json", FIG1)
    assert main(["simulate", pop, "--mode", "table1", "--reps", "1", "--out", "t.csv"]) == 2
    assert "table1 mode requires a design file" in capsys.readouterr().err
    assert not (ws / "t.csv").exists()


def test_simulate_negative_seed_exits_2_without_a_traceback(ws, capsys):
    pop = write(ws, "pop.json", ID500)
    code = main(["simulate", pop, "--mode", "adherence", "--reps", "2",
                 "--seed", "-1", "--out", "a.csv"])
    assert code == 2
    err = capsys.readouterr().err
    assert "seed" in err and "Traceback" not in err
    assert not (ws / "a.csv").exists()


def test_simulate_locallaw_mode(ws):
    pop = write(ws, "pop.json", {"n_dim": 200, "entries": [{"t": 1.0, "mult": 200}]})
    code = main(["simulate", pop, "--mode", "locallaw", "--reps", "5",
                 "--seed", "3", "--out", "l.csv"])
    assert code == 0
    text = (ws / "l.csv").read_text()
    assert "median_m_err" in text and "psi" in text


def test_swapseq_identity_zero_length(ws):
    pop = write(ws, "pop.json", ID500)
    assert main(["swapseq", pop, "--out", "seq.jsonl"]) == 0
    lines = (ws / "seq.jsonl").read_text().strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["phase"] == "done"
    diag = (ws / "seq.jsonl.diagnostics.csv").read_text().strip().splitlines()
    assert len(diag) == 1   # header only


def test_swapseq_verify_round_trip(ws):
    pop = write(ws, "pop.json", FIG2)
    assert main(["swapseq", pop, "--out", "seq.jsonl"]) == 0
    assert main(["swapseq", pop, "--verify", "seq.jsonl", "--out", "x.jsonl"]) == 0
    # tampered sequence fails verification with a numerical exit code
    lines = (ws / "seq.jsonl").read_text().splitlines()
    rec = json.loads(lines[3])
    rec["entries_digest"] = "0" * 16
    lines[3] = json.dumps(rec)
    (ws / "seq.jsonl").write_text("\n".join(lines) + "\n")
    assert main(["swapseq", pop, "--verify", "seq.jsonl", "--out", "x.jsonl"]) == 3


def test_swapseq_verify_of_a_truncated_export_exit_3(ws, capsys):
    pop = write(ws, "pop.json", FIG1)
    assert main(["swapseq", pop, "--out", "seq.jsonl"]) == 0
    lines = (ws / "seq.jsonl").read_text().splitlines()
    (ws / "seq.jsonl").write_text("\n".join(lines[:-1]) + "\n")
    capsys.readouterr()
    assert main(["swapseq", pop, "--verify", "seq.jsonl", "--out", "x.jsonl"]) == 3
    assert "1000 recorded states, rebuilt 1001" in capsys.readouterr().err


def test_swapseq_verify_checks_every_field(ws, capsys):
    # A record whose digest still matches but whose e_star is one ulp off
    # is not the sequence the builder makes.
    pop = write(ws, "pop.json", FIG2)
    assert main(["swapseq", pop, "--out", "seq.jsonl"]) == 0
    lines = (ws / "seq.jsonl").read_text().splitlines()
    last = json.loads(lines[-1])
    last["e_star"] = math.nextafter(last["e_star"], math.inf)
    lines[-1] = json.dumps(last)
    (ws / "seq.jsonl").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["swapseq", pop, "--verify", "seq.jsonl", "--out", "x.jsonl"]) == 3
    err = capsys.readouterr().err
    assert f"at step {last['step']}: e_star mismatch" in err


def test_swapseq_verify_rejects_a_non_object_line(ws):
    pop = write(ws, "pop.json", ID500)
    assert main(["swapseq", pop, "--out", "seq.jsonl"]) == 0
    (ws / "seq.jsonl").write_text("[1, 2]\n")
    assert main(["swapseq", pop, "--verify", "seq.jsonl", "--out", "x.jsonl"]) == 2


NEGPOP = {"n_dim": 500, "entries": [{"t": -8.0, "mult": 100}, {"t": -0.5, "mult": 400}]}
NEGHALF = {"n_dim": 250, "entries": [{"t": -8.0, "mult": 50}, {"t": -0.5, "mult": 200}]}
FIG1X2 = {"n_dim": 1000, "entries": [
    {"t": -2.0, "mult": 700}, {"t": 0.5, "mult": 600}, {"t": 6.0, "mult": 100}]}


@pytest.mark.parametrize("obj, edge_arg, sha", [
    (FIG1, [], "fb5287217a14f3919bbeec691a245cc8c323210d51e8db25beb21d49ccc49008"),
    (NEGPOP, ["--edge-index", "2"], "592766d5394f47c811c3199c3ae3a8ab075da2679f98daed2c55195209a53891"),
    (NEGHALF, ["--edge-index", "2"], "4ea941a8a2c80f9aa937e11a8a9027073441ad1e6ea044bf3fd7730a3b98fdaf"),
    (FIG2, [], "824b3fc762051282aeda004232a345ef19d1dae8ba9f61834c1397fcae267a79"),
    (FIG1X2, [], "9dd432494a2c0f58bfcb77c438e66f9682519a499158d66819ee3fdc50959d07"),
], ids=["fig1", "negpop", "neghalf", "fig2", "fig1x2"])
def test_swapseq_diagnostics_are_pinned_bit_for_bit(ws, obj, edge_arg, sha):
    # Every pair check's measurements and sum-rule residuals, as written.
    pop = write(ws, "pop.json", obj)
    assert main(["swapseq", pop, *edge_arg, "--out", "seq.jsonl"]) == 0
    text = (ws / "seq.jsonl.diagnostics.csv").read_bytes()
    assert hashlib.sha256(text).hexdigest() == sha


def test_swapseq_builds_at_a_small_scale(ws):
    # FIG1 scaled by 1e-4: the edge read-off is relative to its own
    # summands, so no absolute curvature bound rejects a small scale.
    small = {"n_dim": 500, "entries": [{"t": e["t"] * 1e-4, "mult": e["mult"]}
                                       for e in FIG1["entries"]]}
    pop = write(ws, "pop.json", small)
    assert main(["swapseq", pop, "--out", "seq.jsonl"]) == 0
    assert len((ws / "seq.jsonl").read_text().splitlines()) == 1001


@pytest.mark.parametrize("content", [None, "not json\n", "[1, 2]\n"],
                         ids=["missing", "malformed", "non-object"])
def test_swapseq_verify_file_is_read_before_the_build(ws, monkeypatch, content):
    pop = write(ws, "pop.json", FIG1)
    if content is not None:
        (ws / "seq.jsonl").write_text(content)
    builds = []
    build = specedge.swaps.build_swap_sequence
    monkeypatch.setattr(specedge.swaps, "build_swap_sequence",
                        lambda *args, **kw: builds.append(1) or build(*args, **kw))
    assert main(["swapseq", pop, "--verify", "seq.jsonl", "--out", "x.jsonl"]) == 2
    assert builds == []


def test_parser_is_built_once_and_commands_are_looked_up_per_call(ws, monkeypatch, capsys):
    from specedge import cli

    pop = write(ws, "pop.json", FIG1)
    spec = PopulationSpec(tuple((e["t"], e["mult"]) for e in FIG1["entries"]), FIG1["n_dim"])
    np.savetxt(ws / "eigs.txt", sample_spectrum(spec, SimConfig(reps=1, seed=1), 0))
    runs = {"edges": ["edges", pop],
            "test": ["test", pop, str(ws / "eigs.txt"), "--tau", "0.01"]}
    first = {}
    for name, argv in runs.items():
        cli._parser.cache_clear()
        assert main(argv + ["--out", f"first_{name}.out"]) == 0
        first[name] = (ws / f"first_{name}.out").read_bytes()

    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["edges"])
    assert exc.value.code == 2
    assert "usage: specedge edges" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == specedge.__version__
    for name, argv in runs.items():
        assert main(argv + ["--out", f"again_{name}.out"]) == 0
        assert (ws / f"again_{name}.out").read_bytes() == first[name]

    seen = []
    monkeypatch.setattr(cli, "cmd_edges", lambda args: seen.append(args.population) or 7)
    assert main(["edges", pop]) == 7
    assert seen == [pop]
    assert len(builds) == 1


def run_child(*argv):
    """The CLI in a child process, for its own standard streams."""
    # The fixture has chdir'd away from the checkout, so a relative
    # PYTHONPATH (e.g. `src`) no longer resolves in the child; point it at
    # the directory the imported package came from.
    package_root = str(Path(specedge.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "specedge.cli", *argv],
                          capture_output=True, text=True, env=env)


def test_console_entry_point(ws):
    pop = write(ws, "pop.json", ID500)
    proc = run_child("edges", pop, "--out", "e.json")
    assert proc.returncode == 0
    assert "2 edges" in proc.stdout


def test_cmd_test_empty_eigenvalue_file_exit_4_without_a_warning(ws):
    # The typed error alone reaches stderr: no numpy warning about the
    # empty input comes before it.
    pop = write(ws, "pop.json", ID500)
    (ws / "eigs.txt").write_text("")
    proc = run_child("test", pop, "eigs.txt", "--out", "r.json")
    assert proc.returncode == 4
    assert proc.stderr == "precondition failure: EmptyWindow: eigenvalue list is empty\n"
    assert not (ws / "r.json").exists()


@pytest.mark.parametrize("data, message", [
    ("nan", "1 of 400 data entries are not finite"),
    ("1e200", "the plug-in estimates overflow: Y'BY is not finite"),
], ids=["nan-entry", "overflow"])
def test_cmd_test_plugin_data_not_finite_exit_2_without_a_warning(ws, data, message):
    # One NaN entry, or entries near 1e200 whose quadratic forms overflow:
    # the typed error names the data, and no numpy warning comes before it.
    design = write(ws, "design.json", DESIGN20)
    y = np.random.default_rng(7).standard_normal((20, 20))
    if data == "nan":
        y[3, 4] = np.nan
    else:
        y *= 1e200
    np.savetxt(ws / "y.csv", y, delimiter=",")
    proc = run_child("test", design, "y.csv", "--plugin", "--out", "r.json")
    assert proc.returncode == 2
    assert proc.stderr == f"input error: {message}\n"
    assert not (ws / "r.json").exists()


def test_edges_zero_of_g_prime_at_q_zero_exit_3_without_a_warning(ws):
    # Values down to 3e-21 of the norm beside a zero group: the search puts
    # a zero of g' at q = 0 exactly, where m* = 1/q* has no value.  The
    # typed error names it, and no numpy warning from the read-off at a
    # point on a pole comes before it.
    pop = write(ws, "pop.json", {"n_dim": 53, "entries": [
        {"t": -6.59e-10, "mult": 27}, {"t": -6.22e-19, "mult": 25},
        {"t": -2.66e-20, "mult": 26}, {"t": 0.0, "mult": 28}, {"t": 7.78, "mult": 26}]})
    proc = run_child("edges", pop, "--out", "e.json")
    assert proc.returncode == 3
    assert proc.stderr == ("numerical failure: BracketFailure: zero of g' at q* = 0, "
                           "where m* = 1/q* is infinite\n")
    assert not (ws / "e.json").exists()
