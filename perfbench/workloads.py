"""The four benchmark workloads: seeded inputs, timed operations, output checks.

A workload is a list of operations. Each operation is either one
`specedge` CLI invocation, made in-process through `specedge.cli.main`, or
a direct call into the public library API. An operation has three parts:

* `run`    - the timed call;
* `output` - untimed: what the call produced (exit code, captured text and
             the files it wrote, or the returned values);
* `check`  - untimed: validates that output against invariants the result
             must satisfy and returns a small summary of numbers, which the
             runner compares with `reference.json` at the default seed.

Known-defect probes are separate from the timed operations. Each probe
exercises a defect that is known at the time the benchmark was written
and reports whether it still shows; probes are never counted as attempted
or failed operations.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import specedge as se
from specedge import cli, spectral

DEFAULT_SEED = 1
NAMES = ("density", "edges", "montecarlo", "swapseq")

FIG1 = ((-2.0, 350), (0.5, 300), (6.0, 50))
FIG2 = ((-1.0, 400), (4.0, 100))
FIG1X2 = ((-2.0, 700), (0.5, 600), (6.0, 100))
# NEGPOP ((-8, 100), (-0.5, 400)) at N=500 at half size: one swap pass of the
# full size takes 7 s, which leaves too few passes in a run to be steady.
NEGPOP_HALF = ((-8.0, 50), (-0.5, 200))
NEAR_MERGED = ((1.0, 100), (1.0001, 100), (3.0, 100))
TABLE1_N20 = {"n": 20, "p": 20, "I": 10, "J": 2, "sigma1_sq": 0.0, "sigma2_sq": 1.0}
TABLE1_N100 = {"n": 100, "p": 100, "I": 50, "J": 2, "sigma1_sq": 0.0, "sigma2_sq": 1.0}
CLUSTER_CENTRES = (-6.0, -1.5, 0.5, 2.0, 8.0)

TAU = 0.01                # regularity gate for edge tests and concentration
ALPHA = 0.05
OFF_AXIS = 1e-9           # solve_m0 reference point: x + i*OFF_AXIS
POINTWISE_TOL = 1e-6      # |f - Im m0(x + i*OFF_AXIS)/pi| <= tol * (1 + |f|)
POINTWISE_SAMPLES = 25


class CheckFailed(Exception):
    """An operation's output violates an invariant."""


@dataclass
class Op:
    name: str
    metric: str                       # per-command time it adds to, e.g. "density_cmd_s"
    run: Callable[[], object]
    output: Callable[[object], object]
    check: Callable[[object], dict]
    # Calls this op makes itself into the public API, by traced name;
    # the traced run asserts that the tracer counts exactly these.
    direct_calls: dict = field(default_factory=dict)
    # Swap states this op builds (JSONL lines written or verified).
    states: Callable[[object], int] | None = None
    # Calls per pass; the op's time in a pass is the median over them.
    repeat: int = 1


@dataclass
class Probe:
    name: str
    run: Callable[[], str | None]     # None when the defect no longer shows


@dataclass
class Workload:
    name: str
    ops: list[Op]
    probes: list[Probe]
    kernel: str      # calibration kernel matching the hot path, a key of run.KERNELS


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _pop(entries, n_dim):
    return se.PopulationSpec(tuple(entries), n_dim)


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _write_pop(path, pop):
    with open(path, "w") as fh:
        fh.write(pop.to_json())
    return path


# ---------------------------------------------------------------------------
# operations

def _cli_op(name, argv, outputs, check, metric=None, **kw) -> Op:
    """One in-process CLI invocation; stdout and stderr are captured."""

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    def output(raw):
        code, out, err = raw
        files = {}
        for path in outputs:
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    files[os.path.basename(path)] = fh.read()
        return {"exit": code, "stdout": out, "stderr": err, "files": files}

    def checked(res):
        last = res["stderr"].strip().splitlines()[-1:]
        _require(res["exit"] == 0, f"exit {res['exit']}: {''.join(last)}")
        return check(res)

    return Op(name, metric or f"{argv[0]}_cmd_s", run, output, checked, **kw)


def _lib_op(name, fn, check, **kw) -> Op:
    return Op(name, "library_s", fn, lambda raw: raw, check, **kw)


def _file_text(res, path):
    data = res["files"].get(os.path.basename(path))
    _require(data is not None, f"{path} was not written")
    return data.decode()


# ---------------------------------------------------------------------------
# shared checks

def check_edges_doc(doc, tau=None) -> dict:
    """Edge count even, E strictly descending, intervals disjoint."""
    edges = doc["edges"]
    es = [e["e_star"] for e in edges]
    _require(len(es) > 0 and len(es) % 2 == 0, f"edge count {len(es)} is not even and positive")
    _require(all(a > b for a, b in zip(es, es[1:])), "edge values are not strictly descending")
    ivs = doc["intervals"]
    _require(len(ivs) == len(es) // 2, "interval count does not match edge count")
    _require(all(lo < hi for lo, hi in ivs), "an interval is empty")
    _require(all(a[1] < b[0] for a, b in zip(ivs, ivs[1:])), "intervals overlap or are unordered")
    ends = sorted(x for iv in ivs for x in iv)
    _require(ends == sorted(es), "interval endpoints are not the edges")
    if tau is not None:
        _require(doc.get("tau") == tau, "tau not recorded")
        _require(all(isinstance(e.get("regular"), bool) for e in edges), "regularity flags missing")
    return {"n_edges": len(es), "e_star": es}


def _density_rows(text):
    xs, fs, atom = [], [], None
    lines = text.splitlines()
    _require(lines and lines[0] == "x,f0", "density header missing")
    for line in lines[1:]:
        if line.startswith("# atom_mass_at_zero = "):
            atom = float(line.split("=", 1)[1])
        elif not line.startswith("#"):
            x, f = line.split(",")
            xs.append(float(x))
            fs.append(float(f))
    _require(atom is not None, "atom line missing")
    return np.array(xs), np.array(fs), atom


def pointwise_error(pop, xs, fs):
    """Largest |f - Im m0(x + i*OFF_AXIS)/pi|, relative to 1 + |f|, and where."""
    worst, where = 0.0, None
    for x, f in zip(xs, fs):
        ref = max(0.0, se.solve_m0(pop, complex(x, OFF_AXIS)).imag / math.pi)
        err = abs(f - ref) / (1.0 + abs(f))
        if err > worst:
            worst, where = err, float(x)
    return worst, where


def check_density_grid(pop, text, n_points) -> dict:
    """Row count, ordering, mass within the grid's resolution, and pointwise
    agreement with solve_m0 just above the axis at sampled rows."""
    xs, fs, atom = _density_rows(text)
    _require(xs.size == n_points, f"{xs.size} rows, expected {n_points}")
    _require(np.all(np.diff(xs) > 0), "abscissae not increasing")
    _require(np.all(np.isfinite(fs)) and np.all(fs >= 0), "density not finite and nonnegative")
    _require(abs(atom - se.atom_mass_at_zero(pop)) <= 1e-12, "atom mass is wrong")
    mass = float(np.trapezoid(fs, xs)) + atom
    # A trapezoid rule misses at most the mass of the cells next to each edge,
    # where the density has a square-root (or inverse square-root) singularity.
    h = xs[1] - xs[0]
    tol = 1e-6
    for edge in se.find_edges(pop).edges:
        i = int(np.searchsorted(xs, edge.e_star))
        tol += h * (fs[max(i - 1, 0)] + fs[min(i, xs.size - 1)])
    _require(abs(mass - 1.0) <= tol, f"mass + atom = {mass:.6g}, outside 1 +- {tol:.3g}")
    idx = np.linspace(0, xs.size - 1, POINTWISE_SAMPLES).astype(int)
    err, where = pointwise_error(pop, xs[idx], fs[idx])
    _require(err <= POINTWISE_TOL, f"density off solve_m0 by {err:.3g} at x={where}")
    return {"rows": int(xs.size), "mass": mass, "atom": atom, "f_sampled": fs[idx].tolist()}


def _csv_metrics(text):
    lines = text.strip().splitlines()
    _require(lines[0] == "metric,value", "metric header missing")
    out = {}
    for line in lines[1:]:
        k, v = line.split(",")
        out[k] = float(v)
    return out


# ---------------------------------------------------------------------------
# density

def spread_population(k, seed=None, n_dim=500, mass=500):
    """k signed values, half evenly spread over [-3, -0.5] and half over
    [0.5, 6]; a seed jitters each value by up to a fifth of its spacing."""
    sides = [np.linspace(-3.0, -0.5, k // 2), np.linspace(0.5, 6.0, k - k // 2)]
    if seed is not None:
        rng = np.random.default_rng(seed)
        sides = [v + rng.uniform(-0.2, 0.2, v.size) * (v[1] - v[0]) for v in sides]
    return _pop(((float(v), mass // k) for v in np.concatenate(sides)), n_dim)


def density_workload(seed, workdir, small=False) -> Workload:
    grid = 100 if small else 2000
    spread_grid = 50 if small else 400
    pops = {
        "fig1": _pop(FIG1, 500),
        "fig2": _pop(FIG2, 500),
        "table1": se.oneway_population(se.OneWayDesign(**TABLE1_N100)),
        "spread20": spread_population(20, seed),
    }
    ops = []
    for key, pop in pops.items():
        n_points = spread_grid if key.startswith("spread") else grid
        src = _write_pop(os.path.join(workdir, f"{key}.json"), pop)
        out = os.path.join(workdir, f"{key}.csv")
        ops.append(_cli_op(
            f"density.{key}", ["density", src, "--grid", str(n_points), "--out", out], [out],
            lambda res, pop=pop, out=out, n=n_points: check_density_grid(pop, _file_text(res, out), n),
        ))

    fig1 = pops["fig1"]
    report = se.find_edges(fig1)
    lo, hi = report.intervals[0][0], report.intervals[-1][1]
    pad = 0.05 * (hi - lo)
    xs = np.sort(np.random.default_rng(seed).uniform(lo - pad, hi + pad, 10 if small else 50))

    def check_f0(fs):
        fs = np.array(fs)
        _require(np.all(np.isfinite(fs)) and np.all(fs >= 0), "density not finite and nonnegative")
        err, where = pointwise_error(fig1, xs, fs)
        _require(err <= POINTWISE_TOL, f"density_f0 off solve_m0 by {err:.3g} at x={where}")
        return {"f": fs.tolist()}

    ops.append(_lib_op(
        "density.f0_cross_checked", lambda: [se.density_f0(fig1, float(x)) for x in xs], check_f0,
        direct_calls={"spectral.density_f0": xs.size},
    ))

    def check_integral(total):
        mass = total + se.atom_mass_at_zero(fig1)
        _require(abs(mass - 1.0) <= 1e-4, f"integrated mass {mass:.8g} is not 1")
        return {"mass": mass}

    ops.append(_lib_op(
        "density.integrate_fig1",
        lambda: spectral.integrate_density(fig1, report.intervals, 100 if small else 800),
        check_integral, direct_calls={"spectral.integrate_density": 1},
    ))

    probe_pop = spread_population(40)

    def probe_k40():
        # The abscissae `specedge density --grid 400` would use, every 16th.
        rep = se.find_edges(probe_pop)
        a, b = rep.intervals[0][0], rep.intervals[-1][1]
        px = np.linspace(a - 0.05 * (b - a), b + 0.05 * (b - a), 400)[::16]
        pf = [se.density_f0(probe_pop, float(x), cross_check=False) for x in px]
        err, where = pointwise_error(probe_pop, px, pf)
        if err <= POINTWISE_TOL:
            return None
        return f"k=40 spread grid off solve_m0 by {err:.3g} at x={where:.6g}"

    # The boundary solver is companion-matrix root finding.
    return Workload("density", ops, [Probe("density.k40_boundary", probe_k40)], kernel="eig")


# ---------------------------------------------------------------------------
# edges

def clustered_population(k, seed, n_dim=2000, mass=1600):
    """k values in five clusters of +-10% around CLUSTER_CENTRES, evenly
    spaced inside each cluster and jittered by a quarter spacing."""
    rng = np.random.default_rng([seed, k])
    per = k // len(CLUSTER_CENTRES)
    vals = []
    for c in CLUSTER_CENTRES:
        if per == 1:
            vals.append(c * (1.0 + rng.uniform(-0.01, 0.01)))
            continue
        step = 0.2 / (per - 1)
        u = np.linspace(-0.1, 0.1, per) + rng.uniform(-0.25, 0.25, per) * step
        vals.extend(c * (1.0 + u))
    return _pop(((float(v), mass // k) for v in vals), n_dim)


def synthetic_eigenvalues(pop, report, seed):
    """An N-vector of eigenvalues: zeros for the atom, a bulk spread over
    the support, and a largest eigenvalue just above the rightmost edge on
    the Tracy-Widom scale."""
    rng = np.random.default_rng([seed, pop.total_mult, len(pop.entries)])
    n, rank = pop.n_dim, min(pop.rank, pop.n_dim)
    ivs = np.array(report.intervals)
    widths = ivs[:, 1] - ivs[:, 0]
    pick = rng.choice(len(ivs), size=rank - 1, p=widths / widths.sum())
    bulk = ivs[pick, 0] + rng.uniform(0.0, 1.0, rank - 1) * widths[pick]
    edge = report.edges[0]
    top = edge.e_star + rng.uniform(0.5, 2.0) * (edge.gamma * n) ** (-2.0 / 3.0)
    return np.sort(np.concatenate([np.zeros(n - rank), bulk, [top]]))


def check_test_report(doc, eigs, n_dim, edges_doc=None) -> dict:
    """Statistic recomputed from the reported edge and eigenvalue; p-value
    and decision consistent."""
    edge = doc["edge"]
    lam = doc["lambda_used"]
    _require(lam in set(eigs.tolist()), "lambda_used is not one of the eigenvalues")
    if edges_doc is not None:
        _require(edge["e_star"] == edges_doc["edges"][0]["e_star"], "tested edge is not the rightmost")
    scale = (edge["gamma"] * n_dim) ** (2.0 / 3.0)
    stat = scale * (lam - edge["e_star"]) if edge["side"] == "right" else scale * (edge["e_star"] - lam)
    _require(math.isclose(stat, doc["statistic"], rel_tol=1e-9, abs_tol=1e-12), "statistic inconsistent")
    p = doc["p_value"]
    _require(0.0 <= p <= 1.0, f"p-value {p} outside [0, 1]")
    _require(doc["reject"] == (p < doc["alpha"]), "decision inconsistent with p-value")
    window = eigs[np.abs(eigs - edge["e_star"]) <= doc["window_delta"]]
    _require(window.size and lam == (window.max() if edge["side"] == "right" else window.min()),
             "lambda_used is not the extremal eigenvalue in the window")
    return {"statistic": doc["statistic"], "p_value": p, "lambda_used": lam}


def edges_workload(seed, workdir, small=False) -> Workload:
    ks = (5, 40) if small else (5, 40, 400, 1600)
    pops = {f"k{k}": clustered_population(k, seed) for k in ks}
    pops["fig1"] = _pop(FIG1, 500)
    pops["fig2"] = _pop(FIG2, 500)
    ops = []
    lib_key = "k40" if small else "k400"
    lib_eigs = None
    for key, pop in pops.items():
        src = _write_pop(os.path.join(workdir, f"{key}.json"), pop)
        report = se.find_edges(pop)      # set-up only: places the test eigenvalues
        eigs = synthetic_eigenvalues(pop, report, seed)
        eig_path = os.path.join(workdir, f"{key}.eigs.txt")
        np.savetxt(eig_path, eigs)
        eigs = np.loadtxt(eig_path)
        if key == lib_key:
            lib_eigs = eigs
        out_e = os.path.join(workdir, f"{key}.edges.json")
        out_t = os.path.join(workdir, f"{key}.test.json")
        edges_state = {}

        def check_edges(res, out=out_e, state=edges_state):
            doc = json.loads(_file_text(res, out))
            summary = check_edges_doc(doc, tau=TAU)
            _require(doc["edges"][0]["regular"], f"rightmost edge not regular at tau={TAU}")
            state["doc"] = doc
            return summary

        def check_test(res, out=out_t, eigs=eigs, pop=pop, state=edges_state):
            doc = json.loads(_file_text(res, out))
            return check_test_report(doc, eigs, pop.n_dim, state.get("doc"))

        ops.append(_cli_op(f"edges.{key}", ["edges", src, "--tau", str(TAU), "--out", out_e],
                           [out_e], check_edges))
        ops.append(_cli_op(f"test.{key}", ["test", src, eig_path, "--tau", str(TAU),
                                           "--alpha", str(ALPHA), "--out", out_t],
                           [out_t], check_test))

    design = se.OneWayDesign(**TABLE1_N100)
    design_path = _write_json(os.path.join(workdir, "design100.json"), TABLE1_N100)
    y_path = os.path.join(workdir, "design100.data.csv")
    np.savetxt(y_path, np.random.default_rng(seed).standard_normal((design.n, design.p)),
               delimiter=",")
    out_p = os.path.join(workdir, "plugin.json")

    def check_plugin(res):
        doc = json.loads(_file_text(res, out_p))
        s1, s2 = doc["plugin_variances"]
        _require(s1 >= 0.0 and s2 > 0.0, "plug-in variances out of range")
        p = doc["p_value"]
        _require(0.0 <= p <= 1.0 and doc["reject"] == (p < doc["alpha"]), "p-value or decision wrong")
        return {"sigma1_sq": s1, "sigma2_sq": s2, "statistic": doc["statistic"], "p_value": p}

    ops.append(_cli_op("test.plugin", ["test", design_path, y_path, "--plugin", "--tau", str(TAU),
                                       "--out", out_p], [out_p], check_plugin))

    lib_pop = pops[lib_key]

    def lib_run():
        report = se.find_edges(lib_pop)
        result = se.edge_test(lib_pop, lib_eigs, report.edges[0], ALPHA, tau=TAU, report=report)
        return report.to_dict(), result.to_dict()

    def lib_check(raw):
        report, result = raw
        summary = check_edges_doc(report)
        summary.update(check_test_report(result, lib_eigs, lib_pop.n_dim, report))
        return summary

    # One call takes about 0.15 s, too short for one sample per pass to be
    # steady over the five passes of a run.
    ops.append(_lib_op(f"library.{lib_key}", lib_run, lib_check,
                       direct_calls={"edges.find_edges": 1, "twtest.edge_test": 1}, repeat=5))

    nm_src = _write_pop(os.path.join(workdir, "near_merged.json"), _pop(NEAR_MERGED, 300))
    nm_out = os.path.join(workdir, "near_merged.edges.json")

    def probe_near_merged():
        op = _cli_op("probe", ["edges", nm_src, "--out", nm_out], [nm_out],
                     lambda res: check_edges_doc(json.loads(_file_text(res, nm_out))))
        try:
            op.check(op.output(op.run()))
        except CheckFailed as exc:
            return f"near-merged population: {exc}"
        return None

    # The edge search is brentq over rational sums on the value vector.
    return Workload("edges", ops, [Probe("edges.near_merged", probe_near_merged)], kernel="vector")


# ---------------------------------------------------------------------------
# montecarlo

def montecarlo_workload(seed, workdir, small=False) -> Workload:
    reps = {"adherence": 4, "concentration": 4, "t20": 100, "t100": 20, "locallaw": 1} if small \
        else {"adherence": 20, "concentration": 20, "t20": 2000, "t100": 400, "locallaw": 4}
    fig1 = _write_pop(os.path.join(workdir, "fig1.json"), _pop(FIG1, 500))
    ident = _write_pop(os.path.join(workdir, "id400.json"), _pop(((1.0, 400),), 400))
    d20 = _write_json(os.path.join(workdir, "design20.json"), TABLE1_N20)
    d100 = _write_json(os.path.join(workdir, "design100.json"), TABLE1_N100)
    common = ["--seed", str(seed), "--parallel-width", "1"]
    runs = [
        ("adherence", fig1, ["--mode", "adherence", "--delta", "0.1"]),
        ("concentration", fig1, ["--mode", "concentration", "--tau", str(TAU)]),
        ("t20", d20, ["--mode", "table1"]),
        ("t100", d100, ["--mode", "table1"]),
        ("locallaw", ident, ["--mode", "locallaw"]),
    ]
    ops = []
    for key, src, extra in runs:
        out = os.path.join(workdir, f"{key}.csv")

        def check(res, key=key, out=out):
            text = _file_text(res, out)
            if key in ("t20", "t100"):
                rows = [line.split(",") for line in text.strip().splitlines()[1:]]
                _require([float(r[0]) for r in rows] == list(se.simulate.COVERAGE_LEVELS),
                         "coverage levels wrong")
                cov = [float(r[1]) for r in rows]
                _require(all(0.0 <= c <= 1.0 for c in cov), "coverage outside [0, 1]")
                _require(all(a <= b for a, b in zip(cov, cov[1:])), "coverage not monotone in level")
                return {"coverage": cov}
            values = _csv_metrics(text)
            if key == "locallaw":
                _require(all(math.isfinite(v) and v > 0 for v in values.values()),
                         "local-law errors not positive and finite")
            else:
                _require(len(values) == 1 and all(0.0 <= v <= 1.0 for v in values.values()),
                         "fraction outside [0, 1]")
            return values

        ops.append(_cli_op(f"simulate.{key}", ["simulate", src, *extra, "--reps", str(reps[key]),
                                               *common, "--out", out], [out], check))

    pop = _pop(FIG1, 500)
    cfg = se.SimConfig(reps=8, seed=seed)
    lib_reps = 2 if small else 8

    def lib_check(spectra):
        for eigs in spectra:
            _require(eigs.shape == (pop.n_dim,), "spectrum has the wrong length")
            _require(np.all(np.isfinite(eigs)) and np.all(np.diff(eigs) >= 0), "spectrum not sorted")
        return {"top": [float(e[-1]) for e in spectra]}

    ops.append(_lib_op("library.sample_spectrum",
                       lambda: [se.sample_spectrum(pop, cfg, i) for i in range(lib_reps)],
                       lib_check, direct_calls={"simulate.sample_spectrum": lib_reps}))
    # Each replicate is a threaded matmul and a symmetric eigensolve.
    return Workload("montecarlo", ops, [], kernel="dense")


# ---------------------------------------------------------------------------
# swapseq

def _check_sequence(text, diag_text) -> dict:
    recs = [json.loads(line) for line in text.splitlines() if line.strip()]
    _require(recs, "empty sequence")
    _require([r["step"] for r in recs] == list(range(len(recs))), "steps not consecutive")
    _require(recs[-1]["phase"] == "done", "last state is not 'done'")
    _require(all(abs(r["gamma"] - 1.0) <= 1e-6 for r in recs), "a state is not at unit edge scale")
    rows = diag_text.strip().splitlines()
    _require(len(rows) == len(recs), "diagnostics rows do not match the swaps")
    _require(all(math.isfinite(float(v)) for row in rows[1:] for v in row.split(",")),
             "non-finite diagnostics")
    phases = {}
    for r in recs:
        phases[r["phase"]] = phases.get(r["phase"], 0) + 1
    return {"states": len(recs), "phases": phases,
            "e_star_last": recs[-1]["e_star"], "m_star_last": recs[-1]["m_star"]}


def swapseq_workload(seed, workdir, small=False) -> Workload:
    # The populations are fixed; the seed does not enter this workload.
    del seed
    if small:
        cases = [("fig2", _pop(FIG2, 500), None, True), ("negpop", _pop(((-8.0, 20), (-0.5, 80)), 100), 2, True)]
    else:
        cases = [("fig1", _pop(FIG1, 500), None, True), ("negpop", _pop(NEGPOP_HALF, 250), 2, True),
                 ("fig1x2", _pop(FIG1X2, 1000), None, False)]
    ops = []
    for key, pop, edge_index, verify in cases:
        src = _write_pop(os.path.join(workdir, f"{key}.json"), pop)
        seq = os.path.join(workdir, f"{key}.jsonl")
        diag = seq + ".diagnostics.csv"
        edge_arg = [] if edge_index is None else ["--edge-index", str(edge_index)]
        built = {}

        def check_build(res, seq=seq, diag=diag, built=built):
            summary = _check_sequence(_file_text(res, seq), _file_text(res, diag))
            built["states"] = summary["states"]
            return summary

        ops.append(_cli_op(f"swapseq.{key}", ["swapseq", src, *edge_arg, "--out", seq], [seq, diag],
                           check_build, states=lambda res, built=built: built["states"]))
        if verify:
            def check_verify(res, built=built):
                n = built.get("states")
                _require(res["stdout"].strip().startswith(f"verified {n} states"),
                         f"verify output {res['stdout'].strip()!r}")
                return {"states": n}

            ops.append(_cli_op(f"swapseq.{key}.verify",
                               ["swapseq", src, *edge_arg, "--verify", seq,
                                "--out", os.path.join(workdir, f"{key}.verify.jsonl")],
                               [], check_verify, metric="swapseq_verify_s",
                               states=lambda res, built=built: built["states"]))

    fig2 = _pop(FIG2, 500)

    def lib_run():
        states = se.build_swap_sequence(fig2, se.find_edges(fig2).edges[0])
        return [s.to_record() for s in states], [se.sum_rule_residuals(a, b)
                                                 for a, b in zip(states[:-1], states[1:])]

    def lib_check(raw):
        recs, residuals = raw
        _require(recs[-1]["phase"] == "done", "last state is not 'done'")
        res = np.array(residuals)
        _require(np.all(np.isfinite(res)), "non-finite sum-rule residuals")
        _require(np.all(res[:, 3] <= 1e-6), "edge scale drifts between unit-scale states")
        return {"states": len(recs), "max_residuals": res.max(axis=0).tolist()}

    # One sample per pass of the three or four in a run is not steady.
    ops.append(_lib_op("library.fig2_sequence", lib_run, lib_check,
                       direct_calls={"swaps.build_swap_sequence": 1},
                       states=lambda raw: len(raw[0]), repeat=3))
    # Each swap step evaluates rational sums over the length-M vector.
    return Workload("swapseq", ops, [], kernel="vector")


WORKLOADS = {
    "density": density_workload,
    "edges": edges_workload,
    "montecarlo": montecarlo_workload,
    "swapseq": swapseq_workload,
}


def build(name, seed, workdir, small=False) -> Workload:
    os.makedirs(workdir, exist_ok=True)
    return WORKLOADS[name](seed, workdir, small)
