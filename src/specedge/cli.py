"""Command-line front end.

Commands: edges, density, test, simulate, swapseq.  Exit codes:
0 success, 2 input error, 3 numerical failure, 4 precondition failure
(for scriptable acceptance pipelines).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .edges import edge_for_m_sign, find_edges
from .errors import (
    InputError,
    NumericalError,
    PreconditionError,
    SpecEdgeError,
)
from .manifest import RunManifest, atomic_write, file_digest
from .manova import OneWayDesign, oneway_population
from .population import PopulationSpec
from .simulate import (
    SimConfig,
    edge_concentration,
    local_law_probe,
    support_adherence,
    table1_experiment,
)
from .spectral import density_grid, isolated_zero_in_support
from .swaps import build_swap_sequence, export_sequence, sum_rule_residuals, verify_swappable
from .twtest import edge_test, plugin_edge_test

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_PRECONDITION = 4


def _load_population(path: str) -> PopulationSpec:
    with open(path) as fh:
        return PopulationSpec.from_json(fh.read())


def _load_input(path: str):
    """Population or design file, distinguished by their required keys."""
    with open(path) as fh:
        obj = json.load(fh)
    if "entries" in obj:
        return PopulationSpec.from_dict(obj)
    return OneWayDesign.from_dict(obj)


def _pick_edge(report, index):
    if index is None:
        return edge_for_m_sign(report, "rightmost")
    if not 0 <= index < len(report.edges):
        raise InputError(
            f"--edge-index {index} out of range; report has {len(report.edges)} edges"
        )
    return report.edges[index]


def _finish(manifest: RunManifest, out_path: str) -> None:
    manifest.write(out_path + ".manifest.json", __version__)


# ---------------------------------------------------------------------------

def cmd_edges(args) -> int:
    pop = _load_population(args.population)
    report = find_edges(pop)
    manifest = RunManifest("edges", {args.population: file_digest(args.population)}, None)
    body = report.to_dict()
    if args.tau is not None:
        from .edges import check_regularity

        body["tau"] = args.tau
        for rec, edge in zip(body["edges"], report.edges):
            rec["regular"] = check_regularity(pop, edge, args.tau)
    atomic_write(args.out, json.dumps(body, indent=2) + "\n")
    manifest.record_output(args.out)
    _finish(manifest, args.out)
    print(f"{len(report.edges)} edges, {len(report.intervals)} support intervals -> {args.out}")
    return EXIT_OK


def cmd_density(args) -> int:
    pop = _load_population(args.population)
    manifest = RunManifest("density", {args.population: file_digest(args.population)}, None)
    grid = density_grid(pop, n_points=args.grid)
    lines = ["x,f0"]
    lines += [f"{x:.12g},{f:.12g}" for x, f in grid.points]
    lines.append(f"# atom_mass_at_zero = {grid.atom_at_zero:.12g}")
    if isolated_zero_in_support(pop):
        lines.append("# isolated point at zero: yes")
    atomic_write(args.out, "\n".join(lines) + "\n")
    manifest.record_output(args.out)
    _finish(manifest, args.out)
    print(f"{args.grid} density rows -> {args.out}")
    return EXIT_OK


def cmd_test(args) -> int:
    spec = _load_input(args.input)
    inputs = {args.input: file_digest(args.input)}
    if args.plugin:
        if not isinstance(spec, OneWayDesign):
            raise InputError("--plugin requires a design file")
        y = np.loadtxt(args.data, delimiter=",", ndmin=2)
        inputs[args.data] = file_digest(args.data)
        report_obj = plugin_edge_test(spec, y, args.alpha, tau=args.tau)
    else:
        if isinstance(spec, OneWayDesign):
            pop = oneway_population(spec)
        else:
            pop = spec
        eigs = np.loadtxt(args.data).ravel()
        inputs[args.data] = file_digest(args.data)
        support = find_edges(pop)
        edge = _pick_edge(support, args.edge_index)
        report_obj = edge_test(pop, eigs, edge, args.alpha, tau=args.tau, report=support)
    manifest = RunManifest("test", inputs, None)
    atomic_write(args.out, report_obj.to_json() + "\n")
    manifest.record_output(args.out)
    _finish(manifest, args.out)
    print(
        f"statistic {report_obj.statistic:.6f}, p-value {report_obj.p_value:.6f}, "
        f"{'REJECT' if report_obj.reject else 'RETAIN'} at alpha={report_obj.alpha}"
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    spec = _load_input(args.input)
    cfg = SimConfig(
        reps=args.reps, seed=args.seed, entry_law=args.law,
        parallel_width=args.parallel_width,
    )
    manifest = RunManifest(
        "simulate", {args.input: file_digest(args.input)}, args.seed,
        params={"mode": args.mode, "reps": args.reps, "entry_law": args.law},
    )
    lines = []
    if args.mode == "table1":
        if not isinstance(spec, OneWayDesign):
            raise InputError("table1 mode requires a design file")
        result = table1_experiment(spec, cfg)
        lines.append("level,coverage,std_error")
        for level, cov, se in result.to_rows():
            lines.append(f"{level},{cov:.6f},{se:.6f}")
    else:
        pop = spec if isinstance(spec, PopulationSpec) else oneway_population(spec)
        report = find_edges(pop)
        if args.mode == "adherence":
            frac = support_adherence(pop, cfg, args.delta)
            lines.append("metric,value")
            lines.append(f"outside_support_fraction,{frac:.6f}")
        elif args.mode == "concentration":
            edge = _pick_edge(report, args.edge_index)
            frac = edge_concentration(pop, edge, cfg, args.epsilon, tau=args.tau)
            lines.append("metric,value")
            lines.append(f"exclusion_zone_fraction,{frac:.6f}")
        else:  # locallaw
            edge = _pick_edge(report, args.edge_index)
            eta = args.eta if args.eta is not None else pop.n_dim ** -0.5
            probe = local_law_probe(pop, edge, cfg, eta, tau=args.tau)
            lines.append("metric,value")
            lines.append(f"median_m_err,{probe.median_m_err:.8g}")
            lines.append(f"median_entrywise_err,{probe.median_entrywise_err:.8g}")
            lines.append(f"psi,{probe.psi:.8g}")
    atomic_write(args.out, "\n".join(lines) + "\n")
    manifest.record_output(args.out)
    _finish(manifest, args.out)
    print(f"{args.mode} results -> {args.out}")
    return EXIT_OK


def cmd_swapseq(args) -> int:
    pop = _load_population(args.population)
    report = find_edges(pop)
    edge = _pick_edge(report, args.edge_index)
    manifest = RunManifest(
        "swapseq", {args.population: file_digest(args.population)}, None
    )
    states = build_swap_sequence(pop, edge, c0=args.c0, phi=args.phi)
    if args.verify is not None:
        with open(args.verify) as fh:
            recorded = [json.loads(line) for line in fh if line.strip()]
        if len(recorded) != len(states):
            print(
                f"verification failed: {len(recorded)} recorded states, "
                f"rebuilt {len(states)}",
                file=sys.stderr,
            )
            return EXIT_NUMERICAL
        for rec, state in zip(recorded, states):
            if rec["entries_digest"] != state.digest():
                print(
                    f"verification failed at step {state.step}: digest mismatch",
                    file=sys.stderr,
                )
                return EXIT_NUMERICAL
        for a, b in zip(states[:-1], states[1:]):
            verify_swappable(a, b, phi=args.phi)
        print(f"verified {len(states)} states against {args.verify}")
        return EXIT_OK
    seq_path = args.out
    diag_path = args.out + ".diagnostics.csv"
    atomic_write(seq_path, export_sequence(states))
    rows = ["step,l1_t_diff,m_diff,e_diff,r1,r2,r_edge,r_gamma"]
    for a, b in zip(states[:-1], states[1:]):
        diag = verify_swappable(a, b, phi=args.phi)
        r1, r2, r_edge, r_gamma = sum_rule_residuals(a, b)
        rows.append(
            f"{b.step},{diag.l1_t_diff:.8g},{diag.m_diff:.8g},{diag.e_diff:.8g},"
            f"{r1:.8g},{r2:.8g},{r_edge:.8g},{r_gamma:.8g}"
        )
    atomic_write(diag_path, "\n".join(rows) + "\n")
    manifest.record_output(seq_path)
    manifest.record_output(diag_path)
    _finish(manifest, seq_path)
    print(f"{len(states) - 1} swaps -> {seq_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specedge",
        description="Spectral laws, edges, and Tracy-Widom edge tests for X'TX",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("edges", help="enumerate and classify all edges")
    p.add_argument("population")
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--out", default="edges.json")
    p.set_defaults(func=cmd_edges)

    p = sub.add_parser("density", help="tabulate the spectral density")
    p.add_argument("population")
    p.add_argument("--grid", type=int, default=2000)
    p.add_argument("--out", default="density.csv")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("test", help="Tracy-Widom edge test")
    p.add_argument("input", help="population or design file")
    p.add_argument("data", help="eigenvalue list, or raw data matrix with --plugin")
    p.add_argument("--alpha", type=float, default=0.05, help="test level")
    p.add_argument("--tau", type=float, default=0.05, help="regularity gate")
    p.add_argument("--edge-index", type=int, default=None,
                   help="0-based index into the E-descending edge list (default: rightmost)")
    p.add_argument("--plugin", action="store_true",
                   help="treat DATA as a raw n-by-p matrix and estimate variances")
    p.add_argument("--out", default="test_report.json")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("simulate", help="Monte Carlo experiments")
    p.add_argument("input", help="population or design file")
    p.add_argument("--mode", choices=("table1", "adherence", "concentration", "locallaw"),
                   default="table1")
    p.add_argument("--reps", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--law", choices=("gaussian", "rademacher"), default="gaussian")
    p.add_argument("--parallel-width", type=int, default=1)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--epsilon", type=float, default=0.2)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--tau", type=float, default=0.05, help="regularity gate")
    p.add_argument("--edge-index", type=int, default=None,
                   help="0-based index into the E-descending edge list (default: rightmost)")
    p.add_argument("--out", default="simulation.csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("swapseq", help="build or verify an interpolating sequence")
    p.add_argument("population")
    p.add_argument("--edge-index", type=int, default=None,
                   help="0-based index into the E-descending edge list (default: rightmost)")
    p.add_argument("--phi", type=float, default=10.0, help="swappability budget")
    p.add_argument("--c0", type=float, default=0.05, help="seeding fraction, positive-m branch")
    p.add_argument("--verify", default=None, help="previously exported sequence to check")
    p.add_argument("--out", default="swap_sequence.jsonl")
    p.set_defaults(func=cmd_swapseq)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, json.JSONDecodeError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PreconditionError as exc:
        print(f"precondition failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except NumericalError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SpecEdgeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
