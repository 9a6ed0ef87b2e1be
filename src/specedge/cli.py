"""Command-line front end.

Commands: edges, density, test, simulate, swapseq.  Exit codes:
0 success, 2 input error, 3 numerical failure, 4 precondition failure
(for scriptable acceptance pipelines).

Import rule: this module imports at its top only the layers every command
runs (errors, manifest, population, edges).  A command imports the layers
only it needs (spectral, twtest, simulate, swaps, manova) when it runs,
so each process pays start-up only for what its command uses.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .edges import check_regularity, edge_for_m_sign, find_edges, isolated_zero_in_support
from .errors import (
    InputError,
    NumericalError,
    PreconditionError,
    SpecEdgeError,
)
from .manifest import write_manifest
from .population import PopulationSpec

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_PRECONDITION = 4


def _read(path: str, parse):
    """parse(path), with a missing, unreadable or malformed file as an InputError."""
    try:
        return parse(path)
    except (OSError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _numbers(path: str, **kwargs) -> np.ndarray:
    """np.loadtxt of a data file; an empty file gives an empty array, which
    the command rejects by its own typed error, with no numpy warning."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return _read(path, lambda p: np.loadtxt(p, **kwargs))


def _records(path: str) -> list[dict]:
    recs = [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]
    if not all(isinstance(rec, dict) for rec in recs):
        raise ValueError("expected one JSON object per line")
    return recs


def _load_population(path: str) -> PopulationSpec:
    return _read(path, lambda p: PopulationSpec.from_json(Path(p).read_text()))


def _load_input(path: str):
    """Population or design file, distinguished by their required keys."""
    obj = _read(path, lambda p: json.loads(Path(p).read_text()))
    if not isinstance(obj, dict):
        raise InputError(f"{path}: expected a JSON object")
    if "entries" in obj:
        return PopulationSpec.from_dict(obj)
    from .manova import OneWayDesign

    return OneWayDesign.from_dict(obj)


def _pick_edge(report, index):
    if index is None:
        return edge_for_m_sign(report, "rightmost")
    if not 0 <= index < len(report.edges):
        raise InputError(
            f"--edge-index {index} out of range; report has {len(report.edges)} edges"
        )
    return report.edges[index]


def _write_outputs(args, inputs, *files, params=None) -> None:
    """Write each (path, text) atomically, then the run's manifest next to
    the first path: the input paths' digests, the seed when the command
    takes one, and the wall time since `main` started the command."""
    write_manifest(args.command, inputs, files, getattr(args, "seed", None), params or {},
                   __version__, args.started)


# ---------------------------------------------------------------------------

def cmd_edges(args) -> int:
    pop = _load_population(args.population)
    report = find_edges(pop)
    body = report.to_dict()
    if args.tau is not None:
        body["tau"] = args.tau
        for rec, edge in zip(body["edges"], report.edges):
            rec["regular"] = check_regularity(pop, edge, args.tau)
    _write_outputs(args, [args.population], (args.out, json.dumps(body, indent=2) + "\n"))
    print(f"{len(report.edges)} edges, {len(report.intervals)} support intervals -> {args.out}")
    return EXIT_OK


def cmd_density(args) -> int:
    from .spectral import density_grid

    pop = _load_population(args.population)
    grid = density_grid(pop, n_points=args.grid)
    lines = ["x,f0"]
    lines += [f"{x:.12g},{f:.12g}" for x, f in grid.points]
    lines.append(f"# atom_mass_at_zero = {grid.atom_at_zero:.12g}")
    if isolated_zero_in_support(pop):
        lines.append("# isolated point at zero: yes")
    _write_outputs(args, [args.population], (args.out, "\n".join(lines) + "\n"))
    print(f"{args.grid} density rows -> {args.out}")
    return EXIT_OK


def cmd_test(args) -> int:
    from .manova import OneWayDesign, oneway_population
    from .twtest import edge_test, plugin_edge_test

    spec = _load_input(args.input)
    if args.plugin:
        if not isinstance(spec, OneWayDesign):
            raise InputError("--plugin requires a design file")
        y = _numbers(args.data, delimiter=",", ndmin=2)
        report_obj = plugin_edge_test(spec, y, args.alpha, tau=args.tau)
    else:
        pop = spec if isinstance(spec, PopulationSpec) else oneway_population(spec)
        eigs = _numbers(args.data).ravel()
        support = find_edges(pop)
        edge = _pick_edge(support, args.edge_index)
        report_obj = edge_test(pop, eigs, edge, args.alpha, tau=args.tau, report=support)
    _write_outputs(args, [args.input, args.data], (args.out, report_obj.to_json() + "\n"))
    print(
        f"statistic {report_obj.statistic:.6f}, p-value {report_obj.p_value:.6f}, "
        f"{'REJECT' if report_obj.reject else 'RETAIN'} at alpha={report_obj.alpha}"
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    from .manova import OneWayDesign, oneway_population
    from .simulate import (
        SimConfig,
        edge_concentration,
        local_law_probe,
        support_adherence,
        table1_experiment,
    )

    spec = _load_input(args.input)
    cfg = SimConfig(
        reps=args.reps, seed=args.seed, entry_law=args.law,
        parallel_width=args.parallel_width,
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
        if args.mode == "adherence":
            frac = support_adherence(pop, cfg, args.delta)
            lines.append("metric,value")
            lines.append(f"outside_support_fraction,{frac:.6f}")
        elif args.mode == "concentration":
            edge = _pick_edge(find_edges(pop), args.edge_index)
            frac = edge_concentration(pop, edge, cfg, args.epsilon, tau=args.tau)
            lines.append("metric,value")
            lines.append(f"exclusion_zone_fraction,{frac:.6f}")
        else:  # locallaw
            edge = _pick_edge(find_edges(pop), args.edge_index)
            eta = args.eta if args.eta is not None else pop.n_dim ** -0.5
            probe = local_law_probe(pop, edge, cfg, eta, tau=args.tau)
            lines.append("metric,value")
            lines.append(f"median_m_err,{probe.median_m_err:.8g}")
            lines.append(f"median_entrywise_err,{probe.median_entrywise_err:.8g}")
            lines.append(f"psi,{probe.psi:.8g}")
    _write_outputs(args, [args.input], (args.out, "\n".join(lines) + "\n"),
                   params={"mode": args.mode, "reps": args.reps, "entry_law": args.law})
    print(f"{args.mode} results -> {args.out}")
    return EXIT_OK


def cmd_swapseq(args) -> int:
    from .swaps import build_swap_sequence, export_sequence, verify_swappable

    pop = _load_population(args.population)
    report = find_edges(pop)
    edge = _pick_edge(report, args.edge_index)
    # A missing or malformed --verify file fails before the build.
    recorded = None if args.verify is None else _read(args.verify, _records)
    states = build_swap_sequence(pop, edge, c0=args.c0, phi=args.phi)
    if recorded is not None:
        if len(recorded) != len(states):
            print(
                f"verification failed: {len(recorded)} recorded states, "
                f"rebuilt {len(states)}",
                file=sys.stderr,
            )
            return EXIT_NUMERICAL
        # JSON floats round-trip exactly, so every field must match.
        for rec, state in zip(recorded, states):
            rebuilt = state.to_record()
            if rec == rebuilt:
                continue
            for field in sorted(rec.keys() | rebuilt.keys()):
                if field not in rec or field not in rebuilt or rec[field] != rebuilt[field]:
                    print(
                        f"verification failed at step {state.step}: {field} mismatch "
                        f"(recorded {rec.get(field)!r}, rebuilt {rebuilt.get(field)!r})",
                        file=sys.stderr,
                    )
                    return EXIT_NUMERICAL
        for a, b in zip(states[:-1], states[1:]):
            verify_swappable(a, b, phi=args.phi)
        print(f"verified {len(states)} states against {args.verify}")
        return EXIT_OK
    rows = ["step,l1_t_diff,m_diff,e_diff,r1,r2,r_edge,r_gamma"]
    for a, b in zip(states[:-1], states[1:]):
        diag = verify_swappable(a, b, phi=args.phi)
        rows.append(
            f"{b.step},{diag.l1_t_diff:.8g},{diag.m_diff:.8g},{diag.e_diff:.8g},"
            f"{diag.sum_rule_1_residual:.8g},{diag.sum_rule_2_residual:.8g},"
            f"{diag.edge_identity_residual:.8g},{diag.gamma_diff:.8g}"
        )
    _write_outputs(args, [args.population], (args.out, export_sequence(states)),
                   (args.out + ".diagnostics.csv", "\n".join(rows) + "\n"))
    print(f"{len(states) - 1} swaps -> {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def _edge_index(p) -> None:
    p.add_argument("--edge-index", type=int, default=None,
                   help="0-based index into the E-descending edge list (default: rightmost)")


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

    p = sub.add_parser("density", help="tabulate the spectral density")
    p.add_argument("population")
    p.add_argument("--grid", type=int, default=2000)
    p.add_argument("--out", default="density.csv")

    p = sub.add_parser("test", help="Tracy-Widom edge test")
    p.add_argument("input", help="population or design file")
    p.add_argument("data", help="eigenvalue list, or raw data matrix with --plugin")
    p.add_argument("--alpha", type=float, default=0.05, help="test level")
    p.add_argument("--tau", type=float, default=0.05, help="regularity gate")
    _edge_index(p)
    p.add_argument("--plugin", action="store_true",
                   help="treat DATA as a raw n-by-p matrix and estimate variances")
    p.add_argument("--out", default="test_report.json")

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
    _edge_index(p)
    p.add_argument("--out", default="simulation.csv")

    p = sub.add_parser("swapseq", help="build or verify an interpolating sequence")
    p.add_argument("population")
    _edge_index(p)
    p.add_argument("--phi", type=float, default=10.0, help="swappability budget")
    p.add_argument("--c0", type=float, default=0.05, help="seeding fraction, positive-m branch")
    p.add_argument("--verify", default=None, help="previously exported sequence to check")
    p.add_argument("--out", default="swap_sequence.jsonl")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call so that importing
    this module stays cheap.  Parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # Looked up at call time, so a command replaced after the first call
    # (a test's patch, a tracer's wrapper) is the one that runs.
    command = globals()["cmd_" + args.command]
    args.started = time.perf_counter()
    try:
        return command(args)
    except (InputError, OSError) as exc:
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
