"""Build a swap sequence for every regular soft edge of random populations.

120 populations from numpy.random.default_rng(20261020): k ~ U{1..5}
values t = +-exp(N(0, 1.2^2)), rounded to 3 decimals, with multiplicities
U{5..79} and N ~ U{40..199}; a draw with M/N outside RATIO_BAND is
skipped.  Every soft edge that passes `check_regularity` at tau = 0.01
is built: a right edge as it is, a left edge as the right edge of the
reflected population (`reflected_right_edge`).

One line per edge gives the sequence length L, the largest sum-rule-2
residual times N over its consecutive pairs and the build time per step,
or the `SwapRejected` message of a build that fails.  The summary counts
the edges, builds and rejections, and prints one sha256 fingerprint over
every export, every consecutive pair's diagnostics at full precision and
every rejection message: two versions of the construction that print the
same fingerprint built the same sequences bit for bit.  The pairs are
measured with phi = inf, so one more line checks each build as
`specedge swapseq` does, at DEFAULT_PHI: the builds it would stop on, by
the bound the first failing pair breaks and by branch, and how many
builds reach each phase.

Run from the repository root; it takes a few seconds on one core:

    PYTHONPATH=src python tools/swap_sweep.py
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from collections import Counter

import numpy as np

from specedge import PopulationSpec, build_swap_sequence, check_regularity, find_edges
from specedge.errors import NotSwappable, SwapRejected
from specedge.population import RATIO_BAND
from specedge.swaps import DEFAULT_PHI, export_sequence, reflected_right_edge, verify_swappable

SEED = 20261020
DRAWS = 120
TAU = 0.01
R2_FLAG = 50.0             # r2 * N above this is counted


def populations(draws=DRAWS, seed=SEED):
    """The draws whose M/N lies in RATIO_BAND."""
    rng = np.random.default_rng(seed)
    lo, hi = RATIO_BAND
    for _ in range(draws):
        k = int(rng.integers(1, 6))
        vals = np.round(rng.choice((-1.0, 1.0), k) * np.exp(rng.normal(0.0, 1.2, k)), 3)
        mults = rng.integers(5, 80, k)
        n = int(rng.integers(40, 200))
        if lo <= mults.sum() / n <= hi:
            yield PopulationSpec(tuple(zip(vals.tolist(), mults.tolist())), n)


def build(pop, edge):
    """(states, seconds) of the sequence for a regular soft edge."""
    start = time.perf_counter()
    if edge.side == "left":
        pop, edge = reflected_right_edge(pop, edge)
    states = build_swap_sequence(pop, edge)
    return states, time.perf_counter() - start


def cli_bound(states):
    """The bound `specedge swapseq` stops on at DEFAULT_PHI, or None."""
    for a, b in zip(states[:-1], states[1:]):
        try:
            verify_swappable(a, b)
        except NotSwappable as exc:
            return "l1" if str(exc).startswith("l1") else "m-value"
    return None


def main():
    start = time.perf_counter()
    fingerprint = hashlib.sha256()
    drawn = edges = 0
    r2s, rejected = [], []
    unswappable, phases = Counter(), Counter()
    for i, pop in enumerate(populations()):
        drawn += 1
        for edge in find_edges(pop).edges:
            if not check_regularity(pop, edge, TAU):
                continue
            edges += 1
            head = (f"pop {i:3d} k={len(pop.entries)} N={pop.n_dim:3d} M={pop.total_mult:3d} "
                    f"{edge.side:5s} m*={edge.m_star:+.4f}")
            try:
                states, seconds = build(pop, edge)
            except SwapRejected as exc:
                # The branch follows the sign of the tracked right edge's m*.
                rejected.append(edge.m_star if edge.side == "right" else -edge.m_star)
                fingerprint.update(f"{i} {edge.side} rejected: {exc}\n".encode())
                print(f"{head}  rejected: {exc}")
                continue
            diags = [verify_swappable(a, b, math.inf) for a, b in zip(states[:-1], states[1:])]
            fingerprint.update(export_sequence(states).encode())
            fingerprint.update(repr([tuple(d) for d in diags]).encode())
            phases.update({s.phase for s in states[:-1]})
            bound = cli_bound(states)
            if bound:
                unswappable[bound] += 1
                unswappable["m* > 0" if states[0].edge.m_star > 0 else "m* < 0"] += 1
            steps = len(states) - 1
            r2 = max((d.sum_rule_2_residual for d in diags), default=0.0) * pop.n_dim
            r2s.append(r2)
            print(f"{head}  L={steps:4d}  max r2*N={r2:9.3f}  "
                  f"{1e6 * seconds / max(steps, 1):6.1f} us/step")
    print(f"{drawn} populations from {DRAWS} draws (seed {SEED}), {edges} regular soft edges "
          f"at tau={TAU:g}: {len(r2s)} built, {len(rejected)} rejected "
          f"({sum(m > 0 for m in rejected)} with m* > 0)")
    if r2s:
        print(f"max r2*N per build: median {statistics.median(r2s):.1f}, "
              f"90th percentile {np.percentile(r2s, 90):.1f}, max {max(r2s):.1f}, "
              f"{sum(r > R2_FLAG for r in r2s)} above {R2_FLAG:g}")
    print(f"not swappable at phi={DEFAULT_PHI:g}: {unswappable['l1'] + unswappable['m-value']} "
          f"builds, {unswappable['l1']} on the l1 bound, {unswappable['m-value']} on the m-value "
          f"bound; {unswappable['m* > 0']} with m* > 0, {unswappable['m* < 0']} with m* < 0; "
          f"builds per phase: " + ", ".join(f"{k} {v}" for k, v in sorted(phases.items())))
    print(f"fingerprint {fingerprint.hexdigest()}  ({time.perf_counter() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
