"""Sweep `find_edges` over two fixed sets of valid populations.

1. The 49140 one-value populations T = t I: t in {30, 500, 1000},
   N = 1..40 and every M with M/N in RATIO_BAND.
2. 600 valid random populations from numpy.random.default_rng(20261019):
   k ~ U{1..300} values t = +-10^U(-6, 3) with multiplicities U{1..49},
   M/N = 10^U(log10 0.05, log10 20), and N = M in a fifth of the draws.
   Each is also scaled by c in {1e-9, 1e-3, 10, VALUE_BOUND/max|t|}, where
   the scaled values stay within VALUE_BOUND.

A population fails when `find_edges` raises, or when its report breaks
the edge-ordering law.  For every soft edge the sweep prints the worst
ratio of |g'(q*)| at q* = 1/m* to the q-chart vanishing certificate, and
for the random sweep the worst relative error of E*(cT) against c E*(T)
and the count of scaled reports whose edge count or labels differ.  The
last line prints one sha256 fingerprint over every report's `to_json()`
and every failure message, in sweep order with the scaled reports
included: two versions of `find_edges` that print the same fingerprint
gave the same reports bit for bit.

Run from the repository root; it takes about half a minute on one core:

    PYTHONPATH=src python tools/edge_sweep.py
"""

from __future__ import annotations

import hashlib
import math
import time

import numpy as np

from specedge import PopulationSpec, SpecEdgeError, find_edges
from specedge.edges import CERT_ULPS, EPS, S_RTOL, _g_derivs, _poles
from specedge.errors import PopulationError
from specedge.population import RATIO_BAND, VALUE_BOUND

SEED = 20261019
RANDOM_POPULATIONS = 600
SCALES = (1e-9, 1e-3, 10.0)


def one_value_populations():
    lo, hi = RATIO_BAND
    for t in (30.0, 500.0, 1000.0):
        for n in range(1, 41):
            for m in range(math.ceil(lo * n), math.floor(hi * n) + 1):
                yield PopulationSpec(((t, m),), n)


def random_populations(count=RANDOM_POPULATIONS, seed=SEED):
    rng = np.random.default_rng(seed)
    lo, hi = np.log10(RATIO_BAND)
    made = 0
    while made < count:
        k = int(rng.integers(1, 301))
        vals = rng.choice((-1.0, 1.0), k) * 10.0 ** rng.uniform(-6.0, 3.0, k)
        mults = rng.integers(1, 50, k)
        m = int(mults.sum())
        n = m if rng.random() < 0.2 else max(1, round(m / 10.0 ** rng.uniform(lo, hi)))
        try:
            pop = PopulationSpec(tuple(zip(vals.tolist(), mults.tolist())), n)
        except PopulationError:
            continue
        made += 1
        yield pop


def top_scale(pop):
    """The largest c with c max|t| within VALUE_BOUND."""
    c = VALUE_BOUND / pop.norm
    return c if c * pop.norm <= VALUE_BOUND else math.nextafter(c, 0.0)


def cert_ratio(pop, report):
    """Worst |g'(q*)| over its q-chart certificate at the soft edges, with
    q* = 1/m* and one more ulp of q* for that round trip."""
    p, d = _poles(*pop.nonzero(), pop.n_dim)
    q = 1.0 / np.array([e.m_star for e in report.edges if e.soft])
    j = np.clip(np.searchsorted(p, q) - 1, 0, p.size - 1)
    s = q - p[j]
    g1, g2, _ = _g_derivs(p, d, j, s)
    cert = CERT_ULPS * EPS * (1.0 + g1) + np.abs(g2) * (S_RTOL * np.abs(s) + 2.0 * EPS * np.abs(q))
    return float(np.max(np.abs(g1) / cert))


def check(pop, fingerprint):
    """(report, None) or (None, reason); the report's JSON or the reason
    goes into the fingerprint."""
    try:
        report = find_edges(pop)
    except SpecEdgeError as exc:
        report, why = None, f"{type(exc).__name__}: {exc}"
    else:
        fingerprint.update(f"{report.to_json()}\n".encode())
        e = [x.e_star for x in report.edges]
        if len(e) % 2 == 0 and all(a > b for a, b in zip(e, e[1:])):
            return report, None
        report, why = None, f"edge ordering violated: {e}"
    fingerprint.update(f"failed: {why}\n".encode())
    return report, why


def labels(report):
    return [(e.soft, e.gamma is None, e.side) for e in report.edges]


def sweep(name, pops, fingerprint, scales=False):
    start = time.perf_counter()
    count = failures = scaled_failures = mismatches = 0
    worst_cert = worst_cov = 0.0
    for pop in pops:
        count += 1
        report, why = check(pop, fingerprint)
        if report is None:
            failures += 1
            print(f"  FAIL {pop.entries[:3]}{'...' if len(pop.entries) > 3 else ''} "
                  f"(k={len(pop.entries)}, N={pop.n_dim}): {why}")
            continue
        worst_cert = max(worst_cert, cert_ratio(pop, report))
        if not scales:
            continue
        top = top_scale(pop)
        for c in [c for c in SCALES if c < top] + [top]:
            scaled, why = check(pop.scaled(c), fingerprint)
            if scaled is None:
                scaled_failures += 1
                print(f"  FAIL at c={c:g} (k={len(pop.entries)}, N={pop.n_dim}): {why}")
            elif labels(scaled) != labels(report):
                mismatches += 1
                print(f"  LABELS differ at c={c:g} (k={len(pop.entries)}, N={pop.n_dim})")
            else:
                worst_cov = max([worst_cov] + [abs(b.e_star - c * a.e_star) / abs(c * a.e_star)
                                               for a, b in zip(report.edges, scaled.edges) if a.soft])
    print(f"{name}: {count} populations, {failures} failures, "
          f"worst |g'(q*)|/cert {worst_cert:.3g} ({time.perf_counter() - start:.1f} s)")
    if scales:
        print(f"  scaled by c: {scaled_failures} failures, {mismatches} label mismatches, "
              f"worst |E*(cT) - cE*(T)|/|cE*(T)| {worst_cov:.3g}")
    return failures + scaled_failures + mismatches


def main():
    start = time.perf_counter()
    fingerprint = hashlib.sha256()
    bad = sweep("one-value populations", one_value_populations(), fingerprint)
    bad += sweep(f"random populations (seed {SEED})", random_populations(), fingerprint,
                 scales=True)
    print(f"fingerprint {fingerprint.hexdigest()}  ({time.perf_counter() - start:.1f} s)")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
