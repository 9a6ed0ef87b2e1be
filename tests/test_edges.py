"""Edge enumeration and classification against closed forms and the
documented example populations."""

import hashlib
import math
import warnings
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from conftest import minimum_settle, newton_bisect, signed_populations, z0_outer
from hypothesis import assume, example, given
from hypothesis import strategies as st

from specedge import (
    PopulationSpec,
    SpecEdgeError,
    check_regularity,
    density_f0,
    edge_for_m_sign,
    find_edges,
)
import specedge.edges
from specedge.edges import (
    CERT_ULPS, EPS, S_RTOL, _abs_cubes, _g_derivs, _g_row, _g_row_floats, _newton_bisect_one,
    _poles, _soft_edge, _soft_extrema_q,
)
from specedge.errors import (
    BracketFailure, DegeneratePopulation, DomainError, NonConvergence, NoSuchEdge,
)
from specedge.population import VALUE_BOUND

FIG1 = PopulationSpec(((-2.0, 350), (0.5, 300), (6.0, 50)), 500)
FIG2 = PopulationSpec(((-1.0, 400), (4.0, 100)), 500)
DERIV_CERT = 1e-8       # |z0'(m*)| at every soft edge of the populations checked below


def identity_edge_formulas(n, m_count):
    """Soft-edge (m*, E*, gamma) for the identity population; the lower
    edge exists only when M != N (otherwise it is hard at 0)."""
    s_n, s_m = math.sqrt(n), math.sqrt(m_count)
    out = []
    for sign in (+1, -1):
        denom = s_n + sign * s_m
        if denom == 0:
            continue
        m_star = -s_n / denom
        e_star = denom**2 / n
        scale_inv = (abs(denom) / n) * abs(1 / s_m + sign / s_n) ** (1 / 3)
        gamma = scale_inv ** (-1.5) / n
        out.append((m_star, e_star, gamma))
    return out


@pytest.mark.parametrize("n,m_count", [
    (500, 500), (500, 200), (200, 500), (500, 100), (100, 500),
    (300, 400), (400, 300), (250, 1000), (1000, 250), (777, 777),
    (640, 160), (160, 640), (512, 512), (200, 360), (360, 200),
    (450, 890), (890, 450), (123, 456), (456, 123), (999, 500),
])
def test_identity_closed_forms_grid(n, m_count):
    pop = PopulationSpec(((1.0, m_count),), n)
    report = find_edges(pop)
    soft = [e for e in report.edges if e.soft]
    expected = identity_edge_formulas(n, m_count)
    assert len(soft) == len(expected)
    for (m_star, e_star, gamma), edge in zip(expected, sorted(soft, key=lambda e: -e.e_star)):
        assert edge.m_star == pytest.approx(m_star, abs=1e-9)
        assert edge.e_star == pytest.approx(e_star, abs=1e-9)
        assert edge.gamma == pytest.approx(gamma, abs=1e-9)
    if n == m_count:
        hard = [e for e in report.edges if e.hard]
        assert len(hard) == 1 and hard[0].e_star == 0.0


def test_fig1_structure():
    report = find_edges(FIG1)
    assert len(report.edges) == 4
    assert all(e.soft for e in report.edges)
    assert len(report.intervals) == 2
    assert report.atom_at_zero == 0.0


def test_fig2_structure():
    report = find_edges(FIG2)
    soft = [e for e in report.edges if e.soft]
    hard = [e for e in report.edges if e.hard]
    assert len(soft) == 3 and len(hard) == 1
    assert hard[0].e_star == 0.0
    assert hard[0].side == "right"          # geometric: bulk sits just left of 0


def test_identity_edges_values():
    pop = PopulationSpec(((1.0, 500),), 500)
    report = find_edges(pop)
    top = report.edges[0]
    assert top.e_star == pytest.approx(4.0, abs=1e-12)
    assert top.m_star == pytest.approx(-0.5, abs=1e-12)
    assert top.gamma == pytest.approx(0.25, abs=1e-12)
    assert top.side == "right"


def test_degenerate_population_rejected():
    with pytest.raises(DegeneratePopulation):
        find_edges(PopulationSpec(((0.0, 100),), 100))


def test_regularity_of_an_edge_against_an_all_zero_population():
    # No nonzero value means no pole to keep a distance from: the gate
    # rejects the population typed, as find_edges does.
    with pytest.raises(DegeneratePopulation):
        check_regularity(PopulationSpec(((0.0, 100),), 100), find_edges(FIG1).edges[0], 0.05)


def test_edge_ordering_and_parity():
    for pop in (FIG1, FIG2):
        report = find_edges(pop)
        assert len(report.edges) % 2 == 0
        e_desc = [e.e_star for e in report.edges]
        assert e_desc == sorted(e_desc, reverse=True)
        assert len(set(e_desc)) == len(e_desc)
        # intervals pair off the ascending edge list
        flat = [x for iv in report.intervals for x in iv]
        assert flat == sorted(e_desc)
        for e in report.edges:
            if e.soft:
                assert abs(z0_outer(pop, e.m_star, 1)) < 1e-8
                curv = z0_outer(pop, e.m_star, 2)
                assert (curv > 0) == (e.side == "right")


def test_selector_semantics():
    report = find_edges(PopulationSpec(((1.0, 500),), 500))
    sel = edge_for_m_sign(report, "m_closest_to_zero_negative")
    assert sel.m_star == pytest.approx(-0.5)
    assert sel.e_star == pytest.approx(4.0)

    rep1 = find_edges(FIG1)
    assert edge_for_m_sign(rep1, "rightmost").e_star == rep1.edges[0].e_star
    assert edge_for_m_sign(rep1, "leftmost").e_star == rep1.edges[-1].e_star
    # rightmost edge is also the one with m closest to zero from below
    assert edge_for_m_sign(rep1, "m_closest_to_zero_negative") is rep1.edges[0]

    all_neg = find_edges(PopulationSpec(((-8.0, 100), (-0.5, 400)), 500))
    with pytest.raises(NoSuchEdge):
        edge_for_m_sign(all_neg, "m_closest_to_zero_negative")
    with pytest.raises(NoSuchEdge):
        edge_for_m_sign(all_neg, "bogus")


def test_regularity_gate():
    pop = PopulationSpec(((1.0, 500),), 500)
    report = find_edges(pop)
    right, hard = report.edges[0], report.edges[1]
    assert right.regularity_margin == pytest.approx(0.5)
    assert check_regularity(pop, right, 0.1)
    assert not check_regularity(pop, right, 0.6)
    assert not check_regularity(pop, hard, 0.01)


def test_density_support_consistency():
    for pop in (FIG1, FIG2):
        report = find_edges(pop)
        for lo, hi in report.intervals:
            mid = 0.5 * (lo + hi)
            if mid == 0.0:
                mid = 0.25 * lo + 0.75 * hi
            assert density_f0(pop, mid) >= 1e-12
        for e in report.edges:
            outside = e.e_star + 0.05 if e.side == "right" else e.e_star - 0.05
            assert density_f0(pop, outside) <= 1e-12


def test_sqrt_edge_ratio_both_figures():
    for pop in (FIG1, FIG2):
        report = find_edges(pop)
        diam = report.diameter
        for e in report.edges:
            if not e.soft:
                continue
            ratios = []
            for frac in (1e-4, 1e-6):
                off = frac * diam
                x = e.e_star - off if e.side == "right" else e.e_star + off
                ratios.append(density_f0(pop, x) * np.pi / (e.gamma * np.sqrt(off)))
            assert 0.9 <= ratios[0] <= 1.1
            assert abs(ratios[1] - 1) <= abs(ratios[0] - 1) + 1e-6


def test_edge_stability_under_tiny_perturbation():
    base = find_edges(FIG1)
    bumped = PopulationSpec(((-2.0 + 1e-9, 350), (0.5, 300), (6.0, 50)), 500)
    moved = find_edges(bumped)
    for e0, e1 in zip(base.edges, moved.edges):
        assert abs(e0.e_star - e1.e_star) <= 1e-6


def test_spike_population_is_legal():
    # single spiked entry: tiny support interval, collapsing margin
    pop = PopulationSpec(((1.0, 499), (8.0, 1)), 500)
    report = find_edges(pop)
    assert len(report.edges) % 2 == 0
    assert all(e.regularity_margin >= 0 for e in report.edges)


def m_chart_cert(vals, mults, n, m, d2):
    """Largest |z0'(m)| that certifies m as a root of z0' located by the
    q-chart search, given d2 = z0''(m): an oracle in the m chart,
    independent of the certificate `find_edges` applies.  Two allowances
    add up:

    - rounding: CERT_ULPS ulps of 1/m^2 plus the summands
      c t^2/(1 + tm)^2 / N of z0'(m) as `z0_outer` sums them, each grown by
      1 + 2|tm/(1 + tm)|, the relative error that rounding 1 + tm passes
      on to its square;
    - location: the search stops within S_RTOL of the offset of q = 1/m
      from the pole it anchors its interval on (the left pole, or p[0]
      for the unbounded interval left of every pole), and q rounds by an
      ulp; z0' moves by |z0''(m)| m^2 per unit of q.
    """
    q = 1.0 / m
    tm = m[..., None] * vals
    r = 1.0 + tm
    terms = mults * vals**2 / r**2 * (1.0 + 2.0 * np.abs(tm / r))
    rounding = CERT_ULPS * EPS * (1.0 / m**2 + np.add.reduce(terms, axis=-1) / n)
    p = -vals[::-1]
    anchor = p[np.clip(np.searchsorted(p, q) - 1, 0, p.size - 1)]
    return rounding + np.abs(d2) * m * m * (S_RTOL * np.abs(q - anchor) + EPS * np.abs(q))


def q_chart_cert(pop, m_star):
    """(|g'(q)|, its bound) at q = 1/m*: the vanishing certificate of
    `find_edges`, with one more ulp of q for the round trip through m*."""
    p, d = _poles(*pop.nonzero(), pop.n_dim)
    q = 1.0 / m_star
    j = min(max(int(np.searchsorted(p, q)) - 1, 0), p.size - 1)
    s = q - p[j]
    g1, g2, _ = _g_derivs(p, d, np.array([j]), np.array([s]))[:, 0]
    return abs(g1), CERT_ULPS * EPS * (1.0 + g1) + abs(g2) * (S_RTOL * abs(s) + 2.0 * EPS * abs(q))


def assert_report_invariants(pop, report):
    """Even edge count, E strictly descending, disjoint ordered intervals
    bounded by the edges, z0'(m*) certified and gamma > 0 at soft edges.

    |z0'(m*)| stays below DERIV_CERT on these populations, and below the
    m-chart bound on every population; |g'(1/m*)| stays below the q-chart
    bound `find_edges` certifies it against."""
    e_desc = [e.e_star for e in report.edges]
    assert len(e_desc) > 0 and len(e_desc) % 2 == 0
    assert all(a > b for a, b in zip(e_desc, e_desc[1:]))
    assert [x for iv in report.intervals for x in iv] == sorted(e_desc)
    assert all(lo < hi for lo, hi in report.intervals)
    assert all(a[1] < b[0] for a, b in zip(report.intervals, report.intervals[1:]))
    vals, mults = pop.nonzero()
    for e in report.edges:
        if e.soft:
            d1 = abs(z0_outer(pop, e.m_star, 1))
            d2 = z0_outer(pop, e.m_star, 2)
            assert d1 <= DERIV_CERT
            assert d1 <= m_chart_cert(vals, mults, pop.n_dim, np.array([e.m_star]), d2)[0]
            g1, bound = q_chart_cert(pop, e.m_star)
            assert g1 <= bound
            assert e.gamma is None or e.gamma > 0


@pytest.mark.parametrize("n", [1, 2, 3, 7, 13, 40])
def test_one_value_populations_at_the_value_bound_are_certified(n):
    # T = 1000 I over the whole ratio band.  1/m*^2 reaches 3e7 here, so
    # rounding alone takes |z0'(m*)| past 1e-8 at some edges; the
    # certificate is relative to the summands of z0' and passes them all.
    for m_count in range(math.ceil(0.05 * n), 20 * n + 1):
        report = find_edges(PopulationSpec(((1000.0, m_count),), n))
        got = [x for e in report.edges if e.soft for x in (e.m_star, e.e_star)]
        want = [x for m, e, _ in identity_edge_formulas(n, m_count) for x in (m / 1000, e * 1000)]
        assert got == pytest.approx(want, rel=1e-11)


def test_certificate_allows_for_the_search_tolerance():
    # Values near 1e-6 beside one of 89: the q search stops within S_RTOL
    # of the offset from the left pole of an interval 89 wide, which
    # leaves z0'(m*) = 2.4e-20 at one edge where the rounding of its
    # summands alone allows 6e-26.
    pop = PopulationSpec(((-1.1490648187664412e-06, 16), (1.0851196370398505e-06, 39),
                          (89.2714340940753, 25)), 632)
    assert_report_invariants(pop, find_edges(pop))


def test_near_merged_values_are_resolved():
    # Two values 1e-4 apart: a pole interval 1e-4 wide next to a pole at -1.
    pop = PopulationSpec(((1.0, 100), (1.0001, 100), (3.0, 100)), 300)
    report = find_edges(pop)
    assert_report_invariants(pop, report)
    assert [e.soft for e in report.edges] == [True, False]
    assert report.edges[1].e_star == 0.0


@pytest.mark.parametrize("entries, n_dim, sha256", [
    (((-2.0, 350), (0.5, 300), (6.0, 50)), 500,
     "f3b235daecf0e95b27ebc87de4b6401fa685eb355ea93474129f50966000f5cb"),
    (((-1.0, 400), (4.0, 100)), 500,
     "27cc7ffe14258f53e3a73780fd5ea7729345d375ffe19b9d5a3a87d2deef8282"),
    (((-8.0, 100), (-0.5, 400)), 500,
     "efcee448b188cab7d240a17b061a415b8d0785eef41b262a5d529c65c40b2ee7"),
    (((1.0, 100), (1.0001, 100), (3.0, 100)), 300,
     "f830614f160766a2474b12ab8d8bed3dd77a936b122e2c9140b4ba56620d6ca3"),
])
def test_reports_are_pinned_bit_for_bit(entries, n_dim, sha256):
    # Every e_star, m_star, gamma and margin keeps its bits.  Swap records,
    # and the sequences `swapseq --verify` checks, start from m_star alone:
    # the builder evaluates its own edge there.
    report = find_edges(PopulationSpec(entries, n_dim))
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == sha256


def mp_soft_edges(pop, report):
    """E* of each soft edge to 60 digits, at the zero of
    g'(q) = -1 + sum c t^2/(q + t)^2 next to q = 1/m*."""
    mp.mp.dps = 60
    vals, mults = pop.nonzero()
    t = [mp.mpf(float(v)) for v in vals]
    c = [mp.mpf(int(k)) / pop.n_dim for k in mults]

    def g(q):
        return -q + mp.fsum(ci * ti * q / (q + ti) for ci, ti in zip(c, t))

    def g1(q):
        return -1 + mp.fsum(ci * ti**2 / (q + ti) ** 2 for ci, ti in zip(c, t))

    def g2(q):
        return -2 * mp.fsum(ci * ti**2 / (q + ti) ** 3 for ci, ti in zip(c, t))

    return [g(mp.findroot(g1, 1 / mp.mpf(e.m_star), solver="newton", df=g2))
            for e in report.edges if e.soft]


@pytest.mark.parametrize("entries, n_dim", [
    (((0.0, 1), (1.0, 10000)), 10001),               # rank N - 1: an edge at 2.5e-9
    (((-0.5, 3000), (2.0, 7000)), 10000),            # rank N
    (((1.0, 10001),), 10000),                        # rank N + 1: an edge at 2.5e-9
    (((-0.5, 3000), (2.0, 7001)), 10000),            # rank N + 1
])
def test_soft_edges_match_mpmath_next_to_zero(entries, n_dim):
    # E* = g(q*) in the atom form keeps full relative precision next to
    # q = 0, where a sum of terms of size 1 would cancel to the edge.
    pop = PopulationSpec(entries, n_dim)
    report = find_edges(pop)
    assert_report_invariants(pop, report)
    for e, e_mp in zip([e for e in report.edges if e.soft], mp_soft_edges(pop, report)):
        assert abs(e.e_star - e_mp) <= 1e-13 * abs(e_mp)


@pytest.mark.parametrize("entries, n_dim", [
    (((1e-12, 10), (3e-12, 10)), 20),
    (((-0.00055, 14), (-1.5e-06, 16), (1.4e-06, 15), (770.0, 42)), 87),
])
def test_the_hard_edge_is_the_zero_of_g_prime_nearest_zero(entries, n_dim):
    # rank(T) = N: exactly one zero of g' is q = 0, the hard edge.  A soft
    # edge's q* may lie within 1e-11 max(1, max|t|) of 0 (here -5.2e-12
    # and 1.0e-9), where an absolute tolerance took it for a second hard
    # edge.
    pop = PopulationSpec(entries, n_dim)
    report = find_edges(pop)
    assert_report_invariants(pop, report)
    assert [e.e_star for e in report.edges if e.hard] == [0.0]
    # The edge at E* = -8.5e-17 sums sum(c/(q + t)) over values that cancel
    # 480-fold, and holds 1.8e-13 relative.
    for e, e_mp in zip([e for e in report.edges if e.soft], mp_soft_edges(pop, report)):
        assert abs(e.e_star - e_mp) <= 1e-12 * abs(e_mp)


def value_bound_scale(pop):
    """The largest c with c max|t| within VALUE_BOUND."""
    c = VALUE_BOUND / pop.norm
    return c if c * pop.norm <= VALUE_BOUND else math.nextafter(c, 0.0)


@given(signed_populations())
def test_reports_are_scale_covariant(pop):
    # The certificates and the degenerate label are relative, so the law
    # of c*T has c times the edges of T's, with the same labels.
    try:
        report = find_edges(pop)
    except SpecEdgeError:
        return
    labels = [(e.soft, e.gamma is None, e.side) for e in report.edges]
    for c in (1e-9, 1e-3, 10.0, value_bound_scale(pop)):
        if c * pop.norm > VALUE_BOUND:
            continue
        scaled = find_edges(pop.scaled(c))
        assert [(e.soft, e.gamma is None, e.side) for e in scaled.edges] == labels
        for a, b in zip(report.edges, scaled.edges):
            assert abs(b.e_star - c * a.e_star) <= 1e-13 * abs(c * a.e_star)


@pytest.mark.parametrize("entries", [
    ((-1.0, 100), (1.0, 100)),
    ((-3.0, 70), (-0.5, 30), (0.5, 30), (3.0, 70)),
])
def test_symmetric_full_rank_support_runs_through_zero(entries):
    # rank(T) = N and g''(0) = -2*sum(c/t)/N = 0: q = 0 is a double zero
    # of g', no hard edge, and the density is positive on both sides of 0.
    pop = PopulationSpec(entries, sum(c for _, c in entries))
    report = find_edges(pop)
    assert_report_invariants(pop, report)
    assert len(report.intervals) == 1
    lo, hi = report.intervals[0]
    assert lo == pytest.approx(-hi, rel=1e-12) and hi > 0
    assert all(e.soft and e.gamma > 0 for e in report.edges)
    for x in (-1e-3, 1e-3):
        assert density_f0(pop, x, cross_check=False) > 0.0
    for x in (lo - 0.05, hi + 0.05):
        assert density_f0(pop, x, cross_check=False) == 0.0


def test_symmetric_unit_population_edge_closed_form():
    # z0(m) = -1/m - m/(1 - m^2) has its minimum at m* = -1/sqrt(3), E* = 3*sqrt(3)/2.
    right = find_edges(PopulationSpec(((-1.0, 100), (1.0, 100)), 200)).edges[0]
    assert right.m_star == pytest.approx(-1.0 / math.sqrt(3.0), rel=1e-12)
    assert right.e_star == pytest.approx(1.5 * math.sqrt(3.0), rel=1e-12)


def flat_origin(pop):
    """rank(T) = N with sum(c/t) = 0 exactly, as find_edges tests it."""
    return pop.rank == pop.n_dim and math.fsum(c / t for t, c in pop.entries if t) == 0.0


@given(signed_populations())
def test_find_edges_invariants_on_random_populations(pop):
    # A typed SpecEdgeError is an allowed outcome; any other exception
    # (a bare ValueError, ZeroDivisionError, LinAlgError) fails the test.
    try:
        report = find_edges(pop)
    except SpecEdgeError:
        assert not flat_origin(pop)
        return
    assert_report_invariants(pop, report)
    if flat_origin(pop):
        # The double zero of g' at q = 0 puts 0 inside the support.
        assert any(lo < 0.0 < hi for lo, hi in report.intervals)


# -- the one-row root solver against the batched one ---------------------------

def numpy_row(p, d, j):
    """One row of the numpy kernel at anchor pole j as floats, the kernel
    looked up at each call."""
    return lambda s: tuple(map(float, specedge.edges._g_row(p, d, p[j], s)))


def float_pairs(p, d, j):
    """The (pj - p, d) pairs of the Python-float row at anchor pole j."""
    return list(zip((p[j] - p).tolist(), d.tolist()))


def float_row(p, d, j):
    """The Python-float row at anchor pole j."""
    pairs = float_pairs(p, d, j)
    return lambda s: _g_row_floats(pairs, s)


def solve_one(p, d, j, lo, hi, s0, numpy_kernel=True):
    """(s, g triple) from `_newton_bisect_one` at anchor pole j, or
    NonConvergence: on the float rows over the pairs, or with
    `numpy_kernel` on rows of the numpy kernel in their place."""
    g0 = tuple(specedge.edges._g_derivs(p, d, np.array([j]), np.array([s0]))[:, 0].tolist())
    lo, hi, s0 = float(lo), float(hi), float(s0)
    try:
        if not numpy_kernel:
            return _newton_bisect_one(float_pairs(p, d, j), lo, hi, s0, g0)
        row = numpy_row(p, d, j)
        with mock.patch.object(specedge.edges, "_g_row_floats", lambda _, s: row(s)):
            return _newton_bisect_one(None, lo, hi, s0, g0)
    except NonConvergence:
        return NonConvergence


def solve_many(p, d, j, lo, hi, s0):
    """(s, g triple) from a one-row run of the vectorized oracle of
    `_newton_bisect`, or NonConvergence."""
    try:
        s, g = newton_bisect(p, d, np.array([j]), np.array([lo]), np.array([hi]),
                             np.array([s0]), 1, np.ones(1, bool))
        return s[0], tuple(g[:, 0])
    except NonConvergence:
        return NonConvergence


def assert_same_bits(a, b):
    """Equal floats, with zeros of equal sign; a nan matches any nan."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(np.signbit(a) | np.isnan(a), np.signbit(b) | np.isnan(b))


@given(st.floats() | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
       st.floats() | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]))
def test_float_division_is_numpy_division(x, y):
    # The step rule and the early stop of the minimum search divide on
    # Python floats; a zero divisor must give numpy's +-inf or nan.
    with np.errstate(all="ignore"):
        assert_same_bits(specedge.edges._div(x, y), np.divide(x, y))

@given(signed_populations(), st.data())
def test_one_row_solver_matches_the_batched_solver(pop, data):
    vals, mults = pop.nonzero()
    p, d = _poles(vals, mults, pop.n_dim)
    k, reach = p.size, 2.0 * np.sqrt(np.sum(d))
    u = sorted(data.draw(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3)))
    j = data.draw(st.integers(-1, k - 1))
    if j < 0:       # left of the first pole, where g' rises from -1
        j, lo, hi = 0, -reach * u[2], -reach * u[0]
    else:
        w = p[j + 1] - p[j] if j < k - 1 else reach
        lo, hi = w * u[0], w * u[2]
    s0 = lo + (hi - lo) * u[1]
    with np.errstate(all="ignore"):     # the bracket may end on a pole
        one = solve_one(p, d, j, lo, hi, s0)
        assert one == solve_many(p, d, j, lo, hi, s0)
        assert solve_one(p, d, j, lo, hi, s0, numpy_kernel=False) == one
        # The kernel sums each row on its own: a row's values do not
        # depend on the other rows of the call.
        s = np.array([s0, lo, hi, 0.5 * (lo + hi)])
        batch = _g_derivs(p, d, np.full(4, j), s)
        rows = [_g_derivs(p, d, np.array([j]), s[i:i + 1])[:, 0] for i in range(4)]
    np.testing.assert_array_equal(batch, np.array(rows).T)


@given(signed_populations(), st.data())
def test_one_row_kernel_equals_its_row_of_a_batched_call(pop, data):
    # The one-row solver evaluates the kernel's body on one 1-D row; with
    # d the reversed view `_poles` returns, every row of a block must give
    # the same bits.
    p, d = _poles(*pop.nonzero(), pop.n_dim)
    j = np.array(data.draw(st.lists(st.integers(0, p.size - 1), min_size=13, max_size=13)))
    s = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=13, max_size=13)))
    with np.errstate(all="ignore"):     # an offset may land on a pole
        batch = _g_derivs(p, d, j, s)
        rows = [_g_row(p, d, p[j[i]], float(s[i])) for i in range(13)]
    np.testing.assert_array_equal(batch, np.array(rows).T)


@given(signed_populations(), st.data())
def test_kernel_row_matches_the_m_chart_oracle(pop, data):
    # g(q) = z0(1/q), so the row's g', g'', g''' at q = 1/m give z0', z0''
    # and z0''' by the chain rule in m = 1/q.  The bound is a few ulps of
    # each summand of z0^(k), grown by the rounding of 1 + tm in the oracle
    # and of q + t, formed from the anchor pole pj, in the row:
    # (k + 1)(1 + |pj m| + 2|tm|)/|1 + tm| in all.
    vals, mults = pop.nonzero()
    p, d = _poles(vals, mults, pop.n_dim)
    m = np.array(data.draw(st.lists(st.floats(-1e3, 1e3).filter(lambda x: abs(x) >= 1e-3),
                                    min_size=8, max_size=8)))
    tm = np.multiply.outer(m, vals)
    off = np.all(np.abs(1.0 + tm) >= 1e-6, axis=1)      # off the poles
    m, tm = m[off], tm[off]
    q, r = 1.0 / m, np.abs(1.0 + tm)
    pj = p[np.clip(np.searchsorted(p, q) - 1, 0, p.size - 1)]
    g1, g2, g3 = _g_row(p, d, pj[:, None], (q - pj)[:, None])
    chain = (-q**2 * g1, q**4 * g2 + 2 * q**3 * g1, -(q**6 * g3 + 6 * q**5 * g2 + 6 * q**4 * g1))
    for k, got in enumerate(chain, 1):
        coef = (1, 1, 2, 6)[k]
        grow = (k + 1) * (1.0 + np.abs(pj * m)[:, None] + 2.0 * np.abs(tm)) / r
        summands = coef * mults * np.abs(vals) ** (k + 1) / r ** (k + 1) / pop.n_dim
        bound = 4 * EPS * (coef / np.abs(m) ** (k + 1) + (summands * grow).sum(axis=-1))
        assert np.all(np.abs(got - z0_outer(pop, m, k)) <= bound)


@given(signed_populations(), st.data())
def test_float_row_equals_the_numpy_kernel_bit_for_bit(pop, data):
    # The Python-float row runs every float operation of the numpy kernel
    # in the same order, at up to 120 poles here; exactly on a pole, where
    # numpy divides by zero, it gives the same infinities.
    p, d = _poles(*pop.nonzero(), pop.n_dim)
    j = data.draw(st.integers(0, p.size - 1))
    on_pole = data.draw(st.lists(st.sampled_from((p - p[j]).tolist()), min_size=1, max_size=3))
    s = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4)) + on_pole
    with np.errstate(all="ignore"):
        blocks = _g_derivs(p, d, np.full(len(s), j), np.array(s))
    assert_same_bits(np.array([float_row(p, d, j)(x) for x in s]).T, blocks)


@given(signed_populations(), st.data())
def test_bracket_rows_of_a_swap_step_equal_the_block_loop(pop, data):
    # A swap step evaluates m* and its sign-rule bracket one row at a time
    # around one anchor pole, on Python floats; each row, and the numpy
    # kernel's row, must be the bits the block loop of `_g_derivs` gives.
    from specedge.swaps import _FALL, _RISE

    p, d = _poles(*pop.nonzero(), pop.n_dim)
    j = data.draw(st.integers(0, p.size - 1))
    m_star = data.draw(st.floats(-10.0, 10.0))
    budget = 10.0 / pop.n_dim
    widths = [0.0, *_RISE, *_FALL]
    assume(all(m_star + budget * w != 0.0 for w in widths))
    s = [1.0 / (m_star + budget * w) - float(p[j]) for w in widths]
    with np.errstate(all="ignore"):     # an offset may land on a pole
        blocks = _g_derivs(p, d, np.full(len(s), j), np.array(s))
        for row in (float_row(p, d, j), numpy_row(p, d, j)):
            assert_same_bits(np.array([row(x) for x in s]).T, blocks)


@given(signed_populations())
def test_soft_edge_reads_a_float_list_as_the_array(pop):
    # A swap step hands `_soft_edge` its value groups as a float list, and
    # find_edges the array: at every zero of g', with and without `unit`,
    # c, the edge, gamma and the values of c*T must have the same bits, or
    # both must raise the same error.
    vals, mults = pop.nonzero()
    p, d = _poles(vals, mults, pop.n_dim)
    try:
        j, s = _soft_extrema_q(p, d)
    except SpecEdgeError:
        assume(False)
    rows, cubes = _g_derivs(p, d, j, s).T.tolist(), _abs_cubes(p, d, j, s).tolist()
    for q, s_i, g, size in zip((p[j] + s).tolist(), s.tolist(), rows, cubes):
        for unit in (False, True):
            outcomes = []
            for given in (vals, vals.tolist()):
                try:
                    c, edge, gamma, scaled = _soft_edge(given, q, s_i, g, size, -q, unit=unit)
                    outcomes.append(repr((c, edge, gamma, np.asarray(scaled, float).tobytes())))
                except (SpecEdgeError, ArithmeticError) as exc:
                    outcomes.append(repr(exc))
            assert outcomes[0] == outcomes[1]


def test_one_row_solver_when_newton_leaves_the_bracket():
    # Far left of the first pole g' is near -1 and flat, so the first
    # Newton point overshoots the bracket.
    vals, mults = FIG1.nonzero()
    p, d = _poles(vals, mults, FIG1.n_dim)
    lo, hi = -2.0 * np.sqrt(np.sum(d)), 0.0
    g = _g_derivs(p, d, np.array([0]), np.array([lo]))[:, 0]
    assert not lo < lo - g[0] / g[1] < hi
    one = solve_one(p, d, 0, lo, hi, lo)
    assert one == solve_many(p, d, 0, lo, hi, lo) and one is not NonConvergence
    assert solve_one(p, d, 0, lo, hi, lo, numpy_kernel=False) == one


def solve_both_on(monkeypatch, derivs, lo, hi, s0):
    """Both solvers on the kernel derivs(s) -> (g', g'', g'''); each
    result must be the same and reached through the same points."""
    seen = []

    def kernel(p, d, pj, s):
        # The numpy kernel takes a scalar offset (one row) or a column of
        # offsets (a block of rows).
        xs = np.ravel(s).tolist()
        seen.extend(xs)
        g = np.array([derivs(x) for x in xs]).T
        return g if np.ndim(s) else g[:, 0]

    monkeypatch.setattr(specedge.edges, "_g_row", kernel)
    one_pole = np.zeros(1)
    one = solve_one(one_pole, None, 0, lo, hi, s0)
    one_seen = seen[:]
    seen.clear()
    assert solve_many(one_pole, None, 0, lo, hi, s0) == one
    assert seen == one_seen
    return one, len(seen)


def test_one_row_solver_runs_into_the_bisection_rule(monkeypatch):
    # Newton converges only linearly on a triple root (the error shrinks
    # by 2/3 a step), so the row is still open at step 40, from which
    # every step bisects.
    one, evals = solve_both_on(monkeypatch, lambda x: ((x - 0.3) ** 3, 3.0 * (x - 0.3) ** 2, 0.0),
                               0.0, 1.0, 0.9)
    assert one[0] == pytest.approx(0.3, abs=1e-6) and evals > 41


def test_one_row_solver_stop_and_bracket_rules(monkeypatch):
    # With g'' = 1/2 each Newton point mirrors the last about the root
    # 1/4, so the second lands exactly on the end the first set and
    # bisects.
    one, evals = solve_both_on(monkeypatch, lambda x: (x - 0.25, 0.5, 0.0), 0.0, 0.5, 0.375)
    assert one == (0.25, (0.0, 0.5, 0.0)) and evals == 3
    # At s = 0 the tolerance is 0, and a zero step still ends the search.
    one, evals = solve_both_on(monkeypatch, lambda x: (x, 1.0, 0.0), -1.0, 1.0, 0.0)
    assert one == (0.0, (0.0, 1.0, 0.0)) and evals == 1


def test_one_row_solver_divides_by_zero_as_numpy(monkeypatch):
    # g'' = -0 at the start makes the step -inf, and a root with g'' = 0
    # at the start makes it 0/0 = nan: both bisect.
    def signed_zero(x):
        return (x - 0.3, -0.0 if x == 0.9 else 1.0, 0.0)

    one, _ = solve_both_on(monkeypatch, signed_zero, 0.0, 1.0, 0.9)
    assert one[0] == pytest.approx(0.3)
    one, _ = solve_both_on(monkeypatch, lambda x: ((x - 0.5) ** 3, 3.0 * (x - 0.5) ** 2, 0.0),
                           0.0, 1.0, 0.5)
    assert one[0] == pytest.approx(0.5, abs=1e-4)
    # A bracket already too narrow to go on returns x - g'/g'' as it is.
    one, _ = solve_both_on(monkeypatch, signed_zero, 0.9, math.nextafter(0.9, 1.0), 0.9)
    assert one[0] == math.inf


@pytest.mark.parametrize("nan_where", [lambda x: x == 0.9, lambda x: x < 0.5],
                         ids=["at-the-start", "later"])
def test_one_row_solver_raises_on_a_nan_kernel_value(monkeypatch, nan_where):
    one, _ = solve_both_on(monkeypatch, lambda x: (x - 0.3, 1.0, math.nan if nan_where(x) else 0.0),
                           0.0, 1.0, 0.9)
    assert one is NonConvergence


def clustered_population(k, mass=1600, n_dim=2000):
    """k values in five evenly filled +-10% clusters around -6, -1.5, 0.5, 2, 8."""
    per = k // 5
    vals = [c * (1.0 + u) for c in (-6.0, -1.5, 0.5, 2.0, 8.0) for u in np.linspace(-0.1, 0.1, per)]
    return PopulationSpec(tuple((float(v), mass // k) for v in vals), n_dim)


def test_clustered_k400_edges_match_recorded_values():
    # Recorded from the per-interval brentq search that preceded the
    # batched one.
    recorded = [15.443202655608395, 2.9160928783024165, 2.807791478631841,
                0.020289674402897584, -0.12969821963530892, -1.8700177580089936,
                -1.9165960921394882, -11.154194697311453]
    pop = clustered_population(400)
    report = find_edges(pop)
    assert [e.e_star for e in report.edges] == pytest.approx(recorded, rel=1e-10)
    assert_report_invariants(pop, report)


def test_clustered_k1600_search_work_and_recorded_edges(monkeypatch):
    # The edges' m* are those of the search that ran all 1599 interior
    # pole intervals through the batched Newton-bisection, 3305 kernel rows
    # in all, and each E* = g(q*) is within 3e-16 of its 60-digit value.
    # The floor certifies every interval inside a cluster, so only the gaps
    # between clusters and the two unbounded ends reach the kernel.
    recorded = [15.440885236433754, 2.9163258323432664, 2.807602849301213,
                0.020291662750479788, -0.1297172099016195, -1.8699050022738533,
                -1.916733367718566, -11.152497166989358]
    rows = []
    kernel = specedge.edges._g_derivs
    monkeypatch.setattr(specedge.edges, "_g_derivs",
                        lambda p, d, j, s: rows.append(s.size) or kernel(p, d, j, s))
    pop = clustered_population(1600)
    report = find_edges(pop)
    assert sum(rows) < 1600
    assert [e.e_star for e in report.edges] == recorded
    assert_report_invariants(pop, report)


# -- the pole-interval floor against the full search ---------------------------

def full_minimum_search(p, d, cert):
    """The batched search for min g' over every interior pole interval, as
    `_soft_extrema_q` ran it before intervals were certified by their
    floor, on the vectorized oracle of `_newton_bisect`: returns the last
    offset and the g' triple on each row."""
    k = p.size
    w = p[1:] - p[:-1]
    ratio = (d[:-1] / d[1:]) ** (1.0 / 3.0)
    return newton_bisect(p, d, np.arange(k - 1), np.zeros(k - 1), w.copy(),
                         w * ratio / (1.0 + ratio), 2, np.ones(k - 1, bool), minimum_settle(cert))


def full_soft_extrema_q(p, d, flat_origin=False):
    """`_soft_extrema_q` without the floor: the oracle for the floored one."""
    k = p.size
    scale = max(1.0, np.max(np.abs(p)))
    cert = 1e-13 * scale
    split, g = full_minimum_search(p, d, cert)
    roots = np.where(g[0] < -cert, 2, np.where(g[0] > cert, 0, -1))
    if flat_origin:
        roots[np.searchsorted(p, 0.0) - 1] = 0
    unsure = np.flatnonzero(roots < 0)
    if unsure.size:
        jj = unsure[0]
        raise BracketFailure(
            f"cannot certify 0 or 2 extrema on ({p[jj]:g}, {p[jj + 1]:g}): "
            f"min g' = {g[0, jj]:.3e}"
        )
    two = np.flatnonzero(roots == 2)
    split = split[two]
    w = p[1:] - p[:-1]
    reach = 2.0 * np.sqrt(np.sum(d))
    j = np.concatenate([[0, k - 1], two, two])
    lo = np.concatenate([[-reach, 0.0], np.zeros(two.size), split])
    hi = np.concatenate([[0.0, reach], split, w[two]])
    s0 = np.concatenate([[-np.sqrt(d[0]), np.sqrt(d[-1])], split, split])
    rising = np.concatenate([[True, False], np.zeros(two.size, bool), np.ones(two.size, bool)])
    s, _ = newton_bisect(p, d, j, lo, hi, s0, 1, rising)
    order = np.argsort(p[j] + s)
    return j[order], s[order]


def outcome(search, *args):
    """The search's (j, s) as lists, or the type and message of what it raised."""
    try:
        return [a.tolist() for a in search(*args)]
    except SpecEdgeError as exc:
        return type(exc), str(exc)


@given(signed_populations())
def test_floored_search_matches_the_full_search(pop):
    args = (*_poles(*pop.nonzero(), pop.n_dim), flat_origin(pop))
    assert outcome(_soft_extrema_q, *args) == outcome(full_soft_extrema_q, *args)


@pytest.mark.parametrize("pop, nan_kernel", [
    (FIG1, True),
    (PopulationSpec(((-1.0, 100), (1.0, 100)), 200), False),
    (PopulationSpec(((-1.0, 100), (1.0, 100)), 200), True),
], ids=["fig1-nan-kernel", "symmetric", "symmetric-nan-kernel"])
def test_floored_search_raises_as_the_full_search(monkeypatch, pop, nan_kernel):
    # Without the flat-origin flag the symmetric population's double zero
    # at q = 0 cannot be certified; a NaN kernel fails the outer rows too.
    if nan_kernel:
        monkeypatch.setattr(specedge.edges, "_g_derivs",
                            lambda p, d, j, s: np.full((3, s.size), np.nan))
    args = _poles(*pop.nonzero(), pop.n_dim)
    full = outcome(full_soft_extrema_q, *args)
    assert full[0] in (BracketFailure, NonConvergence)
    assert outcome(_soft_extrema_q, *args) == full


# -- the float-control search against its vectorized oracle -------------------

def test_a_search_point_on_a_pole_raises_without_a_numpy_warning():
    # A value of 6e-35 beside 0, what a plug-in estimate gives on data with
    # no residual, puts a search point on a pole of g: the search raises,
    # typed, and numpy's divide-by-zero warning stays silent.
    pop = PopulationSpec(((-6.096991074539471e-35, 10), (0.0, 11), (2.423652631394631, 9)), 20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergence, match="non-finite derivative of g"):
            find_edges(pop)


def bench_clustered_population(k, seed=1, n_dim=2000, mass=1600):
    """`clustered_population(k)` jittered as the benchmark's `edges`
    workload draws it (perfbench/workloads.py, --seed 1): a quarter
    spacing, or +-1% for a one-value cluster."""
    rng = np.random.default_rng([seed, k])
    per = k // 5
    vals = []
    for c in (-6.0, -1.5, 0.5, 2.0, 8.0):
        if per == 1:
            vals.append(c * (1.0 + rng.uniform(-0.01, 0.01)))
            continue
        u = np.linspace(-0.1, 0.1, per) + rng.uniform(-0.25, 0.25, per) * (0.2 / (per - 1))
        vals.extend(c * (1.0 + u))
    return PopulationSpec(tuple((float(v), mass // k) for v in vals), n_dim)


def oracle_search(p, d, j, lo, hi, s, order, rising, settle=None):
    """The vectorized `newton_bisect` in place of `_newton_bisect`, with
    `_soft_extrema_q`'s settle rule in its array form."""
    if settle:
        settle = minimum_settle(1e-13 * max(1.0, np.max(np.abs(p))))
    return newton_bisect(p, d, j, lo, hi, s, order, rising, settle)


def search_bits(pop):
    """`_soft_extrema_q`'s (j, s) with the bits of s, and the report's JSON,
    or the type and message of what each raised."""
    args = (*_poles(*pop.nonzero(), pop.n_dim), flat_origin(pop))
    try:
        j, s = _soft_extrema_q(*args)
        found = j.tolist(), s.tobytes()
    except SpecEdgeError as exc:
        found = type(exc), str(exc)
    try:
        report = find_edges(pop).to_json()
    except SpecEdgeError as exc:
        report = type(exc), str(exc)
    return found, report


@given(signed_populations())
@example(bench_clustered_population(5))
@example(bench_clustered_population(40))
@example(bench_clustered_population(400))
@example(bench_clustered_population(1600))
def test_edge_search_matches_its_vectorized_oracle_bit_for_bit(pop):
    got = search_bits(pop)
    with mock.patch.object(specedge.edges, "_newton_bisect", oracle_search):
        assert got == search_bits(pop)


@given(signed_populations())
def test_pole_interval_floor_bounds_g_prime_from_below(pop):
    # F_j = (d_j^(1/3) + d_{j+1}^(1/3))^3 / w_j^2 - 1 <= g' on (p_j, p_j + w_j),
    # up to the search's rounding allowance, at fixed fractions of the
    # interval, at the two-pole guess and at the full search's own point.
    p, d = _poles(*pop.nonzero(), pop.n_dim)
    k = p.size
    assume(k > 1)
    w = np.diff(p)
    floor = (np.cbrt(d[:-1]) + np.cbrt(d[1:])) ** 3 / w**2 - 1.0
    allowance = 16 * (k + 2) * EPS * (floor + 1.0)
    ratio = np.cbrt(d[:-1] / d[1:])
    offsets = [w * u for u in (1e-3, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0 - 1e-3)]
    offsets.append(w * ratio / (1.0 + ratio))
    with np.errstate(all="ignore"):
        try:
            offsets.append(full_minimum_search(p, d, 1e-13 * max(1.0, np.max(np.abs(p))))[0])
        except NonConvergence:
            pass
        for s in offsets:
            j = np.flatnonzero((s > 0.0) & (s < w))
            g1 = _g_derivs(p, d, j, s[j])[0]
            assert (g1 >= floor[j] - allowance[j]).all()


def test_clustered_k40_density_vanishes_exactly_in_the_gaps():
    pop = clustered_population(40)
    ivs = find_edges(pop).intervals
    assert len(ivs) == 4
    for lo, hi in ivs:
        assert density_f0(pop, 0.5 * (lo + hi), cross_check=False) > 0.0
    for (_, a), (b, _) in zip(ivs, ivs[1:]):
        assert density_f0(pop, 0.5 * (a + b), cross_check=False) == 0.0


def test_domain_checks_raise_domain_error():
    report = find_edges(FIG1)
    with pytest.raises(DomainError):
        check_regularity(FIG1, report.edges[0], 1.5)
