"""Inverse-transform and Stieltjes-transform solver checks.

Expected values come from closed forms for the identity population
(where the fixed point is a quadratic), from 60-digit mpmath roots, and
from route redundancy: the certified edge-anchored boundary value against
solve_m0 just above the axis, an independent Newton continuation in eta.
"""

import warnings

import mpmath as mp
import numpy as np
import pytest
from conftest import signed_populations, z0_outer
from hypothesis import example, given

from specedge import (
    PopulationSpec, SpecEdgeError, atom_mass_at_zero, density_f0, find_edges,
    isolated_zero_in_support, solve_m0, spectral, stieltjes_boundary,
)
from specedge.errors import DomainError, PoleProximity, UndefinedAtZero
from specedge.spectral import density_grid, integrate_density

ID500 = PopulationSpec(((1.0, 500),), 500)
FIG1 = PopulationSpec(((-2.0, 350), (0.5, 300), (6.0, 50)), 500)
FIG2 = PopulationSpec(((-1.0, 400), (4.0, 100)), 500)


def spread_population(k, n_dim=500, mass=500):
    """k signed values, half evenly spread over [-3, -0.5], half over [0.5, 6]."""
    vals = np.concatenate([np.linspace(-3.0, -0.5, k // 2), np.linspace(0.5, 6.0, k - k // 2)])
    return PopulationSpec(tuple((float(v), mass // k) for v in vals), n_dim)


def padded_support_grid(pop, n_points, pad=0.05):
    """The abscissae density_grid(pop, n_points) tabulates."""
    rep = find_edges(pop)
    lo, hi = rep.intervals[0][0], rep.intervals[-1][1]
    return np.linspace(lo - pad * (hi - lo), hi + pad * (hi - lo), n_points)


def random_population(rng, n=200):
    k = rng.integers(1, 4)
    vals = rng.uniform(-3, 3, size=k)
    vals = vals[np.abs(vals) > 0.1]
    if vals.size == 0:
        vals = np.array([1.0])
    mults = rng.integers(20, 120, size=vals.size)
    return PopulationSpec(tuple(zip(vals.tolist(), (int(m) for m in mults))), n)


# -- z0 ---------------------------------------------------------------------

def test_z0_identity_closed_form():
    assert z0_outer(ID500, -0.5) == pytest.approx(4.0, abs=1e-14)


def test_z0_derivative_identity_values():
    assert z0_outer(ID500, -0.5, 1) == pytest.approx(0.0, abs=1e-12)
    assert z0_outer(ID500, -0.5, 2) == pytest.approx(32.0, rel=1e-13)


def test_z0_derivative_matches_finite_differences():
    rng = np.random.default_rng(7)
    h = 1e-6
    checked = 0
    while checked < 100:
        pop = random_population(rng)
        m = float(rng.uniform(-4, 4))
        poles = np.append(-1.0 / pop.nonzero()[0], 0.0)
        if np.min(np.abs(m - poles)) < 0.05:
            continue
        d1 = z0_outer(pop, m, 1)
        fd1 = (z0_outer(pop, m + h) - z0_outer(pop, m - h)) / (2 * h)
        assert d1 == pytest.approx(fd1, rel=1e-5, abs=1e-7)
        d2 = z0_outer(pop, m, 2)
        fd2 = (z0_outer(pop, m + h) - 2 * z0_outer(pop, m) + z0_outer(pop, m - h)) / h**2
        assert d2 == pytest.approx(fd2, rel=1e-4, abs=1e-3)
        checked += 1


def test_atom_form_kernel_matches_the_m_chart():
    # solve_m0 and the boundary solver both evaluate z0 through _gq, so
    # _gq is checked here against the m-chart oracle, the independent form:
    # g(q) = z0(1/q) and g'(q) = -z0'(m) m^2, to rounding of the summands.
    rng = np.random.default_rng(21)
    for _ in range(200):
        pop = random_population(rng, n=int(rng.integers(20, 400)))
        t, c, a = spectral._chart(pop)
        m = complex(rng.normal(0.0, 3.0), 10.0 ** rng.uniform(-6.0, 1.0))
        g, g1, _ = spectral._gq(t, c, a, np.array([1.0 / m]))
        z0, z1 = z0_outer(pop, m), z0_outer(pop, m, 1)
        scale = 1.0 / abs(m) + float(np.sum(c * np.abs(t / (1.0 + t * m))))
        assert abs(g[0] - z0) <= 1e-12 * scale
        scale1 = 1.0 / abs(m) ** 2 + float(np.sum(c * np.abs(t / (1.0 + t * m)) ** 2))
        assert abs(-g1[0] / m ** 2 - z1) <= 1e-12 * scale1


# -- solve_m0 ----------------------------------------------------------------

def quadratic_oracle(z, ratio):
    """For the identity population the fixed point solves
    z m^2 + (z + 1 - M/N) m + 1 = 0; return the upper-half-plane root."""
    roots = np.roots([z, z + 1 - ratio, 1.0])
    upper = [r for r in roots if r.imag > 0]
    assert len(upper) == 1
    return upper[0]


def test_solve_m0_identity_against_quadratic():
    rng = np.random.default_rng(3)
    for _ in range(50):
        z = complex(rng.uniform(-2, 6), 10 ** rng.uniform(-3, 0.5))
        m = solve_m0(ID500, z, tol=1e-13)
        assert m.imag > 0
        assert m == pytest.approx(quadratic_oracle(z, 1.0), abs=1e-10)


@pytest.mark.parametrize("pop", [ID500, PopulationSpec(((1.0, 300),), 500)])
@pytest.mark.parametrize("eta", [1e-6, 1e-10, 1e-13])
def test_solve_m0_is_relatively_accurate_next_to_zero(pop, eta):
    # With rank(T) <= N, |m0(z)| grows without bound as z -> 0, so an
    # absolute residual says little there; the root must still be exact to
    # 1e-12 relative.  The closed form is the quadratic's root in C+, each
    # root taken without cancellation: the larger from the formula, the
    # other as the product 1/z over it.
    z = complex(0.0, eta)
    b = z + 1.0 - pop.total_mult / pop.n_dim
    d = np.sqrt(b * b - 4.0 * z)
    if (b.conjugate() * d).real < 0:
        d = -d
    big = -0.5 * (b + d)
    (root,) = [r for r in (big / z, 1.0 / big) if r.imag > 0]
    m = solve_m0(pop, z)
    assert abs(m - root) <= 1e-12 * abs(root)


def test_solve_m0_large_z_asymptote():
    z = 1e6j
    for pop in (ID500, FIG1, FIG2):
        m = solve_m0(pop, z)
        assert abs(m + 1 / z) <= 10 / abs(z) ** 2


@pytest.mark.parametrize("z", [-1e8 + 1e-12j, 1e7 + 1e-9j])
def test_solve_m0_imaginary_part_far_outside_the_support(z):
    # m0 ~ -1/z here, so Im m0 ~ eta/x^2, though eta lies below the
    # residual's rounding floor 4 eps |z|
    for pop in (ID500, FIG1):
        assert solve_m0(pop, z).imag == pytest.approx(z.imag / z.real ** 2, rel=1e-6, abs=0.0)


ZERO_ATOM = PopulationSpec(((0.0, 200), (1.0, 300)), 500)


@pytest.mark.parametrize("z", [1e300 + 1j, 1e155 + 1j])
@pytest.mark.parametrize("pop", [FIG1, ID500, ZERO_ATOM], ids=["FIG1", "ID500", "zero-atom"])
def test_solve_m0_rejects_z_whose_seed_underflows_up_front(monkeypatch, pop, z):
    # Im(-1/z) lies below the smallest normal double: rejected before the
    # first kernel call, not after the loop has spent its budget halving.
    monkeypatch.setattr(spectral, "_gq", None)
    with pytest.raises(DomainError, match="smallest normal double"):
        solve_m0(pop, z)


@pytest.mark.parametrize("pop", [FIG1, ID500, ZERO_ATOM], ids=["FIG1", "ID500", "zero-atom"])
def test_solve_m0_far_out_with_a_normal_seed(pop):
    z = 1e150 + 1j
    m = solve_m0(pop, z)
    assert m.real == pytest.approx((-1 / z).real, rel=1e-12, abs=0.0)
    assert m.imag == pytest.approx((-1 / z).imag, rel=1e-12, abs=0.0)


def test_solve_m0_rejects_lower_half_plane():
    with pytest.raises(DomainError):
        solve_m0(ID500, 2 - 1j)
    with pytest.raises(DomainError):
        solve_m0(ID500, 2 + 1j, tol=-1.0)


@pytest.mark.parametrize("z, tol", [
    (complex(np.nan, 1.0), 1e-12), (complex(np.inf, 1.0), 1e-12), (complex(2.0, np.inf), 1e-12),
    (2 + 1j, np.nan), (2 + 1j, np.inf),
], ids=["nan-z", "inf-z", "inf-eta", "nan-tol", "inf-tol"])
def test_solve_m0_rejects_non_finite_arguments_up_front(monkeypatch, z, tol):
    # Rejected before the first kernel call, not after the whole eta ladder.
    monkeypatch.setattr(spectral, "_gq", None)
    with pytest.raises(DomainError, match="finite"):
        solve_m0(FIG1, z, tol)


def test_solve_m0_fixed_point_residual_random():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        pop = random_population(rng)
        z = complex(rng.uniform(-8, 8), 10 ** rng.uniform(-6, 1))
        m = solve_m0(pop, z, tol=1e-12)
        assert m.imag > 0
        assert abs(z0_outer(pop, m) - z) <= 1e-12


def test_solve_m0_lipschitz_in_z():
    rng = np.random.default_rng(13)
    for _ in range(200):
        pop = random_population(rng)
        eta = 10 ** rng.uniform(-1.3, 0)
        z1 = complex(rng.uniform(-6, 6), eta)
        z2 = z1 + complex(rng.uniform(-0.05, 0.05), rng.uniform(0, 0.05))
        m1, m2 = solve_m0(pop, z1), solve_m0(pop, z2)
        bound = abs(z1 - z2) / min(z1.imag, z2.imag) ** 2
        assert abs(m1 - m2) <= bound + 1e-12


def test_solve_m0_bulk_interior_regression():
    # cold starts here once chased the z0 -> 0 plateau at |m| -> infinity;
    # the Newton continuation in eta must hold the residual contract
    pop = PopulationSpec(((-3.696, 125), (-3.462, 103), (-1.787, 102), (2.757, 236)), 281)
    for eta in (0.5, 1e-2, 1e-4, 1e-6):
        z = complex(0.7032603127893147, eta)
        m = solve_m0(pop, z, tol=1e-13)
        assert m.imag > 0
        assert abs(z0_outer(pop, m) - z) <= 1e-13


def test_solve_m0_symmetric_full_rank_outer_bulk():
    # the outer bulk of a symmetric full-rank population, close to the
    # axis: the Newton continuation in eta reaches the root in C+
    t = (73.5, 57.3, 16.3, 7.75, 3.61, 3.14, 2.13, 1.05, 0.918, 0.873, 0.868, 0.5, 0.204,
         0.128, 0.084, 0.0565, 0.0491, 0.0372, 0.0267, 0.0255, 0.0238, 0.0206, 0.018)
    k = (11, 19, 40, 2, 34, 42, 18, 47, 43, 13, 11, 35, 9, 46, 49, 26, 50, 29, 44, 24, 14, 15, 36)
    pop = PopulationSpec(tuple((s * v, n) for v, n in zip(t, k) for s in (1.0, -1.0)), 1314)
    z = 66 + 1e-3j
    m = solve_m0(pop, z)
    assert m.imag > 0
    assert abs(z0_outer(pop, m) - z) <= 1e-12
    assert abs(m - (-0.0154004 + 0.0013071j)) <= 1e-6


def test_solve_m0_is_independent_of_the_boundary_solver(monkeypatch):
    # solve_m0 is the tests' oracle for the boundary solver, so it must
    # never call it; the FIG1 boundary values are taken before the patch
    xs = (-6.0, -1.0, 0.3, 5.0, 9.0)
    boundary = [stieltjes_boundary(FIG1, x) for x in xs]

    def no_support(pop):
        raise AssertionError("solve_m0 called the boundary solver")

    monkeypatch.setattr(spectral, "_support", no_support)
    test_solve_m0_symmetric_full_rank_outer_bulk()
    for x, want in zip(xs, boundary):
        z = complex(x, 1e-9)
        m = solve_m0(FIG1, z)
        assert m.imag > 0
        assert abs(z0_outer(FIG1, m) - z) <= 1e-12
        assert m == pytest.approx(want, rel=1e-6)


def near_axis_density(pop, x):
    """f0(x) from solve_m0 at z = x + 1e-9i, the independent C+ route,
    less the atom's -a/z, whose imaginary part a*eta/|z|^2 is not small
    next to 0."""
    z = complex(x, 1e-9)
    return max(0.0, (solve_m0(pop, z) + atom_mass_at_zero(pop) / z).imag / np.pi)


def near_axis_value(pop, x):
    """m0(x + 1e-9i) from solve_m0 less the atom's -a/z, and how far it may
    lie from the boundary value less -a/x: 1e-6 relative, plus ten times
    the 1e-9 * |m0'(x)| by which the offset moves it."""
    z = complex(x, 1e-9)
    m = stieltjes_boundary(pop, x)
    slack = 1e-6 * max(1.0, abs(m)) + 1e-8 / abs(z0_outer(pop, m, 1))
    return solve_m0(pop, z) + atom_mass_at_zero(pop) / z, slack


@given(signed_populations())
def test_boundary_values_match_solve_m0_on_random_populations(pop):
    try:
        report = find_edges(pop)
    except SpecEdgeError:
        return
    a = atom_mass_at_zero(pop)
    lo, hi = report.intervals[0][0], report.intervals[-1][1]
    # every row of the grid is solved; every fourth is checked
    for x, f in density_grid(pop, n_points=65).points[::4]:
        ref, slack = near_axis_value(pop, x)
        assert abs(f - max(0.0, ref.imag / np.pi)) <= slack
    rng = np.random.default_rng(len(pop.entries))
    for x in rng.uniform(lo - 0.2 * (hi - lo), hi + 0.2 * (hi - lo), 8):
        ref, slack = near_axis_value(pop, x)
        assert abs(stieltjes_boundary(pop, x) + a / x - ref) <= slack


def test_boundary_dual_routes_agree_randomized():
    rng = np.random.default_rng(515)
    count = 0
    while count < 120:
        pop = random_population(rng)
        rep = find_edges(pop)
        lo, hi = rep.intervals[0][0], rep.intervals[-1][1]
        x = float(rng.uniform(lo - 0.2 * (hi - lo), hi + 0.2 * (hi - lo)))
        if abs(x) < 1e-6 and pop.rank <= pop.n_dim:
            continue
        f = density_f0(pop, x)
        assert abs(f - near_axis_density(pop, x)) <= 1e-6 * (1.0 + f)
        # the full boundary value, real part and real roots outside the
        # support included, less the atom's pole on both routes
        a, z = atom_mass_at_zero(pop), complex(x, 1e-9)
        m = stieltjes_boundary(pop, x)
        assert abs(m + a / x - (solve_m0(pop, z) + a / z)) <= 1e-6 * max(1.0, abs(m))
        count += 1


def test_boundary_value_in_the_bulk_matches_solve_m0():
    # interior point of the upper Fig 1 bulk: Im m0 just above the axis
    # approximates pi * f0
    x = 5.0
    m = stieltjes_boundary(FIG1, x)
    z_near = solve_m0(FIG1, complex(x, 1e-9), tol=1e-13)
    assert m == pytest.approx(z_near, rel=1e-8)
    assert m.imag > 0


@pytest.mark.parametrize("k, stride", [(40, 16), (100, 40)])
def test_boundary_matches_solve_m0_many_values(k, stride):
    # polynomial coefficients of degree k+1 lose this by O(1e-2) to O(1)
    pop = spread_population(k)
    for x in padded_support_grid(pop, 400)[::stride]:
        f = density_f0(pop, float(x))
        assert abs(f - near_axis_density(pop, x)) <= 1e-6 * (1.0 + f)


@pytest.mark.parametrize("pop", [FIG1, spread_population(20)], ids=["fig1", "k20"])
def test_density_grid_rows_match_cross_checked_points(pop):
    # cross-checked: each row against the independent solve_m0 route
    rows = density_grid(pop, n_points=400).points
    for x, f in rows[::25]:
        assert abs(f - near_axis_density(pop, x)) <= 1e-6 * (1.0 + f)


def test_density_at_zero_matches_solve_m0():
    # rank > N: x = 0 is an ordinary interior point, where one root of the
    # q = 1/m chart is q = 0 and must not be picked
    f = density_f0(FIG1, 0.0)
    assert f == pytest.approx(solve_m0(FIG1, 1e-9j).imag / np.pi, rel=1e-6)


def test_failed_points_retry_from_chains_with_half_the_step(monkeypatch):
    # one-step chains and two Newton steps per abscissa leave most points
    # uncertified; the retries from chains with half the largest step,
    # and half again, certify every one and reproduce the default grid
    pop = spread_population(20)
    grid = density_grid(pop, n_points=400)
    monkeypatch.setattr(spectral, "CHAIN_NODES", 1)
    monkeypatch.setattr(spectral, "CHAIN_TRUST", np.inf)
    monkeypatch.setattr(spectral, "NEWTON_STEPS", 2)
    coarse = density_grid(PopulationSpec(pop.entries, pop.n_dim), n_points=400)
    assert np.allclose(coarse.points, grid.points, rtol=1e-12, atol=1e-14)


def test_density_grid_mass_many_values():
    pop = spread_population(40)
    grid = density_grid(pop, n_points=400)
    xs = np.array([x for x, _ in grid.points])
    fs = np.array([f for _, f in grid.points])
    # a trapezoid rule misses at most the cells next to each edge
    h = xs[1] - xs[0]
    tol = 1e-6
    for edge in find_edges(pop).edges:
        i = int(np.searchsorted(xs, edge.e_star))
        tol += h * (fs[max(i - 1, 0)] + fs[min(i, xs.size - 1)])
    assert grid.quadrature_residual() <= tol


# -- density and atom ---------------------------------------------------------

def test_density_identity_interior():
    assert density_f0(ID500, 2.0) == pytest.approx(1 / (2 * np.pi), rel=1e-10)


def test_density_outside_support_zero():
    assert density_f0(ID500, 5.0) == 0.0
    assert density_f0(ID500, -1.0) == 0.0


def test_density_identity_closed_form_grid():
    xs = np.linspace(0.05, 3.95, 40)
    for x in xs:
        expected = np.sqrt((4 - x) * x) / (2 * np.pi * x)
        assert density_f0(ID500, float(x)) == pytest.approx(expected, abs=1e-10)


def test_density_undefined_at_zero_when_rank_small():
    with pytest.raises(UndefinedAtZero):
        density_f0(ID500, 0.0)      # rank = N
    with pytest.raises(UndefinedAtZero):
        density_f0(PopulationSpec(((1.0, 300),), 500), 0.0)
    # rank > N: defined and positive (0 is interior to Fig 1's lower bulk)
    assert density_f0(FIG1, 0.0) > 0


def test_cross_checked_density_vanishes_next_to_an_atom():
    # rank(T) < N: the atom's pole -a/z sits next to small x
    pop = PopulationSpec(((0.0, 200), (1.0, 300)), 500)
    assert density_f0(pop, 1e-8) == 0.0
    assert density_f0(pop, 1e-12) == 0.0


@pytest.mark.parametrize("cross_check", [True, False])
@pytest.mark.parametrize("x", [1e-18, 1e-300])
def test_boundary_value_next_to_an_atom_is_the_closed_form(x, cross_check):
    # m0 = -a/x there: in the chart q = 1/m its root q = -x/a keeps full
    # relative precision, and the density is 0
    pop = PopulationSpec(((0.0, 200), (1.0, 300)), 500)
    assert density_f0(pop, x, cross_check=cross_check) == 0.0
    m = stieltjes_boundary(pop, x)
    assert m.imag == 0.0
    assert m.real == pytest.approx(-0.4 / x, rel=1e-12)


@pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("fn", [density_f0, stieltjes_boundary], ids=["density", "boundary"])
def test_boundary_value_rejects_a_non_finite_abscissa(fn, x):
    with pytest.raises(DomainError, match="finite"):
        fn(FIG1, x)


@pytest.mark.parametrize("x", [5e-324, -5e-324, 1e-310])
def test_boundary_value_that_overflows_raises(x):
    # q = -x/a is still right, but m = 1/q does not fit a double
    pop = PopulationSpec(((0.0, 200), (1.0, 300)), 500)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PoleProximity, match=f"x={x!r}"):
            stieltjes_boundary(pop, x)
        assert density_f0(pop, x) == 0.0


@pytest.mark.parametrize("x", [1e-8, 1e-10])
def test_density_identity_next_to_the_hard_edge(x):
    closed_form = np.sqrt(1 - x / 4) / (np.pi * np.sqrt(x))
    assert density_f0(ID500, x) == pytest.approx(closed_form, rel=1e-10)


@given(signed_populations())
@example(FIG1)
def test_density_at_and_next_to_soft_edges(pop):
    try:
        report = find_edges(pop)
    except SpecEdgeError:
        return
    for e in report.edges:
        if e.soft:
            for x in (np.nextafter(e.e_star, -np.inf), e.e_star, np.nextafter(e.e_star, np.inf)):
                f = density_f0(pop, x)
                assert np.isfinite(f) and f >= 0.0


@given(signed_populations())
def test_density_grid_on_random_populations(pop):
    try:
        find_edges(pop)
    except SpecEdgeError:
        return
    # an odd count puts an abscissa at 0 on populations symmetric about it
    fs = np.array(density_grid(pop, n_points=65).points)[:, 1]
    assert np.all(np.isfinite(fs)) and np.all(fs >= 0.0)


def test_density_grid_abscissa_at_zero_on_a_full_rank_population():
    pop = PopulationSpec(((-1.0, 100), (1.0, 100)), 200)
    # the odd grid puts an abscissa at 0, where f0 ~ |x|^(-1/3) is unbounded
    x, f = min(density_grid(pop, n_points=11).points, key=lambda row: abs(row[0]))
    assert 0.0 < x < 1e-3
    assert f == pytest.approx(near_axis_density(pop, x), rel=1e-6)


def test_density_grid_next_to_a_soft_edge_near_zero():
    # The lower edge (1 - sqrt(y))^2 = ((1 - y)/(1 + sqrt(y)))^2 = 2.5e-9,
    # y = M/N, in the form that does not cancel, with 1 - y = 1/N exact.
    # A grid spanning the support keeps the closed form inside it and ends
    # on the reported edges, where the density vanishes: next to an edge
    # the square-root law turns an ulp of disagreement on the edge into
    # f ~ 6e-5.
    pop = PopulationSpec(((0.0, 1), (1.0, 10000)), 10001)
    y = 10000 / 10001
    a, b = ((1 / 10001) / (1 + np.sqrt(y))) ** 2, (1 + np.sqrt(y)) ** 2
    report = find_edges(pop)
    assert [e.e_star for e in report.edges] == pytest.approx([b, a], rel=1e-15, abs=0.0)
    x, f = np.array(density_grid(pop, n_points=400, pad=0.0).points).T
    assert (x[0], x[-1]) == (report.edges[1].e_star, report.edges[0].e_star)
    assert f[0] == 0.0 and f[-1] == 0.0
    closed_form = np.sqrt((b - x[1:-1]) * (x[1:-1] - a)) / (2 * np.pi * x[1:-1])
    assert f[1:-1] == pytest.approx(closed_form, rel=1e-10, abs=1e-12)


NEGPOP = PopulationSpec(((-8.0, 100), (-0.5, 400)), 500)


def mp_boundary(pop, x):
    """m0(x + i0) to 60 digits from all k + 1 roots of g(q) = z0(1/q) = x:
    the one root with Im q < 0 when there is one (m in C+), else the one
    real root with g' < 0."""
    mp.mp.dps = 60
    vals, mults = pop.nonzero()
    t = [mp.mpf(float(v)) for v in vals]
    c = [mp.mpf(int(k)) / pop.n_dim for k in mults]

    def mul(a, b):
        out = [mp.mpf(0)] * (len(a) + len(b) - 1)
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                out[i + j] += u * v
        return out

    # (q + t_1)...(q + t_k) g(q) = (-q - x) prod (q + t) + sum c_i t_i q prod_(j != i) (q + t_j)
    poly = [mp.mpf(-1), -mp.mpf(x)]
    for tj in t:
        poly = mul(poly, [mp.mpf(1), tj])
    for i, ti in enumerate(t):
        term = [c[i] * ti, mp.mpf(0)]
        for j, tj in enumerate(t):
            if j != i:
                term = mul(term, [mp.mpf(1), tj])
        poly = [p + s for p, s in zip(poly, [mp.mpf(0)] + term)]
    roots = mp.polyroots(poly, maxsteps=400, extraprec=400)
    lower = [q for q in roots if mp.im(q) < -mp.mpf(10) ** -40]
    if lower:
        assert len(lower) == 1
        return complex(1 / lower[0])
    slope = lambda q: -1 + sum(ci * ti**2 / (q + ti) ** 2 for ci, ti in zip(c, t))
    real = [mp.re(q) for q in roots if slope(mp.re(q)) < 0]
    assert len(real) == 1
    return complex(1 / real[0])


@pytest.mark.parametrize("pop", [FIG1, FIG2, NEGPOP, spread_population(8)],
                         ids=["fig1", "fig2", "negpop", "k8"])
def test_boundary_value_next_to_soft_edges_against_mpmath(pop):
    # Offsets are relative to max(|E|, 1): an edge near 0 is known only to
    # the rounding of g's summands, about 1e-14 absolute here.
    for e in find_edges(pop).edges:
        if not e.soft:
            continue
        for rel in (1e-12, 1e-9, 1e-6, 1e-3):
            for x in e.e_star + np.array([-rel, rel]) * max(abs(e.e_star), 1.0):
                ref = mp_boundary(pop, x)
                assert abs(stieltjes_boundary(pop, x) - ref) <= 1e-9 * abs(ref)


@pytest.mark.parametrize("pop", [FIG1, FIG2, NEGPOP], ids=["fig1", "fig2", "negpop"])
def test_boundary_value_at_a_soft_edge_is_m_star(pop):
    # At E* itself the boundary value is the edge's own real m*, taken
    # from the edge zone without a solve.
    for e in find_edges(pop).edges:
        if e.soft:
            m = stieltjes_boundary(pop, e.e_star)
            assert m.imag == 0.0
            assert m.real == pytest.approx(e.m_star, rel=4e-16)


@pytest.mark.parametrize("pop", [ID500, FIG2], ids=["identity", "fig2"])
def test_boundary_value_next_to_the_hard_edge_against_mpmath(pop):
    for x in (1e-12, 1e-9, 1e-6, 1e-3):
        for side in (-1.0, 1.0):
            ref = mp_boundary(pop, side * x)
            assert abs(stieltjes_boundary(pop, side * x) - ref) <= 1e-9 * abs(ref)


def test_atom_mass_examples():
    assert atom_mass_at_zero(PopulationSpec(((1.0, 300),), 500)) == pytest.approx(0.4)
    assert atom_mass_at_zero(FIG1) == 0.0
    assert atom_mass_at_zero(FIG2) == 0.0
    assert isolated_zero_in_support(PopulationSpec(((1.0, 300),), 500))
    assert not isolated_zero_in_support(FIG2)


def test_normalization_with_atom():
    pop = PopulationSpec(((1.0, 300),), 500)
    rep = find_edges(pop)
    total = integrate_density(pop, rep.intervals) + rep.atom_at_zero
    assert total == pytest.approx(1.0, abs=1e-6)


def clustered_population(k, seed=1, n_dim=2000, mass=1600):
    """k values in five clusters of +-10% around -6, -1.5, 0.5, 2 and 8,
    evenly spaced inside each cluster and jittered by a quarter spacing."""
    rng = np.random.default_rng([seed, k])
    per = k // 5
    vals = []
    for c in (-6.0, -1.5, 0.5, 2.0, 8.0):
        step = 0.2 / (per - 1)
        u = np.linspace(-0.1, 0.1, per) + rng.uniform(-0.25, 0.25, per) * step
        vals.extend(c * (1.0 + u))
    return PopulationSpec(tuple((float(v), mass // k) for v in vals), n_dim)


@pytest.mark.parametrize("k", [400, 1600])
def test_normalization_on_clustered_populations(k):
    pop = clustered_population(k)
    rep = find_edges(pop)
    assert abs(integrate_density(pop, rep.intervals) + rep.atom_at_zero - 1.0) <= 1e-6


def test_integral_through_a_singular_zero():
    # rank(T) = N and sum(c/t) = 0: f0 grows like |x|^(-1/3) at 0, inside
    # the one support interval
    pop = PopulationSpec(((-1.0, 100), (1.0, 100)), 200)
    assert integrate_density(pop, find_edges(pop).intervals) == pytest.approx(1.0, abs=1e-4)


def test_reflection_symmetry_of_density():
    refl = FIG1.reflected()
    for x in (-6.0, -1.0, 0.7, 3.0, 5.0, 9.0):
        assert density_f0(refl, -x) == pytest.approx(density_f0(FIG1, x), abs=1e-9)


def test_density_grid_type():
    from specedge.spectral import DensityGrid, density_grid

    # soft edges only: uniform trapezoid converges like h^{3/2}
    grid = density_grid(FIG1, n_points=1500)
    assert len(grid.points) == 1500
    assert grid.atom_at_zero == 0.0
    assert grid.quadrature_residual() < 2e-3
    # a hard edge carries an integrable 1/sqrt singularity the uniform
    # grid resolves only coarsely
    hard = density_grid(ID500, n_points=1200)
    assert hard.quadrature_residual() < 0.05

    with pytest.raises(DomainError):
        DensityGrid(points=((0.0, 0.1), (0.0, 0.2)), atom_at_zero=0.0)
    with pytest.raises(DomainError):
        DensityGrid(points=((0.0, 0.1), (1.0, -0.2)), atom_at_zero=0.0)
    with pytest.raises(DomainError):
        DensityGrid(points=((0.0, 0.1), (np.nan, 0.2)), atom_at_zero=0.0)


@pytest.mark.parametrize("pad", [np.nan, np.inf, -0.05])
def test_density_grid_rejects_a_non_finite_or_negative_pad(pad):
    with pytest.raises(DomainError, match="pad"):
        density_grid(FIG1, 3, pad=pad)


@pytest.mark.parametrize("pad", [1e307, 1e308, np.float64(1e308)])
def test_density_grid_rejects_a_pad_that_overflows_the_grid(pad):
    # a finite pad whose grid ends or spacing overflow a double names pad,
    # with no numpy overflow warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="pad"):
            density_grid(FIG1, 3, pad=pad)


@pytest.mark.parametrize("n_points", [0, 2.5, True])
def test_density_grid_rejects_a_non_integer_or_empty_grid(n_points):
    with pytest.raises(DomainError, match="n_points"):
        density_grid(FIG1, n_points)


@pytest.mark.parametrize("intervals, points", [
    (None, 0), (None, -5), (None, 2.5), (None, True), (((-3.0, np.nan),), 800),
    (((np.inf, 9.0),), 800), ("reversed", 800),
], ids=["zero-points", "negative-points", "fractional-points", "boolean-points", "nan-end",
        "inf-end", "reversed"])
def test_integrate_density_rejects_empty_rules_and_bad_intervals(intervals, points):
    ivs = find_edges(FIG1).intervals
    if intervals is None:
        intervals = ivs
    elif intervals == "reversed":
        intervals = ((ivs[0][1], ivs[0][0]),) + tuple(ivs[1:])
    with pytest.raises(DomainError):
        integrate_density(FIG1, intervals, points)
