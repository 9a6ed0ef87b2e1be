"""Inverse-transform and Stieltjes-transform solver checks.

Expected values come from closed forms for the identity population
(where the fixed point is a quadratic) and from route redundancy
(arrowhead-eigenvalue roots vs eta-ladder extrapolation, and the
boundary value vs solve_m0 just above the axis).
"""

import numpy as np
import pytest

from specedge import PopulationSpec, atom_mass_at_zero, density_f0, solve_m0, stieltjes_boundary, z0_derivative, z0_eval
from specedge.errors import DomainError, PoleProximity, UndefinedAtZero
from specedge.spectral import density_grid, integrate_density, isolated_zero_in_support

ID500 = PopulationSpec(((1.0, 500),), 500)
FIG1 = PopulationSpec(((-2.0, 350), (0.5, 300), (6.0, 50)), 500)
FIG2 = PopulationSpec(((-1.0, 400), (4.0, 100)), 500)


def spread_population(k, n_dim=500, mass=500):
    """k signed values, half evenly spread over [-3, -0.5], half over [0.5, 6]."""
    vals = np.concatenate([np.linspace(-3.0, -0.5, k // 2), np.linspace(0.5, 6.0, k - k // 2)])
    return PopulationSpec(tuple((float(v), mass // k) for v in vals), n_dim)


def padded_support_grid(pop, n_points, pad=0.05):
    """The abscissae density_grid(pop, n_points) tabulates."""
    from specedge import find_edges

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
    assert z0_eval(ID500, -0.5) == pytest.approx(4.0, abs=1e-14)


def test_z0_at_infinity_is_zero():
    assert z0_eval(FIG1, float("inf")) == 0.0
    assert z0_eval(ID500, float("-inf")) == 0.0


def test_z0_pole_proximity():
    # -1/t = 1 for the t = -1 block
    with pytest.raises(PoleProximity):
        z0_eval(FIG2, 1.0 + 1e-15)
    with pytest.raises(PoleProximity):
        z0_derivative(FIG2, 1e-16, 1)


def test_z0_derivative_identity_values():
    assert z0_derivative(ID500, -0.5, 1) == pytest.approx(0.0, abs=1e-12)
    assert z0_derivative(ID500, -0.5, 2) == pytest.approx(32.0, rel=1e-13)


def test_z0_derivative_order_domain():
    with pytest.raises(DomainError):
        z0_derivative(ID500, -0.5, 4)


def test_z0_derivative_matches_finite_differences():
    rng = np.random.default_rng(7)
    h = 1e-6
    checked = 0
    while checked < 100:
        pop = random_population(rng)
        m = float(rng.uniform(-4, 4))
        if np.min(np.abs(m - pop.poles())) < 0.05:
            continue
        d1 = z0_derivative(pop, m, 1)
        fd1 = (z0_eval(pop, m + h) - z0_eval(pop, m - h)) / (2 * h)
        assert d1 == pytest.approx(fd1, rel=1e-5, abs=1e-7)
        d2 = z0_derivative(pop, m, 2)
        fd2 = (z0_eval(pop, m + h) - 2 * z0_eval(pop, m) + z0_eval(pop, m - h)) / h**2
        assert d2 == pytest.approx(fd2, rel=1e-4, abs=1e-3)
        checked += 1


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


def test_solve_m0_large_z_asymptote():
    z = 1e6j
    for pop in (ID500, FIG1, FIG2):
        m = solve_m0(pop, z)
        assert abs(m + 1 / z) <= 10 / abs(z) ** 2


def test_solve_m0_rejects_lower_half_plane():
    with pytest.raises(DomainError):
        solve_m0(ID500, 2 - 1j)
    with pytest.raises(DomainError):
        solve_m0(ID500, 2 + 1j, tol=-1.0)


def test_solve_m0_fixed_point_residual_random():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        pop = random_population(rng)
        z = complex(rng.uniform(-8, 8), 10 ** rng.uniform(-6, 1))
        m = solve_m0(pop, z, tol=1e-12)
        assert m.imag > 0
        assert abs(z0_eval(pop, m) - z) <= 1e-12


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
    # the gated-Newton + ladder design must hold the residual contract
    pop = PopulationSpec(((-3.696, 125), (-3.462, 103), (-1.787, 102), (2.757, 236)), 281)
    for eta in (0.5, 1e-2, 1e-4, 1e-6):
        z = complex(0.7032603127893147, eta)
        m = solve_m0(pop, z, tol=1e-13)
        assert m.imag > 0
        assert abs(z0_eval(pop, m) - z) <= 1e-13


def test_boundary_dual_routes_agree_randomized():
    from specedge import find_edges

    rng = np.random.default_rng(515)
    count = 0
    while count < 120:
        pop = random_population(rng)
        rep = find_edges(pop)
        lo, hi = rep.intervals[0][0], rep.intervals[-1][1]
        x = float(rng.uniform(lo - 0.2 * (hi - lo), hi + 0.2 * (hi - lo)))
        if abs(x) < 1e-6 and pop.rank <= pop.n_dim:
            continue
        assert density_f0(pop, x) >= 0  # raises if the two routes disagree
        count += 1


def test_boundary_value_near_support_matches_ladder():
    # interior point of the upper Fig 1 bulk; the two routes must agree,
    # and Im m0 just above the axis approximates pi * f0
    x = 5.0
    m = stieltjes_boundary(FIG1, x, cross_check=True)
    z_near = solve_m0(FIG1, complex(x, 1e-8), tol=1e-13)
    assert z_near.imag == pytest.approx(np.pi * density_f0(FIG1, x), rel=1e-4)
    assert m.imag > 0


@pytest.mark.parametrize("k, stride", [(40, 16), (100, 40)])
def test_boundary_matches_solve_m0_many_values(k, stride):
    # polynomial coefficients of degree k+1 lose this by O(1e-2) to O(1)
    pop = spread_population(k)
    for x in padded_support_grid(pop, 400)[::stride]:
        f = density_f0(pop, float(x), cross_check=False)
        ref = max(0.0, solve_m0(pop, complex(x, 1e-9)).imag / np.pi)
        assert abs(f - ref) <= 1e-6 * (1.0 + f)


@pytest.mark.parametrize("pop", [FIG1, spread_population(20)], ids=["fig1", "k20"])
def test_density_grid_rows_match_cross_checked_points(pop):
    rows = density_grid(pop, n_points=400).points
    for x, f in rows[::25]:
        assert f == pytest.approx(density_f0(pop, x, cross_check=True), abs=1e-12)


def test_density_at_zero_matches_solve_m0():
    # rank > N: x = 0 is an ordinary interior point, where one root of the
    # q = 1/m chart is q = 0 and must not be picked
    f = density_f0(FIG1, 0.0)
    assert f == pytest.approx(solve_m0(FIG1, 1e-9j).imag / np.pi, rel=1e-6)


def test_density_grid_mass_many_values():
    from specedge import find_edges

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


def test_atom_mass_examples():
    assert atom_mass_at_zero(PopulationSpec(((1.0, 300),), 500)) == pytest.approx(0.4)
    assert atom_mass_at_zero(FIG1) == 0.0
    assert atom_mass_at_zero(FIG2) == 0.0
    assert isolated_zero_in_support(PopulationSpec(((1.0, 300),), 500))
    assert not isolated_zero_in_support(FIG2)


def test_normalization_with_atom():
    from specedge import find_edges

    pop = PopulationSpec(((1.0, 300),), 500)
    rep = find_edges(pop)
    total = integrate_density(pop, rep.intervals) + rep.atom_at_zero
    assert total == pytest.approx(1.0, abs=1e-6)


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
