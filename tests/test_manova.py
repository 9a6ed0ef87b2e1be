"""Variance-component constructions against brute-force linear algebra
and small Monte Carlo oracles."""

import numpy as np
import pytest

from specedge import (
    GeneralDesign,
    OneWayDesign,
    estimate_sigma_sq,
    general_F_population,
    manova_estimate,
    oneway_B_matrices,
    oneway_population,
)
from specedge.errors import ClusterAmbiguity, DesignError, ShapeError
from specedge.manova import oneway_general_design


def test_design_invariants():
    with pytest.raises(DesignError):
        OneWayDesign(n=21, p=5, I=10, J=2, sigma1_sq=0, sigma2_sq=1)
    with pytest.raises(DesignError):
        OneWayDesign(n=4, p=5, I=4, J=1, sigma1_sq=0, sigma2_sq=1)
    with pytest.raises(DesignError):
        OneWayDesign(n=4, p=5, I=2, J=2, sigma1_sq=-1, sigma2_sq=1)


@pytest.mark.parametrize("field, value", [
    ("n", 20.9), ("p", True), ("I", "10"), ("J", 2.5), ("n", float("inf")),
])
def test_design_document_integers_are_read_exactly(field, value):
    doc = dict(n=20, p=20, I=10, J=2, sigma1_sq=0.0, sigma2_sq=1.0)
    doc[field] = value
    with pytest.raises(DesignError, match=f"{field} must be an integer"):
        OneWayDesign.from_dict(doc)


def _oneway(**fields):
    return OneWayDesign(**{**dict(n=20, p=5, I=4, J=5, sigma1_sq=0.0, sigma2_sq=1.0), **fields})


def _general(p):
    gd = oneway_general_design(_oneway())
    return GeneralDesign(gd.incidence, gd.weight, gd.variances, p)


@pytest.mark.parametrize("make, field, value", [
    (_oneway, "n", 20.0), (_oneway, "I", 4.0), (_oneway, "J", 5.0),
    (_oneway, "p", True), (_oneway, "p", 5.5), (_general, "p", 2.0),
], ids=["n-float", "I-float", "J-float", "p-bool", "p-fraction", "general-p-float"])
def test_design_integer_fields_must_be_integers(make, field, value):
    # Caught when the design is built, naming the field, not later as a
    # multiplicity or n_dim of the population built from it.
    with pytest.raises(DesignError, match=f"^{field} must be an integer"):
        make(**{field: value})


def test_design_document_accepts_integral_floats():
    design = OneWayDesign.from_dict(dict(n=20.0, p=20, I=10.0, J=2, sigma1_sq=0, sigma2_sq=1))
    assert design == OneWayDesign(n=20, p=20, I=10, J=2, sigma1_sq=0.0, sigma2_sq=1.0)
    assert type(design.n) is int and type(design.I) is int


@pytest.mark.parametrize("field", ["sigma1_sq", "sigma2_sq"])
@pytest.mark.parametrize("value", [True, "1", None], ids=["bool", "string", "null"])
def test_design_document_variances_must_be_numbers(field, value):
    # float() would read true as 1.0 and "1" as 1.0.
    doc = dict(n=20, p=20, I=10, J=2, sigma1_sq=0.0, sigma2_sq=1.0)
    doc[field] = value
    with pytest.raises(DesignError, match=f"{field} must be a number"):
        OneWayDesign.from_dict(doc)


def test_design_document_variances_accept_integers_and_numpy_reals():
    design = OneWayDesign.from_dict(dict(n=20, p=20, I=10, J=2, sigma1_sq=np.float32(0.5),
                                         sigma2_sq=1))
    assert design == OneWayDesign(n=20, p=20, I=10, J=2, sigma1_sq=0.5, sigma2_sq=1.0)
    assert type(design.sigma2_sq) is float


@pytest.mark.parametrize("field", ["sigma1_sq", "sigma2_sq"])
@pytest.mark.parametrize("value", [float("inf"), float("nan"), -1.0])
def test_design_rejects_non_finite_variances(field, value):
    doc = dict(n=20, p=20, I=10, J=2, sigma1_sq=0.0, sigma2_sq=1.0)
    doc[field] = value
    with pytest.raises(DesignError, match=field):
        OneWayDesign(**doc)
    with pytest.raises(DesignError, match=field):
        OneWayDesign.from_dict(doc)


def test_oneway_population_small_example():
    d = OneWayDesign(n=20, p=20, I=10, J=2, sigma1_sq=0.0, sigma2_sq=1.0)
    pop = oneway_population(d)
    assert pop.n_dim == 20
    assert pop.total_mult == 30
    assert pop.entries == ((-1.0, 10), (0.0, 11), (pytest.approx(10 / 9), 9))


def test_oneway_population_zero_noise_merges():
    d = OneWayDesign(n=20, p=20, I=10, J=2, sigma1_sq=1.0, sigma2_sq=0.0)
    pop = oneway_population(d)
    # t2 = 0 merges into the zero block
    zero_mult = dict(pop.entries)[0.0]
    assert zero_mult == 21


def test_oneway_population_large_example():
    d = OneWayDesign(n=400, p=100, I=80, J=5, sigma1_sq=0.0, sigma2_sq=1.0)
    pop = oneway_population(d)
    ts = sorted(dict(pop.entries))
    assert ts == [pytest.approx(-1 / 16), 0.0, pytest.approx(20 / 79)]


def test_oneway_population_degenerate():
    d = OneWayDesign(n=20, p=20, I=10, J=2, sigma1_sq=0.0, sigma2_sq=0.0)
    with pytest.raises(DesignError):
        oneway_population(d)


def brute_force_B1(n, I, J):
    """B1 from explicit projections, no shortcuts."""
    u = np.kron(np.eye(I), np.ones((J, 1)))
    ones = np.ones((n, 1))
    pi_u = u @ np.linalg.pinv(u)
    pi_0 = ones @ ones.T / n
    pi_1 = pi_u - pi_0
    pi_2 = np.eye(n) - pi_u
    return pi_1 / (J * (I - 1)) - pi_2 / (J * (n - I))


def test_B_matrices_against_brute_force():
    b1, b2 = oneway_B_matrices(4, 2, 2)
    np.testing.assert_allclose(b1, brute_force_B1(4, 2, 2), atol=1e-14)
    u = np.kron(np.eye(2), np.ones((2, 1)))
    pi_2 = np.eye(4) - u @ np.linalg.pinv(u)
    np.testing.assert_allclose(b2, pi_2 / 2, atol=1e-14)


def test_B_matrix_projection_identities():
    n, I, J = 20, 10, 2
    u = np.kron(np.eye(I), np.ones((J, 1)))
    pi_u = u @ u.T / J
    pi_0 = np.full((n, n), 1 / n)
    pi_1, pi_2 = pi_u - pi_0, np.eye(n) - pi_u
    assert np.trace(pi_1) == pytest.approx(I - 1)
    assert np.trace(pi_2) == pytest.approx(n - I)
    np.testing.assert_allclose(pi_1 @ pi_1, pi_1, atol=1e-12)
    np.testing.assert_allclose(pi_2 @ pi_2, pi_2, atol=1e-12)
    np.testing.assert_allclose(pi_1 @ pi_2, np.zeros((n, n)), atol=1e-12)
    b1, _ = oneway_B_matrices(n, I, J)
    assert np.max(np.abs(b1 @ np.ones(n))) < 1e-15


def test_estimator_annihilates_constants():
    b1, _ = oneway_B_matrices(20, 10, 2)
    y = np.outer(np.ones(20), np.arange(5.0))
    np.testing.assert_allclose(manova_estimate(y, b1), np.zeros((5, 5)), atol=1e-12)


def test_estimator_scalar_anova_case():
    # p=1, I=2, J=2: the estimator equals the classical mean-square difference
    rng = np.random.default_rng(0)
    y = rng.standard_normal((4, 1))
    b1, _ = oneway_B_matrices(4, 2, 2)
    groups = y.reshape(2, 2)
    grand = y.mean()
    msa = 2 * np.sum((groups.mean(axis=1) - grand) ** 2) / (2 - 1)
    mse = np.sum((groups - groups.mean(axis=1, keepdims=True)) ** 2) / (4 - 2)
    expected = (msa - mse) / 2
    assert manova_estimate(y, b1)[0, 0] == pytest.approx(expected, abs=1e-12)


def test_estimator_shape_errors():
    with pytest.raises(ShapeError):
        manova_estimate(np.ones((4, 2)), np.ones((3, 3)))
    with pytest.raises(ShapeError):
        estimate_sigma_sq(np.ones((2, 3)), 2)
    with pytest.raises(ShapeError):
        estimate_sigma_sq(np.ones((3, 3)), 2)


def test_estimate_sigma_sq_values():
    assert estimate_sigma_sq(np.eye(5), 5) == 1.0
    assert estimate_sigma_sq(np.zeros((4, 4)), 4) == 0.0


def simulate_oneway(rng, design, sigma1, sigma2):
    """Draw one data matrix from the one-way model (zero mean)."""
    u = np.kron(np.eye(design.I), np.ones((design.J, 1)))
    alpha = rng.multivariate_normal(np.zeros(design.p), sigma1, size=design.I)
    eps = rng.multivariate_normal(np.zeros(design.p), sigma2, size=design.n)
    return u @ alpha + eps


def test_unbiasedness_monte_carlo():
    design = OneWayDesign(n=8, p=2, I=4, J=2, sigma1_sq=1.0, sigma2_sq=1.0)
    sigma1 = np.diag([2.0, 1.0])
    sigma2 = np.eye(2)
    b1, b2 = oneway_B_matrices(design.n, design.I, design.J)
    rng = np.random.default_rng(42)
    reps = 10_000
    acc1 = np.zeros((2, 2))
    acc2 = np.zeros((2, 2))
    sq1 = np.zeros((2, 2))
    for _ in range(reps):
        y = simulate_oneway(rng, design, sigma1, sigma2)
        est1 = manova_estimate(y, b1)
        acc1 += est1
        sq1 += est1**2
        acc2 += manova_estimate(y, b2)
    mean1 = acc1 / reps
    se1 = np.sqrt((sq1 / reps - mean1**2) / reps)
    assert np.all(np.abs(mean1 - sigma1) <= 3 * se1 + 1e-12)
    np.testing.assert_allclose(acc2 / reps, sigma2, atol=0.05)


def test_general_F_matches_closed_form():
    d = OneWayDesign(n=20, p=20, I=10, J=2, sigma1_sq=0.5, sigma2_sq=1.0)
    closed = oneway_population(d)
    general = general_F_population(oneway_general_design(d))
    assert closed.n_dim == general.n_dim
    assert [m for _, m in closed.entries] == [m for _, m in general.entries]
    for (t1, _), (t2, _) in zip(closed.entries, general.entries):
        assert t1 == pytest.approx(t2, abs=1e-8)


def test_general_F_zero_variances():
    d = OneWayDesign(n=20, p=20, I=10, J=2, sigma1_sq=1.0, sigma2_sq=1.0)
    gd = oneway_general_design(d)
    zeroed = GeneralDesign(gd.incidence, gd.weight, (0.0, 0.0), gd.p)
    pop = general_F_population(zeroed)
    assert pop.entries == ((0.0, 30),)


def test_general_F_noise_only_spectrum():
    # with B = B2 the block matrix has one nonzero level: p*sigma2^2/(n-I)
    d = OneWayDesign(n=20, p=20, I=10, J=2, sigma1_sq=0.0, sigma2_sq=1.0)
    _, b2 = oneway_B_matrices(d.n, d.I, d.J)
    u1 = np.kron(np.eye(d.I), np.ones((d.J, 1)))
    gd = GeneralDesign((u1, np.eye(d.n)), b2, (0.0, 1.0), d.p)
    pop = general_F_population(gd)
    assert len(pop.entries) == 2
    (t0, m0), (t1, m1) = pop.entries
    assert (t0, m0) == (0.0, 20)
    assert t1 == pytest.approx(20 / 10) and m1 == 10   # p/(n-I) = 2, mult n-I


def test_general_F_cluster_spread_near_its_neighbour_is_ambiguous():
    # F = diag(eig): the three values next to 1 merge into one cluster of
    # spread 1.8e-9, more than a quarter of the 2.1e-9 to the next mean.
    eig = np.array((0.5, 0.75, 1 - 1.8e-9, 1 - 0.9e-9, 1.0, 1 + 1.2e-9))
    gd = GeneralDesign((np.eye(6),), np.diag(eig / 2), (1.0,), 2)
    with pytest.raises(ClusterAmbiguity, match="around 1 has spread 1.800e-09"):
        general_F_population(gd)


def test_general_design_validation():
    d = OneWayDesign(n=20, p=20, I=10, J=2, sigma1_sq=0.0, sigma2_sq=1.0)
    gd = oneway_general_design(d)
    with pytest.raises(DesignError):
        GeneralDesign(gd.incidence, gd.weight * 30.0, gd.variances, gd.p)
    with pytest.raises(DesignError):
        GeneralDesign(gd.incidence, np.triu(np.ones((20, 20))) / 400, gd.variances, gd.p)
    with pytest.raises(ShapeError):
        GeneralDesign((np.ones((19, 2)), np.eye(20)), gd.weight, gd.variances, gd.p)
    # fixed design must be annihilated
    ones = np.ones((20, 1))
    GeneralDesign(gd.incidence, gd.weight, gd.variances, gd.p, fixed_design=ones)
    with pytest.raises(DesignError):
        GeneralDesign(
            gd.incidence, gd.weight, gd.variances, gd.p,
            fixed_design=np.arange(20.0).reshape(-1, 1) / 10,
        )


def test_sigma_dispersion_decays_with_n():
    # sd of the trace estimator scales like 1/n in the proportional
    # regime, so doubling the problem doubles n and p together
    sds = []
    for n, i_grp, p in ((100, 50, 20), (200, 100, 40)):
        d = OneWayDesign(n=n, p=p, I=i_grp, J=2, sigma1_sq=0.0, sigma2_sq=1.0)
        _, b2 = oneway_B_matrices(d.n, d.I, d.J)
        rng = np.random.default_rng(1000 + n)
        vals = []
        for _ in range(2000):
            y = rng.standard_normal((n, p))
            vals.append(np.trace(b2 @ (y @ y.T)) / p)
        sds.append(np.std(vals))
    ratio = sds[1] / sds[0]
    assert 0.25 <= ratio <= 0.75
    assert ratio == pytest.approx(0.5, abs=0.1)   # the exact order, not just the band
