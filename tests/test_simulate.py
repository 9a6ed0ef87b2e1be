"""Monte Carlo harness: determinism, seeding, and the cheap sanity
experiments (heavier verification lives in the acceptance suite)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specedge import (
    OneWayDesign,
    PopulationSpec,
    SimConfig,
    edge_concentration,
    find_edges,
    local_law_probe,
    oneway_population,
    sample_spectrum,
    support_adherence,
    table1_experiment,
)
from specedge import simulate
from specedge.errors import DomainError, IrregularEdge
from specedge.simulate import COVERAGE_LEVELS
from specedge.tw import f1_quantile
from specedge.twtest import tw_statistic, window_delta

ID500 = PopulationSpec(((1.0, 500),), 500)
SIGNED = PopulationSpec(((-1.0, 40), (2.0, 40)), 60)
ONEWAY20 = OneWayDesign(n=20, p=20, I=10, J=2, sigma1_sq=0.0, sigma2_sq=1.0)


def test_config_validation():
    with pytest.raises(DomainError):
        SimConfig(reps=10, entry_law="uniform")
    with pytest.raises(DomainError):
        SimConfig(reps=0)


@pytest.mark.parametrize("kwargs", [
    {"reps": 2, "seed": -1}, {"reps": 2.5}, {"reps": 2, "seed": 1.5},
    {"reps": 2, "parallel_width": 1.5}, {"reps": True}, {"reps": 2, "seed": np.int64(-1)},
], ids=["negative-seed", "fractional-reps", "fractional-seed", "fractional-width",
        "bool-reps", "negative-numpy-seed"])
def test_config_rejects_non_integer_counts_and_negative_seeds(kwargs):
    with pytest.raises(DomainError):
        SimConfig(**kwargs)


def test_config_accepts_numpy_integers():
    cfg = SimConfig(reps=np.int64(2), seed=np.uint32(7), parallel_width=np.int32(2))
    assert sample_spectrum(ID500, cfg, 0).size == 500


@pytest.mark.parametrize("rep_index", [-1, 1.5, True, np.int64(-1), "0"],
                         ids=["negative", "fractional", "bool", "negative-numpy", "str"])
def test_sample_spectrum_rejects_bad_rep_index(rep_index):
    with pytest.raises(DomainError, match="rep_index"):
        sample_spectrum(ID500, SimConfig(reps=2, seed=1), rep_index)


def test_sample_spectrum_accepts_numpy_rep_index():
    cfg = SimConfig(reps=2, seed=1)
    np.testing.assert_array_equal(sample_spectrum(SIGNED, cfg, np.uint8(1)),
                                  sample_spectrum(SIGNED, cfg, 1))


def test_zero_population_gives_zero_spectrum():
    pop = PopulationSpec(((0.0, 100),), 100)
    eigs = sample_spectrum(pop, SimConfig(reps=1, seed=1), 0)
    np.testing.assert_allclose(eigs, np.zeros(100), atol=1e-12)


def test_trace_mean_matches_M():
    # E[tr X'X] = M for the identity population
    pop = PopulationSpec(((1.0, 300),), 300)
    cfg = SimConfig(reps=200, seed=4)
    traces = np.array([sample_spectrum(pop, cfg, r).sum() for r in range(cfg.reps)])
    se = traces.std() / np.sqrt(cfg.reps)
    assert abs(traces.mean() - 300) <= 3 * se


def test_spectrum_deterministic_given_seed():
    cfg = SimConfig(reps=4, seed=99)
    a = sample_spectrum(ID500, cfg, 2)
    b = sample_spectrum(ID500, cfg, 2)
    np.testing.assert_array_equal(a, b)
    c = sample_spectrum(ID500, SimConfig(reps=4, seed=100), 2)
    assert not np.array_equal(a, c)


def test_max_dim_guard():
    big = PopulationSpec(((1.0, 2001),), 2001)
    with pytest.raises(DomainError, match="2001 exceeds"):
        sample_spectrum(big, SimConfig(reps=1, seed=0), 0)


def test_identity_max_eigenvalue_adheres():
    cfg = SimConfig(reps=100, seed=5)
    mx = np.array([sample_spectrum(ID500, cfg, r)[-1] for r in range(cfg.reps)])
    assert np.all((mx >= 3.7) & (mx <= 4.3))


def test_coverage_determinism_across_parallel_width():
    design = OneWayDesign(n=20, p=20, I=10, J=2, sigma1_sq=0.0, sigma2_sq=1.0)
    res1 = table1_experiment(design, SimConfig(reps=200, seed=7, parallel_width=1))
    res4 = table1_experiment(design, SimConfig(reps=200, seed=7, parallel_width=4))
    assert res1 == res4
    edge = find_edges(SIGNED).edges[0]
    ident = PopulationSpec(((1.0, 100),), 100)
    runs = {
        width: (
            support_adherence(SIGNED, SimConfig(reps=12, seed=7, parallel_width=width), 0.05),
            edge_concentration(
                SIGNED, edge, SimConfig(reps=12, seed=7, parallel_width=width), 0.1
            ),
            local_law_probe(
                ident,
                find_edges(ident).edges[0],
                SimConfig(reps=6, seed=7, parallel_width=width),
                eta=0.1,
            ),
        )
        for width in (1, 3)
    }
    assert runs[1] == runs[3]


# -- the replicate kernel against the unfused arithmetic ----------------------

def _oracle_x(cfg, rep, m, n):
    """The replicate's Philox draw, divided by sqrt(N) to variance 1/N."""
    ss = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(rep,))
    rng = np.random.Generator(np.random.Philox(ss))
    if cfg.entry_law == "gaussian":
        x = rng.standard_normal((m, n))
    else:
        x = rng.integers(0, 2, size=(m, n)).astype(float) * 2.0 - 1.0
    return x / np.sqrt(n)


def _oracle_spectrum(pop, cfg, rep):
    x = _oracle_x(cfg, rep, pop.total_mult, pop.n_dim)
    a = x.T @ (pop.expand()[:, None] * x)
    return np.linalg.eigvalsh(0.5 * (a + a.T))


@pytest.mark.parametrize("law", ["gaussian", "rademacher"])
@pytest.mark.parametrize(
    "pop",
    [SIGNED, ID500, oneway_population(ONEWAY20), PopulationSpec(((0.0, 100),), 100)],
    ids=["signed", "identity", "oneway_zero_rows", "all_zero"],
)
def test_spectrum_matches_unfused_oracle(pop, law):
    cfg = SimConfig(reps=3, seed=42, entry_law=law)
    for rep in range(cfg.reps):
        want = _oracle_spectrum(pop, cfg, rep)
        got = sample_spectrum(pop, cfg, rep)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))


def _oracle_local_law(pop, edge, cfg, eta):
    """Per-replicate (|m_N - m0|, max entry error) by a full eigh of X'TX."""
    from specedge.spectral import solve_m0

    n, tvals = pop.n_dim, pop.expand()
    z = complex(edge.e_star, eta)
    m0 = solve_m0(pop, z)
    corner = m0 / (1.0 + m0 * tvals)
    m_errs, entry_errs = [], []
    for rep in range(cfg.reps):
        x = _oracle_x(cfg, rep, tvals.size, n)
        a = x.T @ (tvals[:, None] * x)
        evals, evecs = np.linalg.eigh(0.5 * (a + a.T))
        g_n = (evecs * (1.0 / (evals - z))) @ evecs.T
        xg = x @ g_n
        m_errs.append(abs(complex(np.trace(g_n)) / n - m0))
        entry_errs.append(max(
            np.max(np.abs(g_n - m0 * np.eye(n))),
            np.max(np.abs(xg)),
            np.max(np.abs(xg @ x.T - np.diag(corner))),
        ))
    return np.array(m_errs), np.array(entry_errs)


@pytest.mark.parametrize(
    "pop", [PopulationSpec(((1.0, 200),), 200), SIGNED], ids=["identity200", "signed"]
)
def test_local_law_matches_eigh_oracle(pop):
    edge = find_edges(pop).edges[0]
    cfg = SimConfig(reps=4, seed=9)
    eta = pop.n_dim ** -0.5
    probe = local_law_probe(pop, edge, cfg, eta=eta)
    m_want, entry_want = _oracle_local_law(pop, edge, cfg, eta)
    np.testing.assert_allclose(probe.m_n_err, m_want, rtol=1e-10)
    np.testing.assert_allclose(probe.entrywise_err, entry_want, rtol=1e-10)


def test_local_law_max_dim_guard():
    pop = PopulationSpec(((1.0, 2001),), 2001)
    edge = find_edges(pop).edges[0]
    with pytest.raises(DomainError, match="2001 exceeds"):
        local_law_probe(pop, edge, SimConfig(reps=1, seed=0), eta=0.1)


def test_pinned_counts():
    # Recorded with the unfused arithmetic (x / sqrt(N), symmetrized Gram).
    # Every statistic sits at least 0.006 from its cutoff, so last-bit
    # eigenvalue changes cannot flip a count.
    res = table1_experiment(ONEWAY20, SimConfig(reps=2000, seed=1))
    assert [round(c * 2000) for c in res.coverage] == [1876, 1947, 1989]
    assert res.coverage == (0.938, 0.9735, 0.9945)
    fig1 = PopulationSpec(((-2.0, 350), (0.5, 300), (6.0, 50)), 500)
    assert support_adherence(fig1, SimConfig(reps=20, seed=1), delta=0.1) == 0.15


def test_universality_gaussian_vs_rademacher():
    # moment assumptions only: the two entry laws must agree within noise.
    # The J=10, n=4p design keeps the fourth-cumulant finite-size gap well
    # inside 3 combined SEs at this replicate count.
    design = OneWayDesign(n=400, p=100, I=40, J=10, sigma1_sq=0.0, sigma2_sq=1.0)
    g = table1_experiment(design, SimConfig(reps=300, seed=21, entry_law="gaussian"))
    r = table1_experiment(design, SimConfig(reps=300, seed=1021, entry_law="rademacher"))
    for (cg, sg), (cr, sr) in zip(zip(g.coverage, g.std_errors), zip(r.coverage, r.std_errors)):
        assert abs(cg - cr) <= 3 * np.hypot(sg, sr)


def test_adherence_identity_loose_delta():
    assert support_adherence(ID500, SimConfig(reps=50, seed=3), delta=0.3) == 0.0
    # delta as large as the support diameter is trivially satisfied
    assert support_adherence(ID500, SimConfig(reps=10, seed=3), delta=4.0) == 0.0


def test_adherence_excludes_atom_zeros():
    # rank < N: exact zero eigenvalues sit on the atom, not outside support
    pop = PopulationSpec(((1.0, 200),), 500)
    frac = support_adherence(pop, SimConfig(reps=25, seed=14), delta=0.25)
    assert frac == 0.0


def test_concentration_requires_regular_edge():
    report = find_edges(ID500)
    hard = report.edges[1]
    with pytest.raises(IrregularEdge):
        edge_concentration(ID500, hard, SimConfig(reps=5, seed=1), 0.2)


@pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), 5.0, -1.0, 2.0 / 3.0])
def test_concentration_rejects_epsilon_outside_its_range(epsilon):
    # The zone starts at N^(-2/3 + eps) from the edge: eps must lie in [0, 2/3).
    with pytest.raises(DomainError, match="epsilon"):
        edge_concentration(ID500, find_edges(ID500).edges[0], SimConfig(reps=1, seed=1), epsilon)


def test_concentration_identity_small():
    # zone starts ~1.4 fluctuation units above the edge here, so the
    # occupancy expectation is about 3%; 0.1 bounds it with headroom
    report = find_edges(ID500)
    frac = edge_concentration(ID500, report.edges[0], SimConfig(reps=100, seed=31), 0.2)
    assert frac <= 0.1
    # huge slack epsilon empties the zone entirely
    assert edge_concentration(ID500, report.edges[0], SimConfig(reps=20, seed=31), 0.6) == 0.0


def test_concentration_reflection_agreement():
    pop = PopulationSpec(((1.0, 200),), 500)
    report = find_edges(pop)
    right = report.edges[0]
    frac_r = edge_concentration(pop, right, SimConfig(reps=40, seed=17), 0.3)
    refl = pop.reflected()
    rep_l = find_edges(refl)
    left = rep_l.edges[-1]
    assert left.side == "left"
    frac_l = edge_concentration(refl, left, SimConfig(reps=40, seed=17), 0.3)
    assert frac_l == frac_r  # same seeds, mirrored spectra


def test_zone_rate_not_growing_when_N_doubles():
    fig1 = PopulationSpec(((-2.0, 350), (0.5, 300), (6.0, 50)), 500)
    fig1_x2 = PopulationSpec(((-2.0, 700), (0.5, 600), (6.0, 100)), 1000)
    r500 = edge_concentration(
        fig1, find_edges(fig1).edges[0], SimConfig(reps=60, seed=6), 0.2, tau=0.01
    )
    r1000 = edge_concentration(
        fig1_x2, find_edges(fig1_x2).edges[0], SimConfig(reps=60, seed=6), 0.2, tau=0.01
    )
    slack = 2 * np.sqrt(max(r500, 0.05) * (1 - max(r500, 0.05)) * 2 / 60)
    assert r1000 <= r500 + slack


def test_estimator_route_matches_population_route():
    # the group-level estimator Y'B1Y and X'TX with the derived population
    # are equal in law under the null; their largest-eigenvalue statistics
    # must agree within Monte Carlo noise on a small design
    from specedge import oneway_B_matrices, oneway_population

    design = OneWayDesign(n=8, p=8, I=4, J=2, sigma1_sq=0.0, sigma2_sq=1.0)
    pop = oneway_population(design)
    reps = 4000
    cfg = SimConfig(reps=reps, seed=101)
    lam_pop = np.array([sample_spectrum(pop, cfg, r)[-1] for r in range(reps)])

    b1, _ = oneway_B_matrices(design.n, design.I, design.J)
    rng = np.random.default_rng(202)
    lam_est = np.empty(reps)
    for r in range(reps):
        y = rng.standard_normal((design.n, design.p))   # sigma1 = 0: pure noise
        lam_est[r] = np.linalg.eigvalsh(y.T @ b1 @ y)[-1]

    se_mean = np.hypot(lam_pop.std() / np.sqrt(reps), lam_est.std() / np.sqrt(reps))
    assert abs(lam_pop.mean() - lam_est.mean()) <= 3 * se_mean
    for q in (0.5, 0.9):
        qa, qb = np.quantile(lam_pop, q), np.quantile(lam_est, q)
        assert abs(qa - qb) <= 4 * se_mean


def test_local_law_probe_basics():
    pop = PopulationSpec(((1.0, 200),), 200)
    report = find_edges(pop)
    probe = local_law_probe(pop, report.edges[0], SimConfig(reps=10, seed=9), eta=1.0)
    assert probe.psi > 0
    assert all(e >= 0 for e in probe.m_n_err)
    # global scale: the averaged transform is within 10/N of the limit
    assert probe.median_m_err <= 10 / 200


# -- the Cholesky certificate and the threshold experiments it decides -------

U = np.finfo(float).eps / 2


def _margin(g, sigma):
    """The certificate's margin mu at level sigma."""
    n = g.shape[0]
    return 8.0 * n * (n + 1) * U * (np.linalg.norm(g) + abs(sigma))


@st.composite
def _grams(draw):
    """x'(T/N)x of a Gaussian draw with signed weights, N from 2 to 120."""
    n = draw(st.integers(2, 120))
    m = draw(st.integers(1, 2 * n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((m, n))
    w = rng.choice([-2.0, 0.5, 1.0, 6.0], size=m) * np.exp(rng.standard_normal(m))
    return simulate._gram(x, slice(None), (w / n)[:, None])


def _levels(top, mu):
    """sigma at k ulps from the computed extreme eigenvalue, and at
    {0.5, 1, 2} margins from it, on both sides."""
    ulps = [top * (1 + s * k * np.finfo(float).eps) for k in (1, 4, 64) for s in (-1, 1)]
    return ulps + [top + s * f * mu for f in (0.5, 1.0, 2.0) for s in (-1, 1)]


@settings(max_examples=60)
@given(_grams())
def test_certificate_never_passes_a_spectrum_that_reaches_sigma(g):
    eigs = np.linalg.eigvalsh(g)
    for sigma in _levels(eigs[-1], _margin(g, eigs[-1])):
        if simulate._below(g, sigma):
            assert eigs[-1] < sigma
    # the left-edge use: -G below -sigma puts the whole spectrum above sigma
    for sigma in _levels(eigs[0], _margin(g, eigs[0])):
        if simulate._below(-g, -sigma):
            assert eigs[0] > sigma
    # four margins beyond the extreme eigenvalue the factorization succeeds
    assert simulate._below(g, eigs[-1] + 4 * _margin(g, eigs[-1]))
    assert simulate._below(-g, -eigs[0] + 4 * _margin(g, eigs[0]))


def test_certificate_rejects_what_it_cannot_factor():
    g = np.diag([1.0, 2.0, 3.0])
    assert simulate._below(g, 3.5) and not simulate._below(g, 3.0)
    # numpy's cholesky returns NaN factors of a NaN matrix without raising
    assert not simulate._below(np.full((3, 3), np.nan), 1.0)


def _table1_by_eigensolve(design, cfg):
    pop = oneway_population(design)
    edge = find_edges(pop).edges[0]
    lam = np.array([sample_spectrum(pop, cfg, r)[-1] for r in range(cfg.reps)])
    stats = tw_statistic(edge, pop.n_dim, lam)
    return tuple(float(np.mean(stats <= f1_quantile(q))) for q in COVERAGE_LEVELS)


def _zone_by_eigensolve(pop, edge, cfg, epsilon):
    delta = window_delta(find_edges(pop), edge)
    inner = pop.n_dim ** (-2.0 / 3.0 + epsilon)
    if edge.side == "right":
        lo, hi = edge.e_star + inner, edge.e_star + delta
    else:
        lo, hi = edge.e_star - delta, edge.e_star - inner
    hits = [np.any((e >= lo) & (e <= hi))
            for e in (sample_spectrum(pop, cfg, r) for r in range(cfg.reps))]
    return float(np.mean(hits))


def _no_cholesky(a):
    raise np.linalg.LinAlgError("factorization withheld")


ONEWAY100 = OneWayDesign(n=100, p=100, I=50, J=2, sigma1_sq=0.0, sigma2_sq=1.0)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("design, reps", [(ONEWAY20, 300), (ONEWAY100, 40)],
                         ids=["n20", "n100"])
def test_table1_matches_the_eigensolve_route(design, reps, seed, monkeypatch):
    cfg = SimConfig(reps=reps, seed=seed)
    want = _table1_by_eigensolve(design, cfg)
    assert table1_experiment(design, cfg).coverage == want
    monkeypatch.setattr(np.linalg, "cholesky", _no_cholesky)
    assert table1_experiment(design, cfg).coverage == want


FIG1 = PopulationSpec(((-2.0, 350), (0.5, 300), (6.0, 50)), 500)


@pytest.mark.parametrize("pop, pick", [
    (FIG1, 0), (FIG1.reflected(), -1), (FIG1, 1),
], ids=["fig1-right", "reflected-leftmost", "fig1-interior"])
def test_concentration_matches_the_eigensolve_route(pop, pick, monkeypatch):
    edge = find_edges(pop).edges[pick]
    cfg = SimConfig(reps=12, seed=4)
    want = _zone_by_eigensolve(pop, edge, cfg, 0.05)
    assert edge_concentration(pop, edge, cfg, 0.05, tau=0.01) == want
    monkeypatch.setattr(np.linalg, "cholesky", _no_cholesky)
    assert edge_concentration(pop, edge, cfg, 0.05, tau=0.01) == want


@pytest.mark.parametrize("pop, pick, want", [
    (FIG1, 0, 0.05), (FIG1.reflected(), -1, 0.1),
], ids=["fig1-right", "reflected-leftmost"])
def test_concentration_eigensolves_only_undecided_replicates(pop, pick, want, monkeypatch):
    # A certificate that stopped holding would fall back to 20 eigensolves
    # with the same answer; the count shows it.
    eigvalsh, calls = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
    frac = edge_concentration(pop, find_edges(pop).edges[pick], SimConfig(reps=20, seed=1),
                              0.2, tau=0.01)
    assert frac == want and len(calls) <= 2
