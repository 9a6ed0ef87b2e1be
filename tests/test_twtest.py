"""Edge-test statistics: arithmetic examples, symmetries, plug-in path."""

import numpy as np
import pytest

from specedge import (
    OneWayDesign,
    PopulationSpec,
    edge_test,
    f1_cdf,
    find_edges,
    oneway_B_matrices,
    oneway_population,
    plugin_edge_test,
    sample_spectrum,
    SimConfig,
)
from specedge.twtest import window_delta
from specedge.errors import (  # noqa: F401
    DegeneratePopulation, DesignError, DomainError, EmptyWindow, IrregularEdge,
)

ID500 = PopulationSpec(((1.0, 500),), 500)


def test_statistic_arithmetic_identity():
    # (gamma*N)^{2/3} = (500/4)^{2/3} = 25, so lambda = 4.04 gives exactly 1
    report = find_edges(ID500)
    r = edge_test(ID500, [4.04], report.edges[0], alpha=0.05)
    assert r.statistic == pytest.approx(1.0, abs=1e-9)
    assert r.p_value == pytest.approx(1 - f1_cdf(1.0), abs=1e-12)


def test_statistic_zero_at_center():
    report = find_edges(ID500)
    r = edge_test(ID500, [4.0], report.edges[0], alpha=0.05)
    assert r.statistic == 0.0
    assert r.p_value == pytest.approx(0.1680919338, abs=1e-8)  # 1 - F1(0), oracle
    assert not r.reject
    assert r.reject == (r.p_value < r.alpha)


def test_statistic_monotone_in_lambda():
    report = find_edges(ID500)
    stats = [edge_test(ID500, [lam], report.edges[0], alpha=0.05).statistic
             for lam in (3.9, 4.0, 4.1)]
    assert stats[0] < stats[1] < stats[2]
    # left edges reverse the sign convention: decreasing in lambda
    pop = PopulationSpec(((1.0, 200),), 500)
    rep = find_edges(pop)
    left = rep.edges[-1]
    assert left.side == "left"
    lstats = [edge_test(pop, [lam], left, alpha=0.05).statistic
              for lam in (left.e_star - 0.01, left.e_star, left.e_star + 0.01)]
    assert lstats[0] > lstats[1] > lstats[2]


def test_interior_edge_same_code_path():
    # the lower-bulk right edge of the Fig 1 population is regular with a
    # wide margin; the standard machinery serves it by index
    pop = PopulationSpec(((-2.0, 350), (0.5, 300), (6.0, 50)), 500)
    report = find_edges(pop)
    e3 = report.edges[2]
    assert e3.side == "right" and e3.regularity_margin > 0.4
    r = edge_test(pop, [e3.e_star + 0.01], e3, alpha=0.05, report=report)
    assert r.statistic > 0
    assert r.window_delta <= 0.5 * (report.edges[1].e_star - e3.e_star) + 1e-12


@pytest.mark.parametrize("c", [1e-15, 1.0, 100.0])
def test_window_delta_scales_with_the_population(c):
    # The window excludes only the edge itself, at any scale: FIG1's
    # windows are c * (3.69, 0.598, 0.598, 3.63).
    fig1 = PopulationSpec(((-2.0, 350), (0.5, 300), (6.0, 50)), 500)
    report, scaled = find_edges(fig1), find_edges(fig1.scaled(c))
    for a, b in zip(report.edges, scaled.edges):
        assert window_delta(scaled, b) == pytest.approx(c * window_delta(report, a), rel=1e-13)
    assert [window_delta(report, e) for e in report.edges] == pytest.approx(
        [3.69, 0.598, 0.598, 3.63], abs=5e-3)


def test_reflection_maps_right_to_left():
    pop = PopulationSpec(((-2.0, 350), (0.5, 300), (6.0, 50)), 500)
    report = find_edges(pop)
    right = report.edges[0]
    lam = right.e_star - 0.02
    r = edge_test(pop, [lam], right, alpha=0.05, tau=0.01)

    refl = pop.reflected()
    report_r = find_edges(refl)
    left = report_r.edges[-1]
    assert left.side == "left"
    assert left.e_star == pytest.approx(-right.e_star, abs=1e-9)
    r_refl = edge_test(refl, [-lam], left, alpha=0.05, tau=0.01)
    assert r_refl.statistic == pytest.approx(r.statistic, abs=1e-9)


def test_scale_invariance_of_statistic():
    # the regularity margin itself is scale-dependent (pole gaps shrink by
    # 1/c), so the gate tau must sit below the scaled margin
    pop = PopulationSpec(((-2.0, 350), (0.5, 300), (6.0, 50)), 500)
    report = find_edges(pop)
    edge = report.edges[0]
    lam = edge.e_star + 0.05
    base = edge_test(pop, [lam], edge, alpha=0.05, tau=1e-3).statistic
    for c in (0.5, 2.0, 7.3):
        scaled = pop.scaled(c)
        rep_c = find_edges(scaled)
        r = edge_test(scaled, [c * lam], rep_c.edges[0], alpha=0.05, tau=1e-3)
        assert r.statistic == pytest.approx(base, abs=1e-9)


def test_window_excludes_far_eigenvalues():
    report = find_edges(ID500)
    edge = report.edges[0]
    # eigenvalue far outside the window is not used
    r = edge_test(ID500, [3.99, 100.0], edge, alpha=0.05)
    assert r.lambda_used == pytest.approx(3.99)
    with pytest.raises(EmptyWindow):
        edge_test(ID500, [100.0], edge, alpha=0.05)
    with pytest.raises(EmptyWindow):
        edge_test(ID500, [], edge, alpha=0.05)


def test_non_finite_eigenvalues_rejected():
    # A NaN or infinite eigenvalue lies in no edge window; it is an input
    # error, not a value to skip.
    edge = find_edges(ID500).edges[0]
    with pytest.raises(DomainError, match="1 of 2 eigenvalues are not finite"):
        edge_test(ID500, [4.0, np.nan], edge, alpha=0.05)
    with pytest.raises(DomainError, match="3 of 4 eigenvalues are not finite"):
        edge_test(ID500, [np.inf, 4.0, -np.inf, np.nan], edge, alpha=0.05)


def test_all_zero_population_is_degenerate():
    # A valid spec with no nonzero value has no edge of its own; testing
    # another population's edge against it must fail typed, not with
    # numpy's reduction error.
    fig1 = PopulationSpec(((-2.0, 350), (0.5, 300), (6.0, 50)), 500)
    edge = find_edges(fig1).edges[0]
    with pytest.raises(DegeneratePopulation):
        edge_test(PopulationSpec(((0.0, 100),), 100), [edge.e_star], edge, alpha=0.05)


def test_irregular_edge_gate():
    report = find_edges(ID500)
    right, hard = report.edges
    with pytest.raises(IrregularEdge):
        edge_test(ID500, [4.0], hard, alpha=0.05)
    with pytest.raises(IrregularEdge):
        edge_test(ID500, [4.0], right, alpha=0.05, tau=0.6)  # margin is 0.5


def simulate_null_oneway(rng, design):
    u = np.kron(np.eye(design.I), np.ones((design.J, 1)))
    alpha = np.sqrt(design.sigma1_sq) * rng.standard_normal((design.I, design.p))
    eps = np.sqrt(design.sigma2_sq) * rng.standard_normal((design.n, design.p))
    return u @ alpha + eps


def test_plugin_close_to_known_variance():
    design = OneWayDesign(n=400, p=100, I=200, J=2, sigma1_sq=0.0, sigma2_sq=1.0)
    pop = oneway_population(design)
    report = find_edges(pop)
    edge = report.edges[0]
    b1, _ = oneway_B_matrices(design.n, design.I, design.J)
    rng = np.random.default_rng(2024)
    stat_diffs, center_errs = [], []
    for _ in range(100):
        y = simulate_null_oneway(rng, design)
        eigs = np.linalg.eigvalsh(y.T @ b1 @ y)
        known = edge_test(pop, eigs, edge, alpha=0.05, report=report)
        plug = plugin_edge_test(design, y, alpha=0.05)
        stat_diffs.append(abs(plug.statistic - known.statistic))
        center_errs.append(abs(plug.edge.e_star - edge.e_star))
        assert plug.plugin_variances is not None
        assert plug.plugin_variances[1] == pytest.approx(1.0, abs=0.2)
    assert np.median(stat_diffs) <= 0.5
    assert np.median(center_errs) <= 10.0 / design.n


def test_plugin_degenerate_data():
    design = OneWayDesign(n=20, p=20, I=10, J=2, sigma1_sq=0.0, sigma2_sq=1.0)
    with pytest.raises(DesignError):
        plugin_edge_test(design, np.zeros((20, 20)), alpha=0.05)


def test_decision_against_simulated_null_rate():
    # null rejection rate at alpha=0.1 should be near (conservatively below)
    # 0.1; an occasional empty window at this tiny size is reported, not
    # imputed, and must stay rare
    design = OneWayDesign(n=20, p=20, I=10, J=2, sigma1_sq=0.0, sigma2_sq=1.0)
    pop = oneway_population(design)
    report = find_edges(pop)
    edge = report.edges[0]
    cfg = SimConfig(reps=400, seed=88)
    rejects, empty = 0, 0
    for rep in range(cfg.reps):
        eigs = sample_spectrum(pop, cfg, rep)
        try:
            r = edge_test(pop, eigs, edge, alpha=0.10, report=report)
        except EmptyWindow:
            empty += 1
            continue
        rejects += r.reject
    assert empty <= 0.02 * cfg.reps
    assert rejects / (cfg.reps - empty) <= 0.13
