"""Tracy-Widom edge tests for the extremal eigenvalue at a regular edge.

The statistic is (gamma*N)^{2/3} * (lambda - E*) at a right edge and
(gamma*N)^{2/3} * (E* - lambda) at a left edge; its null distribution is
the GOE Tracy-Widom law, so the p-value is one minus the CDF.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .edges import EdgeInfo, SupportReport, check_regularity, find_edges
from .errors import DomainError, EmptyWindow, IrregularEdge
from .manova import (OneWayDesign, estimate_sigma_sq, manova_estimate, oneway_B_matrices,
                     oneway_population)
from .population import PopulationSpec
from .tw import f1_cdf

DEFAULT_TAU = 0.05


@dataclass(frozen=True)
class TestReport:
    """Outcome of one edge test."""

    edge: EdgeInfo
    lambda_used: float
    statistic: float
    p_value: float
    alpha: float
    reject: bool
    window_delta: float
    plugin_variances: tuple[float, ...] | None = None

    def to_dict(self) -> dict:
        return {
            "edge": self.edge.to_dict(),
            "lambda_used": self.lambda_used,
            "statistic": self.statistic,
            "p_value": self.p_value,
            "alpha": self.alpha,
            "reject": self.reject,
            "window_delta": self.window_delta,
            "plugin_variances": (
                list(self.plugin_variances) if self.plugin_variances is not None else None
            ),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def window_delta(report: SupportReport, edge: EdgeInfo) -> float:
    """Half the gap to the nearest other edge, capped at half the support
    diameter, so the window isolates exactly one edge.  A report has at
    least two edges, with distinct E*, so only the edge itself is left out."""
    others = [e.e_star for e in report.edges if e.e_star != edge.e_star]
    gap = min(abs(e - edge.e_star) for e in others)
    return min(0.5 * gap, 0.5 * report.diameter)


def tw_statistic(edge: EdgeInfo, n_dim: int, lam):
    """(gamma*N)^{2/3} * (lambda - E*) at a right edge, mirrored at a left
    edge; `lam` may be an array."""
    scale = (edge.gamma * n_dim) ** (2.0 / 3.0)
    return scale * (lam - edge.e_star) if edge.side == "right" else scale * (edge.e_star - lam)


def edge_test(
    pop: PopulationSpec,
    eigenvalues,
    edge: EdgeInfo,
    alpha: float,
    tau: float = DEFAULT_TAU,
    report: SupportReport | None = None,
) -> TestReport:
    """Standardize the extremal eigenvalue near `edge` and test it.

    The edge must be soft and pass the tau-regularity gate; the gate is
    an error rather than a warning because the limit law is unjustified
    otherwise.
    """
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must lie in [0, 1], got {alpha!r}")
    eigs = np.sort(np.asarray(eigenvalues, dtype=float))
    if eigs.size == 0:
        raise EmptyWindow("eigenvalue list is empty")
    bad = int(np.count_nonzero(~np.isfinite(eigs)))
    if bad:
        raise DomainError(f"{bad} of {eigs.size} eigenvalues are not finite")
    if not edge.soft:
        raise IrregularEdge("hard edges admit no Tracy-Widom standardization here")
    if not check_regularity(pop, edge, tau):
        raise IrregularEdge(
            f"edge at {edge.e_star:g} fails the regularity gate at tau={tau:g} "
            f"(margin {edge.regularity_margin:g})"
        )
    if report is None:
        report = find_edges(pop)
    delta = window_delta(report, edge)
    inside = eigs[(eigs >= edge.e_star - delta) & (eigs <= edge.e_star + delta)]
    if inside.size == 0:
        raise EmptyWindow(
            f"no eigenvalue within {delta:g} of the edge at {edge.e_star:g}"
        )
    lam = float(inside[-1]) if edge.side == "right" else float(inside[0])
    stat = tw_statistic(edge, pop.n_dim, lam)
    p_value = float(1.0 - f1_cdf(stat))
    return TestReport(
        edge=edge,
        lambda_used=lam,
        statistic=float(stat),
        p_value=p_value,
        alpha=alpha,
        reject=bool(p_value < alpha),
        window_delta=float(delta),
    )


def plugin_edge_test(
    design: OneWayDesign,
    y: np.ndarray,
    alpha: float,
    tau: float = DEFAULT_TAU,
) -> TestReport:
    """Edge test with unknown variances replaced by trace estimates.

    Both components are estimated from their unbiased quadratic forms
    (the group-level estimate clamped at zero), the population is rebuilt
    with the plug-in values, and the rightmost edge is tested against the
    eigenvalues of the group-level estimator.  Data that are not finite,
    or whose estimates overflow, raise DomainError.
    """
    y = np.asarray(y, dtype=float)
    bad = int(np.count_nonzero(~np.isfinite(y)))
    if bad:
        raise DomainError(f"{bad} of {y.size} data entries are not finite")
    b1, b2 = oneway_B_matrices(design.n, design.I, design.J)
    with np.errstate(over="ignore", invalid="ignore"):
        group = manova_estimate(y, b1)
        sigma1_hat = estimate_sigma_sq(group, design.p)
        sigma2_hat = estimate_sigma_sq(manova_estimate(y, b2), design.p)
    if not (np.isfinite(group).all() and np.isfinite(sigma1_hat) and np.isfinite(sigma2_hat)):
        raise DomainError("the plug-in estimates overflow: Y'BY is not finite")
    sigma1_hat = max(0.0, sigma1_hat)
    pop = oneway_population(replace(design, sigma1_sq=sigma1_hat, sigma2_sq=sigma2_hat))
    report = find_edges(pop)
    eigs = np.linalg.eigvalsh(group)
    base = edge_test(pop, eigs, report.edges[0], alpha, tau=tau, report=report)
    return replace(base, plugin_variances=(sigma1_hat, sigma2_hat))
