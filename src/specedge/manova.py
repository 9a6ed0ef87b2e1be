"""Variance-component populations and estimators.

Covers the balanced one-way classification design in closed form, the
general quadratic-form construction through the block matrix
F_rs = N * sigma_r * sigma_s * U_r' B U_s, and the trace estimator for a
scalar variance component.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ClusterAmbiguity, DesignError, ShapeError
from .population import PopulationSpec, _document_float, _document_int, _is_int

CLUSTER_RTOL = 1e-9
NORM_BOUND = 20.0          # C: ||U_r|| <= C and ||B|| <= C/n


def _check_int(design, field):
    """A design's integer field: an integer, not a float or a boolean."""
    value = getattr(design, field)
    if not _is_int(value):
        raise DesignError(f"{field} must be an integer, got {value!r}")


@dataclass(frozen=True)
class OneWayDesign:
    """Balanced one-way layout: I groups of J samples, p traits."""

    n: int
    p: int
    I: int
    J: int
    sigma1_sq: float
    sigma2_sq: float

    def __post_init__(self):
        for field in ("n", "p", "I", "J"):
            _check_int(self, field)
        if self.I < 2 or self.J < 2:
            raise DesignError("need I >= 2 groups and J >= 2 samples per group")
        if self.n != self.I * self.J:
            raise DesignError(f"n = {self.n} != I*J = {self.I * self.J}")
        if self.p < 1:
            raise DesignError("p must be at least 1")
        for field in ("sigma1_sq", "sigma2_sq"):
            value = getattr(self, field)
            if not 0 <= value < np.inf:
                raise DesignError(f"{field} must be finite and nonnegative, got {value!r}")

    def to_dict(self) -> dict:
        return {
            "n": self.n, "p": self.p, "I": self.I, "J": self.J,
            "sigma1_sq": self.sigma1_sq, "sigma2_sq": self.sigma2_sq,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "OneWayDesign":
        try:
            return cls(
                **{f: _document_int(obj[f], DesignError, f) for f in ("n", "p", "I", "J")},
                **{f: _document_float(obj[f], DesignError, f) for f in ("sigma1_sq", "sigma2_sq")},
            )
        except KeyError as exc:
            raise DesignError(f"design document missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise DesignError(f"malformed design document: {exc}") from exc


@dataclass(frozen=True)
class GeneralDesign:
    """General mixed design: incidence maps U_r, weight matrix B, variances."""

    incidence: tuple[np.ndarray, ...]
    weight: np.ndarray
    variances: tuple[float, ...]
    p: int
    fixed_design: np.ndarray | None = None

    def __post_init__(self):
        b = np.asarray(self.weight, dtype=float)
        n = b.shape[0]
        if b.ndim != 2 or b.shape[1] != n:
            raise ShapeError("weight matrix must be square")
        _check_int(self, "p")
        if not np.allclose(b, b.T, atol=1e-12):
            raise DesignError("weight matrix must be symmetric")
        if len(self.incidence) != len(self.variances):
            raise DesignError("one variance per incidence map required")
        if self.p < 1:
            raise DesignError("p must be at least 1")
        for u in self.incidence:
            if np.asarray(u).shape[0] != n:
                raise ShapeError("incidence maps must have n rows")
            if np.linalg.norm(u, 2) > NORM_BOUND:
                raise DesignError("incidence map operator norm out of bounds")
        if np.linalg.norm(b, 2) > NORM_BOUND / n:
            raise DesignError("weight matrix norm exceeds C/n")
        if any(s < 0 for s in self.variances):
            raise DesignError("variance components must be nonnegative")
        if self.fixed_design is not None:
            if np.max(np.abs(b @ self.fixed_design)) > 1e-10:
                raise DesignError("weight matrix does not annihilate the fixed design")


def oneway_population(design: OneWayDesign) -> PopulationSpec:
    """Population of the group-level MANOVA estimator, in closed form.

    Eigenvalue t1 with multiplicity I-1, t2 with multiplicity n-I, and
    zeros filling out M = I + n.
    """
    p, n, i_grp, j_sz = design.p, design.n, design.I, design.J
    t1 = (p / (i_grp - 1)) * (design.sigma1_sq + design.sigma2_sq / j_sz)
    t2 = -p * design.sigma2_sq / (j_sz * (n - i_grp))
    if t1 == 0.0 and t2 == 0.0:
        raise DesignError("both variance components vanish; population is all zero")
    return PopulationSpec(((t1, i_grp - 1), (t2, n - i_grp), (0.0, i_grp + 1)), n_dim=p)


def oneway_B_matrices(n: int, I: int, J: int) -> tuple[np.ndarray, np.ndarray]:
    """The classical estimator weights B1 (group component) and B2 (noise).

    Built from the projections onto col(U) minus the grand mean and onto
    the residual space, with U the group-membership incidence matrix.
    """
    if n != I * J:
        raise DesignError(f"n = {n} != I*J = {I * J}")
    u = np.kron(np.eye(I), np.ones((J, 1)))
    pi_u = u @ u.T / J                    # projection onto col(U)
    pi_0 = np.full((n, n), 1.0 / n)      # projection onto col(1_n)
    pi_1 = pi_u - pi_0
    pi_2 = np.eye(n) - pi_u
    b1 = (pi_1 / (I - 1) - pi_2 / (n - I)) / J
    b2 = pi_2 / (n - I)
    return b1, b2


def manova_estimate(y: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Quadratic-form estimator Y'BY, symmetrized against roundoff."""
    y = np.asarray(y, dtype=float)
    b = np.asarray(b, dtype=float)
    if y.ndim != 2 or b.ndim != 2 or b.shape[0] != b.shape[1] or b.shape[0] != y.shape[0]:
        raise ShapeError(f"shapes do not conform: Y {y.shape}, B {b.shape}")
    est = y.T @ b @ y
    return 0.5 * (est + est.T)


def estimate_sigma_sq(sigma_hat: np.ndarray, p: int) -> float:
    """Scalar variance estimate: trace of the estimator over p."""
    s = np.asarray(sigma_hat)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ShapeError(f"estimator must be square, got {s.shape}")
    if s.shape[0] != p:
        raise ShapeError(f"estimator is {s.shape[0]}x{s.shape[0]}, expected p = {p}")
    return float(np.trace(s)) / p


def general_F_population(design: GeneralDesign) -> PopulationSpec:
    """Population from the general construction: eigenvalues of the block
    matrix F, clustered into (value, multiplicity) entries.

    Clustering is gap-validated: values are merged when consecutive gaps
    are below tolerance, and the merge must be separated from the next
    cluster by a decisively larger gap.
    """
    b = np.asarray(design.weight, dtype=float)
    sigmas = np.sqrt(np.asarray(design.variances, dtype=float))
    blocks = []
    for r, u_r in enumerate(design.incidence):
        row = []
        for s, u_s in enumerate(design.incidence):
            row.append(design.p * sigmas[r] * sigmas[s] * np.asarray(u_r).T @ b @ np.asarray(u_s))
        blocks.append(row)
    f = np.block(blocks)
    f = 0.5 * (f + f.T)
    eigs = np.linalg.eigvalsh(f)
    scale = max(1.0, float(np.max(np.abs(eigs))))
    tol = CLUSTER_RTOL * scale

    clusters: list[list[float]] = [[eigs[0]]]
    for v in eigs[1:]:
        if v - clusters[-1][-1] <= tol:
            clusters[-1].append(v)
        else:
            clusters.append([v])
    means = [float(np.mean(cl)) for cl in clusters]
    # Clusters are runs of sorted values, so their means ascend and the
    # nearest mean to a cluster's is a neighbour's.
    gaps = np.diff(means).tolist()
    entries = []
    for i, (cl, mean) in enumerate(zip(clusters, means)):
        spread = cl[-1] - cl[0]
        if spread > 0 and spread > 0.25 * min(gaps[max(i - 1, 0):i + 1], default=scale):
            raise ClusterAmbiguity(
                f"eigenvalue cluster around {mean:g} has spread {spread:.3e} "
                "comparable to its separation; multiplicities are unreliable"
            )
        entries.append((0.0 if abs(mean) <= tol else mean, len(cl)))
    return PopulationSpec(tuple(entries), n_dim=design.p)


def oneway_general_design(design: OneWayDesign) -> GeneralDesign:
    """The one-way layout expressed through the general construction."""
    b1, _ = oneway_B_matrices(design.n, design.I, design.J)
    u1 = np.kron(np.eye(design.I), np.ones((design.J, 1)))
    u2 = np.eye(design.n)
    return GeneralDesign(
        incidence=(u1, u2),
        weight=b1,
        variances=(design.sigma1_sq, design.sigma2_sq),
        p=design.p,
    )
