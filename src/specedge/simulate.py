"""Monte Carlo harness: spectra of X'TX, coverage experiments, support
adherence, edge concentration, and local-law probes.

Replicates are independent and individually seeded through a splittable
counter-based generator, so results are bit-identical for a given
(seed, config) regardless of how the replicate loop is scheduled. A
replicate draws x with unit-variance entries and forms X'TX as x'(T/N)x:
the 1/N lives in the weights, and `eigvalsh` gets the Gram as it is.

The two threshold experiments, `table1_experiment` and
`edge_concentration` at an outermost edge, ask of each replicate only
whether its whole spectrum lies below (or above) a level sigma. A
replicate is decided without an eigensolve when the Cholesky
factorization of (sigma - mu)I - G succeeds: by Sylvester's law of
inertia that matrix is then positive definite, up to the factorization's
backward error, so every eigenvalue lies below sigma; the margin mu
covers that error and `eigvalsh`'s own, so the eigensolve would have
given the same answer. Every other replicate takes the full `eigvalsh`,
and every output is what the eigensolve alone gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .edges import EdgeInfo, check_regularity, find_edges
from .errors import DomainError, IrregularEdge
from .manova import OneWayDesign, oneway_population
from .population import PopulationSpec, _is_int
from .spectral import solve_m0
from .tw import f1_quantile
from .twtest import DEFAULT_TAU, tw_statistic, window_delta

ENTRY_LAWS = ("gaussian", "rademacher")
COVERAGE_LEVELS = (0.90, 0.95, 0.99)
DESK_SCALE_MAX_DIM = 2000


@dataclass(frozen=True)
class SimConfig:
    """Simulation settings; `seed` fully determines every replicate."""

    reps: int
    seed: int = 0
    entry_law: str = "gaussian"
    parallel_width: int = 1

    def __post_init__(self):
        if self.entry_law not in ENTRY_LAWS:
            raise DomainError(f"entry_law must be one of {ENTRY_LAWS}")
        counts = (self.reps, self.parallel_width)
        if not all(_is_int(v) and v >= 1 for v in counts):
            raise DomainError(f"reps and parallel_width must be positive integers, got {counts}")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise DomainError(f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass(frozen=True)
class CoverageResult:
    """Empirical CDF of the standardized statistic at fixed TW levels."""

    levels: tuple[float, ...]
    coverage: tuple[float, ...]
    std_errors: tuple[float, ...]
    reps: int

    def to_rows(self):
        return list(zip(self.levels, self.coverage, self.std_errors))


@dataclass(frozen=True)
class LocalLawProbe:
    """Per-replicate resolvent errors against the deterministic limit."""

    z: complex
    psi: float
    m_n_err: tuple[float, ...]
    entrywise_err: tuple[float, ...]

    @property
    def median_m_err(self) -> float:
        return float(np.median(self.m_n_err))

    @property
    def median_entrywise_err(self) -> float:
        return float(np.median(self.entrywise_err))


def _rep_rng(cfg: SimConfig, rep_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(rep_index,))
    return np.random.Generator(np.random.Philox(ss))


def _draw_x(rng, m, n, law):
    """An m x n draw of unit-variance entries (not scaled by 1/sqrt(n))."""
    if law == "gaussian":
        return rng.standard_normal((m, n))
    return rng.integers(0, 2, size=(m, n)).astype(float) * 2.0 - 1.0


def _check_dim(m: int, n: int):
    if max(m, n) > DESK_SCALE_MAX_DIM:
        raise DomainError(f"dimension {max(m, n)} exceeds the desk-scale bound "
                          f"{DESK_SCALE_MAX_DIM}")


def _weights(pop: PopulationSpec):
    """The rows of x that enter the Gram, those with t != 0 (a slice when
    every row does, so no copy is made), and T/N over them as a column."""
    w = pop.expand() / pop.n_dim
    keep = w != 0
    rows = slice(None) if keep.all() else keep
    return rows, w[rows][:, None]


def _gram(x, rows, wcol):
    """x'Wx for W = diag(T/N); rows with t = 0 add nothing and are dropped."""
    x = x[rows]
    return x.T @ (wcol * x)


def _replicate_gram(pop: PopulationSpec, cfg: SimConfig):
    """rep -> that replicate's Gram x'(T/N)x; the dimension check, the
    weights and the zero-row mask are fixed once per experiment."""
    m, n = pop.total_mult, pop.n_dim
    _check_dim(m, n)
    rows, wcol = _weights(pop)
    return lambda rep: _gram(_draw_x(_rep_rng(cfg, rep), m, n, cfg.entry_law), rows, wcol)


def _below(g, sigma) -> bool:
    """True only if every eigenvalue of the symmetric g, and every one
    `eigvalsh` would compute, lies below sigma: the Cholesky factorization
    of (sigma - mu)I - g succeeds.  mu = 8 N(N+1) u (|g|_F + |sigma|) covers
    the factorization's backward error, about N(N+1) u |A|_2 (Higham,
    Accuracy and Stability of Numerical Algorithms, sec. 10.1), the
    eigensolver's O(N u |g|) and the rounding-level asymmetry of `_gram`,
    since the two LAPACK calls may read different triangles."""
    n = g.shape[0]
    mu = 8.0 * n * (n + 1) * (np.finfo(float).eps / 2) * (np.linalg.norm(g) + abs(sigma))
    if not np.isfinite(mu):  # numpy's cholesky passes NaN through without raising
        return False
    a = -g
    a.flat[:: n + 1] += sigma - mu
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def _map_reps(cfg: SimConfig, fn):
    """Run fn(rep_index) for every replicate; order-invariant collection."""
    if cfg.parallel_width == 1:
        return [fn(i) for i in range(cfg.reps)]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=cfg.parallel_width) as pool:
        return list(pool.map(fn, range(cfg.reps)))


def sample_spectrum(pop: PopulationSpec, cfg: SimConfig, rep_index: int) -> np.ndarray:
    """All N eigenvalues of one replicate of X'TX = x'(T/N)x, sorted ascending;
    the 1/N lives in the weights, and `eigvalsh` reads the lower triangle."""
    if not (_is_int(rep_index) and rep_index >= 0):
        raise DomainError(f"rep_index must be a non-negative integer, got {rep_index!r}")
    return np.linalg.eigvalsh(_replicate_gram(pop, cfg)(rep_index))


def table1_experiment(design: OneWayDesign, cfg: SimConfig) -> CoverageResult:
    """Coverage of the TW approximation for the standardized largest
    eigenvalue of the group-level estimator, simulated through the
    law-equivalent population route.

    A replicate whose spectrum `_below` certifies under the lowest cutoff
    is covered at every level and stands in as lambda_max = -inf; the
    others take the top eigenvalue of a full eigensolve."""
    pop = oneway_population(design)
    edge = find_edges(pop).edges[0]
    cutoffs = np.array([f1_quantile(q) for q in COVERAGE_LEVELS])
    sigma = edge.e_star + cutoffs.min() / (edge.gamma * pop.n_dim) ** (2.0 / 3.0)
    gram = _replicate_gram(pop, cfg)

    def top(rep):
        g = gram(rep)
        return -np.inf if _below(g, sigma) else np.linalg.eigvalsh(g)[-1]

    stats = tw_statistic(edge, pop.n_dim, np.array(_map_reps(cfg, top)))
    cov = tuple(float(np.mean(stats <= c)) for c in cutoffs)
    ses = tuple(float(np.sqrt(q * (1 - q) / cfg.reps)) for q in COVERAGE_LEVELS)
    return CoverageResult(COVERAGE_LEVELS, cov, ses, cfg.reps)


def support_adherence(pop: PopulationSpec, cfg: SimConfig, delta: float) -> float:
    """Fraction of replicates with any eigenvalue farther than delta from
    the deterministic support (the atom at zero, when present, counts as
    part of the support)."""
    if not (np.isfinite(delta) and delta >= 0):
        raise DomainError(f"delta must be finite and nonnegative, got {delta!r}")
    report = find_edges(pop)
    lows, highs = np.array(report.intervals, dtype=float).reshape(-1, 2).T
    has_atom = report.atom_at_zero > 0
    gram = _replicate_gram(pop, cfg)

    def one(rep):
        eigs = np.linalg.eigvalsh(gram(rep))
        col = eigs[:, None]
        inside = np.any((col >= lows - delta) & (col <= highs + delta), axis=1)
        if has_atom:
            inside |= np.abs(eigs) <= delta
        return bool(np.any(~inside))

    return float(np.mean(_map_reps(cfg, one)))


def edge_concentration(
    pop: PopulationSpec,
    edge: EdgeInfo,
    cfg: SimConfig,
    epsilon: float,
    tau: float = DEFAULT_TAU,
) -> float:
    """Fraction of replicates with an eigenvalue in the exclusion zone
    between N^{-2/3+eps} and the edge window, outward of the edge.

    When the zone lies outside the whole support (the rightmost edge on
    its right, the leftmost on its left), a replicate whose spectrum
    `_below` certifies to lie on the support's side of the zone has no
    eigenvalue in it; the others take a full eigensolve."""
    if not (np.isfinite(epsilon) and 0 <= epsilon < 2.0 / 3.0):
        raise DomainError(f"epsilon must be finite and lie in [0, 2/3), got {epsilon!r}")
    if not check_regularity(pop, edge, tau):
        raise IrregularEdge("edge concentration is only meaningful at a regular edge")
    report = find_edges(pop)
    delta = window_delta(report, edge)
    inner = pop.n_dim ** (-2.0 / 3.0 + epsilon)
    if edge.side == "right":
        lo, hi = edge.e_star + inner, edge.e_star + delta
        outermost = edge == report.edges[0]
    else:
        lo, hi = edge.e_star - delta, edge.e_star - inner
        outermost = edge == report.edges[-1]
    gram = _replicate_gram(pop, cfg)

    def one(rep):
        g = gram(rep)
        # a spectrum below lo, or above hi (-G's below -hi), misses the zone
        if outermost and (_below(g, lo) if edge.side == "right" else _below(-g, -hi)):
            return False
        eigs = np.linalg.eigvalsh(g)
        return bool(np.any((eigs >= lo) & (eigs <= hi)))

    return float(np.mean(_map_reps(cfg, one)))


def local_law_probe(
    pop: PopulationSpec,
    edge: EdgeInfo,
    cfg: SimConfig,
    eta: float,
    tau: float = DEFAULT_TAU,
) -> LocalLawProbe:
    """Resolvent errors at z = E* + i*eta against the deterministic limit.

    Entrywise errors are measured in the pole-free normalization
    [[G_N - m0, G_N X'], [X G_N, X G_N X' - m0 (Id + m0 T)^{-1}]],
    which is the (G - Pi)_{AB} / (t_A t_B) array extended to zero values.
    """
    n, mdim = pop.n_dim, pop.total_mult
    _check_dim(mdim, n)
    if not (math.isfinite(eta) and eta > 0):
        raise DomainError(f"eta must be finite and positive, got {eta!r}")
    if not check_regularity(pop, edge, tau):
        raise IrregularEdge("local-law probe requires a regular edge")
    z = complex(edge.e_star, eta)
    m0 = solve_m0(pop, z)
    tvals = pop.expand()
    rows, wcol = _weights(pop)
    psi = float(np.sqrt(m0.imag / (n * eta)) + 1.0 / (n * eta))
    corner = n * m0 / (1.0 + m0 * tvals)  # N m0 (Id + m0 T)^{-1}, diagonal

    def one(rep):
        x = _draw_x(_rep_rng(cfg, rep), mdim, n, cfg.entry_law)
        g = _gram(x, rows, wcol).astype(complex)
        g.flat[:: n + 1] -= z
        g = np.linalg.inv(g)
        m_n = complex(np.trace(g)) / n
        if not m_n.imag > 0:
            raise ArithmeticError(f"Im m_N = {m_n.imag} must be positive at {z}")
        # x = sqrt(N) X: real gemms on the parts of G_N give sqrt(N) X G_N
        # and N X G_N X', so no real matrix is cast to complex
        xg = (x @ g.real, x @ g.imag)
        lower = (xg[0] @ x.T, xg[1] @ x.T)
        lower[0].flat[:: mdim + 1] -= corner.real
        lower[1].flat[:: mdim + 1] -= corner.imag
        g.flat[:: n + 1] -= m0
        err = max(np.max(np.abs(g)), np.max(np.hypot(*xg)) / np.sqrt(n),
                  np.max(np.hypot(*lower)) / n)
        return abs(m_n - m0), float(err)

    pairs = _map_reps(cfg, one)
    return LocalLawProbe(
        z=z,
        psi=psi,
        m_n_err=tuple(p[0] for p in pairs),
        entrywise_err=tuple(p[1] for p in pairs),
    )
