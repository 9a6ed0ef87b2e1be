"""Deterministic spectral law of X'TX: inverse transform, Stieltjes
transform, density, and the atom at zero.

The law is defined through the fixed-point equation

    z = -1/m + (1/N) * sum_a t_a / (1 + t_a * m),

whose unique upper-half-plane solution m0(z) is the Stieltjes transform.
The formal inverse z0(m) of m0 is a rational function with poles at 0 and
-1/t_a; its boundary behavior on the real axis gives the density.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergence, PoleProximity, UndefinedAtZero
from .population import PopulationSpec

POLE_PROXIMITY_REL = 1e-12
DEFAULT_TOL = 1e-12
MAX_ITER = 10_000

# Relative accuracy of a certified boundary value: a returned root of
# z0(m) = x must have an estimated error of at most this times |m|, and a
# real root this close to a zero of z0' is half of a soft edge's double root.
BOUNDARY_RTOL = 1e-5

# Matrix entries per stacked eigvals call of the boundary kernel (64 KiB).
BOUNDARY_BLOCK_ENTRIES = 1 << 13


# ---------------------------------------------------------------------------
# array-level evaluators (vals = distinct nonzero values, mults, n = N)

def _z0(vals, mults, n, m):
    m = np.asarray(m)
    if vals.size == 0:
        return -1.0 / m
    s = np.sum(mults * vals / (1.0 + np.multiply.outer(m, vals)), axis=-1)
    return -1.0 / m + s / n


def _z0_deriv(vals, mults, n, m, order):
    m = np.asarray(m)
    k = order
    sign = (-1.0) ** k
    lead = sign * _factorial(k) / m ** (k + 1)
    if vals.size == 0:
        return -lead
    denom = (1.0 + np.multiply.outer(m, vals)) ** (k + 1)
    s = np.sum(mults * vals ** (k + 1) / denom, axis=-1)
    # d^k/dm^k of t/(1+tm) = (-1)^k k! t^{k+1}/(1+tm)^{k+1}
    return -lead + sign * _factorial(k) * s / n


def _factorial(k):
    return (1, 1, 2, 6, 24)[k]


def _pole_guard(pop: PopulationSpec, m) -> None:
    """Raise PoleProximity when m is within tolerance of a pole.

    The tolerance is relative to the local pole spacing, so tightly
    clustered poles get proportionally tighter exclusion zones.
    """
    poles = pop.poles()
    m_arr = np.atleast_1d(np.asarray(m, dtype=complex))
    dist = np.abs(m_arr[:, None] - poles[None, :])
    idx = np.argmin(dist, axis=1)
    if poles.size > 1:
        gaps = np.diff(poles)           # poles ascend: nearest neighbours
        spacing = np.minimum(np.append(gaps, np.inf), np.insert(gaps, 0, np.inf))
    else:
        spacing = np.maximum(np.abs(poles), 1.0)
    tol = POLE_PROXIMITY_REL * spacing[idx]
    bad = dist[np.arange(m_arr.size), idx] <= tol
    if np.any(bad):
        where = m_arr[bad][0]
        raise PoleProximity(f"m={where} is within {POLE_PROXIMITY_REL:g} of a pole of z0")


# ---------------------------------------------------------------------------
# public operations

def z0_eval(pop: PopulationSpec, m):
    """Evaluate z0 at m (real or complex, off the pole set).

    The point at infinity maps to 0 by convention.
    """
    if np.isscalar(m) and not np.iscomplexobj(np.asarray(m)) and np.isinf(m):
        return 0.0
    _pole_guard(pop, m)
    vals, mults = pop.nonzero()
    out = _z0(vals, mults, pop.n_dim, m)
    if np.isscalar(m):
        out = complex(out) if np.iscomplexobj(np.asarray(m)) else float(out)
    return out


def z0_derivative(pop: PopulationSpec, m, order: int = 1):
    """Exact rational-function derivative of z0 of the given order (1..3)."""
    if order not in (1, 2, 3):
        raise DomainError(f"derivative order must be 1, 2, or 3, got {order}")
    _pole_guard(pop, m)
    vals, mults = pop.nonzero()
    out = _z0_deriv(vals, mults, pop.n_dim, m, order)
    if np.isscalar(m):
        out = complex(out) if np.iscomplexobj(np.asarray(m)) else float(out)
    return out


def solve_m0(pop: PopulationSpec, z: complex, tol: float = DEFAULT_TOL) -> complex:
    """Solve the fixed-point equation for m0(z), z in the upper half plane.

    Damped fixed-point iteration seeded at -1/z, accelerated by a
    safeguarded Newton step on z0(m) - z = 0.  The iteration map and the
    damping both preserve the upper half plane, so the returned root is
    the unique one with positive imaginary part.
    """
    z = complex(z)
    if not z.imag > 0:
        raise DomainError(f"z must lie in the open upper half plane, got {z}")
    if tol <= 0:
        raise DomainError("tol must be positive")
    # Roundoff in z0 scales with |z|; below this floor the residual is noise.
    tol = max(tol, 4.0 * np.finfo(float).eps * abs(z))
    vals, mults = pop.nonzero()
    n = pop.n_dim

    def hybrid(z_cur, m, budget, goal):
        """Damped fixed-point iteration with gated Newton refinement.

        The damped fixed point is a self-map of C+ with the solution as
        its unique attracting point, so it transports any seed into the
        right basin; Newton is only allowed once the residual is small
        and with a bounded step, which keeps it off the z0 -> 0 plateau
        at large |m| where the residual falsely flattens at |z|.
        Returns (m, residual, iterations used).
        """
        def fp(m):
            s = np.sum(mults * vals / (1.0 + vals * m)) / n if vals.size else 0.0
            return 1.0 / (-z_cur + s)

        def resid(m):
            return complex(_z0(vals, mults, n, m)) - z_cur

        gate = 0.05 * (1.0 + abs(z_cur))
        r = resid(m)
        for it in range(budget):
            if abs(r) <= goal:
                return m, abs(r), it
            stepped = False
            if abs(r) < gate:
                dz = complex(_z0_deriv(vals, mults, n, m, 1))
                if dz != 0:
                    for lam in (1.0, 0.5, 0.25):
                        m_new = m - lam * r / dz
                        if m_new.imag > 0 and abs(m_new - m) <= 0.5 * (1.0 + abs(m)):
                            r_new = resid(m_new)
                            if abs(r_new) < abs(r):
                                m, r = m_new, r_new
                                stepped = True
                                break
            if not stepped:
                m_new = 0.5 * m + 0.5 * fp(m)
                m, r = m_new, resid(m_new)
        return m, abs(r), budget

    m, r, used = hybrid(z, -1.0 / z, 500, tol)
    if r <= tol:
        return m
    # Continuity ladder: solve at a comfortable height, then walk eta down
    # to the target with warm starts.  A rung is never left unconverged;
    # leftover budget keeps grinding the current rung.
    eta_target = z.imag
    eta = max(1.0, 2.0 * eta_target)
    m = -1.0 / complex(z.real, eta)
    remaining = MAX_ITER - used
    while remaining > 0:
        z_cur = complex(z.real, eta)
        goal = tol if eta <= eta_target else max(tol, 1e-12)
        m, r, used = hybrid(z_cur, m, min(remaining, 3000), goal)
        remaining -= used
        if r > goal:
            continue
        if eta <= eta_target:
            return m
        eta = max(eta_target, eta / 4.0)
    raise NonConvergence(
        f"fixed-point solve for m0({z}) did not reach |residual| <= {tol:g} "
        f"within the iteration budget"
    )


# ---------------------------------------------------------------------------
# boundary values on the real axis

def _m0_boundary(vals, mults, n, xs, check_real=False):
    """Certified boundary values m0(x + i0) at all abscissae in xs, batched.

    In the chart q = 1/m, z0(m) = x reads q - (C - x) + sum_k d_k/(q + t_k) = 0
    (c_k = M_k/N, C = sum c_k t_k, d_k = c_k t_k^2): its k+1 roots are the
    eigenvalues of the arrowhead matrix [[C - x, 1'], [-d, diag(-t)]]
    (Bunch-Nielsen-Sorensen), and x enters only the corner.  The roots
    m = 1/q are Newton-polished.  For real x at most one root lies in the
    upper half plane, and when none does exactly one real root has z0' > 0
    (Silverstein-Choi 1995): that root is the boundary value.  Where that
    count is not one, a real root within BOUNDARY_RTOL (relative to m) of
    a zero of z0' is half of a soft edge's double root, admissible but not
    counted.  NonConvergence is
    raised when the count fails, or when the returned root's error
    estimate |r| / max(|z0'|, sqrt(|r z0''|/2)) / |m|, r = z0(m) - x,
    exceeds BOUNDARY_RTOL; real values, where f0 = 0 regardless, are
    estimated only when check_real.
    """
    c = mults / n
    arrow = np.diag(np.concatenate([[np.dot(c, vals)], -vals]))
    arrow[0, 1:], arrow[1:, 0] = 1.0, -c * vals**2
    block = max(1, BOUNDARY_BLOCK_ENTRIES // arrow.size)
    out = np.empty(xs.size, dtype=complex)
    for lo in range(0, xs.size, block):
        x = xs[lo:lo + block, None]
        stack = np.repeat(arrow[None], x.size, axis=0)
        stack[:, 0, 0] -= x[:, 0]
        with np.errstate(all="ignore"):
            m = 1.0 / np.linalg.eigvals(stack).astype(complex)
            r = _z0(vals, mults, n, m) - x
            for _ in range(3):
                m_new = m - r / _z0_deriv(vals, mults, n, m, 1)
                r_new = _z0(vals, mults, n, m_new) - x
                better = np.abs(r_new) < np.abs(r)
                m, r = np.where(better, m_new, m), np.where(better, r_new, r)
            # At x = 0 one root is q ~ 0 (m ~ 1e15), so roots are split into
            # real and complex relative to their own modulus only.
            m[~np.isfinite(m)] = complex(np.nan, np.nan)
            tol = 1e-9 * np.maximum(1.0, np.abs(m))
            upper = m.imag > tol
            real = np.where(np.abs(m.imag) <= tol, m.real, np.nan)
            dz = _z0_deriv(vals, mults, n, real, 1)
            inside = upper.any(axis=1)
            # Rounding splits a soft edge's double root into two roots
            # with z0' ~ 0 of either sign.  z0'' is evaluated only on rows
            # whose count of z0' > 0 is not one: on every row it costs
            # about 15% of the kernel's time.
            odd = ~inside & (np.sum(dz > 0, axis=1) != 1)
            near = np.zeros_like(dz)
            near[odd] = BOUNDARY_RTOL * np.abs(real[odd] * _z0_deriv(vals, mults, n, real[odd], 2))
        outward = np.sum(dz > near, axis=1)
        dz[~(dz >= -near)] = -np.inf
        x = x[:, 0]
        _certify(x, (upper.sum(axis=1) > 1) | (~inside & (outward > 1)),
                 "more than one admissible root of z0(m) = x")
        _certify(x, ~inside & np.isneginf(dz.max(axis=1)), "no admissible root of z0(m) = x")
        pick = np.where(inside, np.argmax(np.where(upper, m.imag, 0.0), axis=1),
                        np.argmax(dz, axis=1))
        rows = np.arange(x.size)
        best, r = m[rows, pick], np.abs(r[rows, pick])
        with np.errstate(all="ignore"):
            slope = np.maximum(np.abs(_z0_deriv(vals, mults, n, best, 1)),
                               np.sqrt(0.5 * r * np.abs(_z0_deriv(vals, mults, n, best, 2))))
            err = r / np.maximum(slope, np.finfo(float).tiny) / np.abs(best)
        _certify(x, (inside | check_real) & ~(err <= BOUNDARY_RTOL),
                 f"estimated relative error of the root above {BOUNDARY_RTOL:g}")
        out[lo:lo + block] = np.where(inside, best, best.real)
    return out


def _certify(x, bad, what):
    if bad.any():
        raise NonConvergence(f"boundary value of m0 at x={x[bad][0]:g}: {what}")


def stieltjes_boundary(pop: PopulationSpec, x: float, cross_check: bool = True):
    """m0 extended to the real axis at x, certified by its root count and
    error estimate; `cross_check` is accepted and ignored."""
    x = _defined(pop, x)
    return complex(_m0_boundary(*pop.nonzero(), pop.n_dim, np.array([x]), check_real=True)[0])


def density_f0(pop: PopulationSpec, x: float, cross_check: bool = True) -> float:
    """Density of the spectral law at x: (1/pi) Im of the boundary m0.
    `cross_check` is accepted and ignored."""
    return float(_density(pop, np.array([_defined(pop, x)]))[0])


def _defined(pop: PopulationSpec, x) -> float:
    x = float(x)
    if x == 0.0 and pop.rank <= pop.n_dim:
        raise UndefinedAtZero(
            f"m0 is unbounded at 0 when rank(T) = {pop.rank} <= N = {pop.n_dim}"
        )
    return x


def _density(pop: PopulationSpec, xs) -> np.ndarray:
    """f0 at every abscissa in xs through one batched boundary solve."""
    return np.maximum(0.0, _m0_boundary(*pop.nonzero(), pop.n_dim, xs).imag / np.pi)


def atom_mass_at_zero(pop: PopulationSpec) -> float:
    """Point mass at 0 by rank counting: max(0, 1 - rank(T)/N)."""
    return max(0.0, 1.0 - pop.rank / pop.n_dim)


def isolated_zero_in_support(pop: PopulationSpec) -> bool:
    """True when 0 is an isolated point of the support (the atom case).

    Equivalent to the inverse map decreasing through the origin in
    q-coordinates, which happens exactly when rank(T) < N.
    """
    return pop.rank < pop.n_dim


# ---------------------------------------------------------------------------
# density tabulation and quadrature

@dataclass(frozen=True)
class DensityGrid:
    """Tabulated density plus the point mass at zero.

    Abscissae strictly increase and values are nonnegative; for grids that
    span the support, the trapezoid mass plus the atom recovers 1 within
    the grid's quadrature resolution.
    """

    points: tuple[tuple[float, float], ...]
    atom_at_zero: float

    def __post_init__(self):
        xs = [x for x, _ in self.points]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise DomainError("grid abscissae must strictly increase")
        if any(f < 0 for _, f in self.points):
            raise DomainError("density values must be nonnegative")

    def quadrature_residual(self) -> float:
        xs, fs = np.array(self.points).reshape(-1, 2).T
        return abs(float(np.trapezoid(fs, xs)) + self.atom_at_zero - 1.0)


def density_grid(pop: PopulationSpec, n_points: int = 2000, pad: float = 0.05) -> DensityGrid:
    """Tabulate f0 on a uniform grid spanning the support (plus padding)."""
    from .edges import find_edges

    report = find_edges(pop)
    lo, hi = report.intervals[0][0], report.intervals[-1][1]
    margin = pad * (hi - lo)
    xs = np.linspace(lo - margin, hi + margin, n_points)
    if pop.rank <= pop.n_dim:
        # m0 is unbounded at 0: tabulate a thousandth of a cell to its
        # right, where the boundary kernel still resolves it.
        xs[xs == 0.0] = 1e-3 * (xs[-1] - xs[0]) / max(n_points - 1, 1)
    rows = tuple(zip(xs.tolist(), _density(pop, xs).tolist()))
    return DensityGrid(points=rows, atom_at_zero=atom_mass_at_zero(pop))


def integrate_density(pop: PopulationSpec, intervals, points_per_interval: int = 800) -> float:
    """Integral of f0 over the given support intervals.

    Uses a cosine-clustered midpoint rule: node density ~ u^2 near the
    endpoints absorbs both the square-root edge decay and the inverse
    square-root blowup at a hard edge.  When rank(T) = N an interval
    through 0 is split there, since f0 may blow up at 0 inside the
    support.  The nodes of all intervals go through one batched boundary
    solve.
    """
    ivs = [(float(lo), float(hi)) for lo, hi in intervals]
    if pop.rank == pop.n_dim:
        ivs = [iv for lo, hi in ivs
               for iv in ([(lo, 0.0), (0.0, hi)] if lo < 0.0 < hi else [(lo, hi)])]
    u = (np.arange(points_per_interval) + 0.5) / points_per_interval
    lo, hi = np.array(ivs).reshape(-1, 2).T[:, :, None]
    x = lo + (hi - lo) * 0.5 * (1.0 - np.cos(np.pi * u))
    w = (hi - lo) * 0.5 * np.pi * np.sin(np.pi * u) / points_per_interval
    return float(np.sum(_density(pop, x.ravel()) * w.ravel()))
