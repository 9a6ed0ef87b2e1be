"""Deterministic spectral law of X'TX: inverse transform, Stieltjes
transform, density, and the atom at zero.

The law is defined through the fixed-point equation

    z = -1/m + (1/N) * sum_a t_a / (1 + t_a * m),

whose unique upper-half-plane solution m0(z) is the Stieltjes transform.
The formal inverse z0(m) of m0 is a rational function with poles at 0 and
-1/t_a; its boundary behavior on the real axis gives the density.

Boundary values m0(x + i0) are solved in the chart q = 1/m, where
g(q) = z0(1/q) has poles only at -t_a and every edge, the hard edge at
q = 0 included, is a square-root point of g.  Inside the support, Newton
chains run from the edges that `edges.find_edges` reports toward each
interval's middle, and every abscissa takes Newton steps from the chain.
For real x, z0(m) = x has at most one root in the upper half plane
(Silverstein & Choi 1995), so a converged root there, clear of the real
axis by more than its error estimate, is the boundary value.  In a gap,
the real value is the root of the decreasing g between the gap's edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .edges import _chart, _g_derivs, _gq, _poles, atom_mass_at_zero, find_edges
from .errors import DomainError, NonConvergence, PoleProximity, UndefinedAtZero
from .population import PopulationSpec, _derived, _is_int

DEFAULT_TOL = 1e-12
MAX_ITER = 10_000
STEP_ULPS = 4              # solve_m0 stops on a Newton step this small, in ulps of |m|

EPS = np.finfo(float).eps
TINY = np.finfo(float).tiny     # smallest normal double

# Boundary solver.  A chain takes steps of at most 1/CHAIN_NODES of its
# half-interval (in u); a point that fails its certificate is retried from
# chains with half that largest step, at most CHAIN_HALVINGS times.
CHAIN_NODES = 8
CHAIN_HALVINGS = 6
CHAIN_TRUST = 0.5          # largest predictor miss kept, relative to |Im q|
CHAIN_MIN_STEP = 1e-12     # a chain stops where its step falls below this times its reach
CORRECTOR_STEPS = 4        # Newton steps per chain node at most
NEWTON_STEPS = 8           # Newton steps per abscissa at most
NEWTON_RTOL = 1e-10        # a step this small relative to |q| ends them
NOISE_ULPS = 8             # rounding floor of g(q) - x, in ulps of its summands
EDGE_ZONE_ULPS = 64        # a soft edge's zone, in ulps of g's summands at q*


def solve_m0(pop: PopulationSpec, z: complex, tol: float = DEFAULT_TOL) -> complex:
    """Solve the fixed-point equation for m0(z), z in the upper half plane.

    Damped Newton on z0(m) = z, continued in eta = Im z.  It starts high
    enough above the support that -1/z is within half its size of the
    root, and each rung divides eta by 4 until it reaches Im z.  The first
    Newton step of a rung, taken from the last root, is that root moved
    along its tangent dm/deta = i/z0'(m).  A step is halved until it stays
    in the upper half plane and lowers |z0(m) - z| or meets the tolerance.
    z0(m) = z has one root there (Silverstein & Choi 1995), so the
    returned root is m0(z).

    z0 is evaluated in the atom form g(1/m) (`_gq`), which keeps full
    relative precision where |m| is large, next to z = 0 when
    rank(T) <= N.  The root is returned once the residual meets the
    tolerance and either the next Newton step is below a few ulps of |m|
    or the residual is at the rounding floor of its summands.
    """
    z = complex(z)
    if not (np.isfinite(z) and z.imag > 0):
        raise DomainError(f"z must be finite and lie in the open upper half plane, got {z}")
    if not 0 < tol < np.inf:
        raise DomainError(f"tol must be finite and positive, got {tol!r}")
    # Far out, m0(z) ~ -1/z; once Im(-1/z) = Im z/|z|^2 is subnormal or 0,
    # no seed or step can be told to lie in the upper half plane.
    if (-1.0 / z).imag < TINY:
        raise DomainError(
            f"solve_m0 needs Im z/|z|^2 >= {TINY:g}, the smallest normal double, "
            f"so that m0(z) ~ -1/z stays in the upper half plane; got z = {z}")
    t, c, a = _chart(pop)
    # The support lies in [-R, R], R = ||T|| (1 + sqrt(rank/N))^2, and
    # |m0(z) + 1/z| <= R/(|z| Im z): at Im z >= 2R the seed is within half.
    height = 4.0 * np.abs(t).max(initial=0.0) * (1.0 + pop.rank / pop.n_dim)
    z_cur = complex(z.real, max(z.imag, height))
    m, res, step = -1.0 / z_cur, np.inf, 0.0
    q = np.empty(1, dtype=complex)
    # A trial or step that overflows is not finite, so it is rejected.
    with np.errstate(all="ignore"):
        for _ in range(MAX_ITER):
            trial = m - step
            if trial.imag > 0:
                q[0] = qt = 1.0 / trial
                g, g1, h = (v.item() for v in _gq(t, c, a, q))
                r = g - z_cur
                # Below the rounding floor of z0's summands the residual is
                # noise, so each rung takes at least one step.
                size = abs(qt)
                floor = NOISE_ULPS * EPS * (abs(z_cur) + size * (abs(a) + size * h))
                goal = max(tol, floor)
                if abs(r) < abs(res) or abs(r) <= goal:
                    m, res, d1 = trial, r, -g1 * qt * qt     # dz0/dm = -g'(q) q^2
                    if abs(res) <= goal:
                        if z_cur == z:
                            if abs(res) <= floor or abs(res / d1) <= STEP_ULPS * EPS * abs(m):
                                return complex(m)
                        else:
                            z_cur = complex(z.real, max(z.imag, z_cur.imag / 4.0))
                            res = g - z_cur
                    step = res / d1
                    continue
            step *= 0.5
    raise NonConvergence(
        f"Newton solve for m0({z}) did not converge to |residual| <= {tol:g} (or the "
        f"rounding floor) within {MAX_ITER} steps")


# ---------------------------------------------------------------------------
# boundary values on the real axis: edge-anchored continuation in q = 1/m

class _Support(NamedTuple):
    """What the boundary solver needs of one population's support.

    The solver cuts each support interval into pieces (at 0 too, when 0
    is a flat origin inside it) and each piece into two halves, one
    anchored at either end: anchor 2i is piece i's left end and 2i+1 its
    right end.  An edge's anchor is g(q*) evaluated here, at full relative
    precision next to 0 too, and its zone is that value's rounding.  Near
    an anchor x - x0 ~ (q - q0)^order, so each half is followed in
    u = |x - x0|^(1/order), in which q is smooth.  The chain nodes of all
    halves are stored flat, sorted by key = 2 * half + u / reach.
    """

    span: np.ndarray        # lowest and highest edge, as find_edges reports them
    x0: np.ndarray          # anchor abscissae g(q0), ascending, (2 * pieces,)
    q0: np.ndarray          # anchor q: q* = 1/m* of an edge, 0 at a hard edge
    zone: np.ndarray        # a point this close to an anchor is at the edge
    sigma: np.ndarray       # +1 where the half lies right of its anchor
    order: np.ndarray       # 2 at an edge, 3 at a flat origin
    reach: np.ndarray       # u at the piece's midpoint
    lead: np.ndarray        # dq/du at the anchor
    key: np.ndarray         # chain nodes: 2 * half + u / reach, ascending
    u: np.ndarray           # their u
    q: np.ndarray           # q there
    dq: np.ndarray          # dq/du there

    @property
    def anchors(self):
        return self.x0, self.q0, self.sigma, self.order, self.reach, self.lead


@_derived
def _support(pop: PopulationSpec) -> _Support:
    """The support data of `pop`'s law, computed once per spec (the spec is
    frozen): anchors from `find_edges`, and their chains."""
    t, c, a = _chart(pop)
    report = find_edges(pop)
    q0 = 1.0 / np.array([e.m_star for e in report.edges[::-1]])
    x0, _, h = _gq(t, c, a, q0)
    zone = EDGE_ZONE_ULPS * EPS * (np.abs(x0) + np.abs(q0) * (abs(a) + np.abs(q0) * h))
    order = np.full(x0.size, 2.0)
    inner = np.flatnonzero((x0[::2] < 0.0) & (0.0 < x0[1::2]))
    if pop.rank == pop.n_dim and inner.size:
        # g'(0) = g''(0) = 0: 0 is a flat origin inside an interval, where
        # x ~ q^3.  It splits the interval and anchors both pieces.
        at = 2 * inner[0] + 1
        x0, q0 = np.insert(x0, at, [0.0, 0.0]), np.insert(q0, at, [0.0, 0.0])
        order, zone = np.insert(order, at, [3.0, 3.0]), np.insert(zone, at, [0.0, 0.0])
    sigma = np.tile([1.0, -1.0], x0.size // 2)
    mid = np.repeat(0.5 * (x0[::2] + x0[1::2]), 2)
    reach = np.abs(mid - x0) ** (1.0 / order)
    # x - x0 ~ g^(p)(q0)/p! (q - q0)^p, so q - q0 ~ lead*u, lead^p =
    # sigma p!/g^(p)(q0), on the one branch with Im q < 0 (m in C+).
    p, d = _poles(*pop.nonzero(), pop.n_dim)
    j = np.clip(np.searchsorted(p, q0) - 1, 0, p.size - 1)
    _, g2, g3 = _g_derivs(p, d, j, q0 - p[j])
    roots = (sigma / np.where(order == 2.0, g2 / 2.0, g3 / 6.0)).astype(complex) ** (1.0 / order)
    roots = roots[:, None] * np.exp(2j * np.pi * np.arange(3) / order[:, None])
    lead = roots[np.arange(x0.size), np.argmin(roots.imag, axis=1)]
    anchors = x0, q0, sigma, order, reach, lead
    chain = _chains(t, c, a, anchors, np.arange(x0.size), CHAIN_NODES)
    span = np.array([report.intervals[0][0], report.intervals[-1][1]])
    return _Support(span, x0, q0, zone, sigma, order, reach, lead, *chain)


def _chains(t, c, a, anchors, halves, n):
    """Chains of certified roots from the `anchors` (x0, q0, sigma, order,
    reach, lead) of `halves` to their pieces' midpoints, all advancing
    together.

    Each step predicts to second order, from the tangent and the change of
    tangent over the last step, and corrects by Newton.  A step is kept
    when the root is certified and the predictor missed it by at most
    CHAIN_TRUST * |Im q|, so the chain's Hermite interpolant starts Newton
    well inside that root's basin; otherwise the step is halved.  Kept
    steps grow back up to reach / n.  Returns the nodes (key, u, q, dq/du),
    sorted by key = 2 * half + u / reach.
    """
    x0, q0, sigma, order, reach, lead = (v[halves] for v in anchors)
    cap = reach / n
    du = cap.copy()
    u = np.zeros(halves.size)
    q, dq, bend = q0.astype(complex), lead.copy(), np.zeros(halves.size, complex)
    rec = [(halves, u.copy(), q.copy(), dq.copy())]
    live = np.arange(halves.size)
    with np.errstate(all="ignore"):
        while live.size:
            un = np.minimum(u[live] + du[live], reach[live])
            step = un - u[live]
            xn = x0[live] + sigma[live] * un ** order[live]
            pred = q[live] + step * (dq[live] + 0.5 * step * bend[live])
            qn, ok, g1 = _newton(t, c, a, pred, xn, CORRECTOR_STEPS)
            ok &= np.abs(qn - pred) <= CHAIN_TRUST * np.abs(qn.imag)
            keep = live[ok]
            slope = sigma[keep] * order[keep] * un[ok] ** (order[keep] - 1.0) / g1[ok]
            bend[keep] = (slope - dq[keep]) / step[ok]
            u[keep], q[keep], dq[keep] = un[ok], qn[ok], slope
            rec.append((halves[keep], un[ok], qn[ok], slope))
            du[keep] = np.minimum(2.0 * du[keep], cap[keep])
            du[live[~ok]] *= 0.5
            # a chain whose step underflows its reach stops where it is
            live = live[(u[live] < reach[live]) & (du[live] > CHAIN_MIN_STEP * reach[live])]
    hs, us, qs, dqs = (np.concatenate(col) for col in zip(*rec))
    key = 2.0 * hs + us / reach[np.searchsorted(halves, hs)]
    by = np.argsort(key, kind="stable")
    return key[by], us[by], qs[by], dqs[by]


def _halves(sup: _Support, xs):
    """The half each x lies in, beyond its anchor's edge zone, or -1 outside
    the support; and each x's distance from that half's anchor."""
    i = np.searchsorted(sup.x0, xs, side="right") - 1
    piece = (i >= 0) & (i % 2 == 0)
    i = np.where(piece, i, 0)
    half = np.where(2.0 * xs > sup.x0[i] + sup.x0[i + 1], i + 1, i)
    dist = np.abs(xs - sup.x0[half])
    return np.where(piece & (dist > sup.zone[half]), half, -1), dist


def _solve(pop: PopulationSpec, sup: _Support, x, half, dist):
    """Certified q = 1/m0(x + i0) at abscissae x inside the support.

    Each x starts from its half's chain, interpolated in u by cubic
    Hermite, and all x take Newton steps together.  z0(m) = x has at most
    one root in the upper half plane (Silverstein & Choi 1995), so a
    converged root with Im q < 0 is the boundary value once it lies
    farther from the real axis than its error estimate.  Points that fail
    this are retried from chains with half the largest step, up to
    CHAIN_HALVINGS times; a point that still fails raises NonConvergence.
    """
    t, c, a = _chart(pop)
    q = np.empty(x.size, complex)
    todo = np.arange(x.size)
    chain = sup.key, sup.u, sup.q, sup.dq
    with np.errstate(all="ignore"):
        for level in range(CHAIN_HALVINGS + 1):
            if level:
                chain = _chains(t, c, a, sup.anchors, np.unique(half[todo]), CHAIN_NODES << level)
            key, u, qc, dq = chain
            h = half[todo]
            up = np.minimum(dist[todo] ** (1.0 / sup.order[h]), sup.reach[h])
            j = np.clip(np.searchsorted(key, 2.0 * h + up / sup.reach[h]) - 1, 0, key.size - 2)
            du = u[j + 1] - u[j]
            s = (up - u[j]) / du
            q[todo] = ((1.0 + 2.0 * s) * (1.0 - s) ** 2 * qc[j] + s * s * (3.0 - 2.0 * s) * qc[j + 1]
                       + s * (1.0 - s) * du * ((1.0 - s) * dq[j] - s * dq[j + 1]))
            q[todo], ok, _ = _newton(t, c, a, q[todo], x[todo], NEWTON_STEPS)
            todo = todo[~ok]
            if not todo.size:
                return q
    raise NonConvergence(
        f"boundary value of m0 at x={x[todo[0]]:g}: no certified root of z0(m) = x "
        f"in the upper half plane after {CHAIN_HALVINGS} chain step halvings")


def _newton(t, c, a, q, x, steps):
    """At most `steps` Newton steps on g(q) = x from q, all points together.

    Returns q, its certificate and g' at the last point evaluated.  The
    certificate holds when Newton converged, to the rounding floor of g - x
    or to a next step below NEWTON_RTOL * |q|, and -Im q of the stepped
    point exceeds the error estimate (|g - x| + floor) / |g'| before that
    last step.
    """
    for _ in range(steps + 1):
        g, g1, h = _gq(t, c, a, q)
        res = g - x
        dq = res / g1
        size = np.abs(q)
        floor = NOISE_ULPS * EPS * (np.abs(x) + size * (abs(a) + size * h))
        conv = (np.abs(res) <= floor) | (np.abs(dq) <= NEWTON_RTOL * size)
        if conv.all():
            break
        q = np.where(conv, q, q - dq)
    q = np.where(conv, q - dq, q)       # the last step of a converged point
    return q, conv & (-q.imag > (np.abs(res) + floor) / np.abs(g1)), g1


def _real_root(pop: PopulationSpec, sup: _Support, x: float) -> float:
    """q = 1/m0(x) for x in a gap of the support: the root of g(q) = x
    between the q* of the gap's two edges (through q = infinity, m = 0,
    for the outer gap), where g' < 0 and no pole lies.  Safeguarded
    Newton on the bracket."""
    t, c, a = _chart(pop)
    j = int(np.searchsorted(sup.x0, x))
    far = float(c @ t) - x            # beyond every pole, g(q) and -q + sum(c t) bracket x
    lo = sup.q0[j] if j < sup.q0.size else far
    hi = sup.q0[j - 1] if j > 0 else far
    q = 0.5 * (lo + hi)
    with np.errstate(all="ignore"):
        for _ in range(200):
            g, g1, _ = _gq(t, c, a, np.array([q]))
            res = float(g[0]) - x
            if res > 0.0:
                lo = q
            elif res < 0.0:
                hi = q
            else:
                return q
            step = res / float(g1[0])
            nxt = q - step
            if abs(step) <= 2.0 * EPS * abs(q) or hi - lo <= 2.0 * EPS * max(abs(lo), abs(hi)):
                return nxt if lo <= nxt <= hi else q
            q = nxt if lo < nxt < hi else 0.5 * (lo + hi)
    raise NonConvergence(f"real boundary value of m0 at x={x:g} did not converge")


def stieltjes_boundary(pop: PopulationSpec, x: float):
    """m0 extended to the real axis at x: the certified root in C+ inside
    the support, the real root in a gap, and m* within an edge's zone."""
    x = _defined(pop, x)
    sup = _support(pop)
    half, dist = _halves(sup, np.array([x]))
    near = int(np.argmin(np.abs(sup.x0 - x)))
    if half[0] >= 0:
        q = _solve(pop, sup, np.array([x]), half, dist)[0]
    elif abs(x - sup.x0[near]) <= sup.zone[near]:
        q = sup.q0[near]
    else:
        q = _real_root(pop, sup, x)
    with np.errstate(over="ignore"):
        m = complex(1.0 / q)
    if not np.isfinite(m):
        raise PoleProximity(f"m0 at x={x!r} overflows a double: x is within rounding "
                            "of the pole of m0 at 0")
    return m


def density_f0(pop: PopulationSpec, x: float, cross_check: bool = True) -> float:
    """Density of the spectral law at x: (1/pi) Im of the boundary m0.
    `cross_check` is accepted and ignored."""
    return float(_density(pop, np.array([_defined(pop, x)]))[0])


def _defined(pop: PopulationSpec, x) -> float:
    x = float(x)
    if not np.isfinite(x):
        raise DomainError(f"x must be finite, got {x!r}")
    if x == 0.0 and pop.rank <= pop.n_dim:
        raise UndefinedAtZero(
            f"m0 is unbounded at 0 when rank(T) = {pop.rank} <= N = {pop.n_dim}"
        )
    return x


def _density(pop: PopulationSpec, xs) -> np.ndarray:
    """f0 at every abscissa in xs: 0 outside the support and within an
    edge's zone, and one batched solve for the rest."""
    sup = _support(pop)
    half, dist = _halves(sup, xs)
    inside = np.flatnonzero(half >= 0)
    f = np.zeros(xs.size)
    q = _solve(pop, sup, xs[inside], half[inside], dist[inside])
    f[inside] = (1.0 / q).imag / np.pi
    return f


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
        if any(not b > a for a, b in zip(xs, xs[1:])):
            raise DomainError("grid abscissae must strictly increase")
        if any(f < 0 for _, f in self.points):
            raise DomainError("density values must be nonnegative")

    def quadrature_residual(self) -> float:
        xs, fs = np.array(self.points).reshape(-1, 2).T
        return abs(float(np.trapezoid(fs, xs)) + self.atom_at_zero - 1.0)


def density_grid(pop: PopulationSpec, n_points: int = 2000, pad: float = 0.05) -> DensityGrid:
    """Tabulate f0 on a uniform grid spanning the support (plus padding)."""
    if not (_is_int(n_points) and n_points >= 1):
        raise DomainError(f"n_points must be an integer of at least 1, got {n_points!r}")
    if not 0 <= pad < np.inf:
        raise DomainError(f"pad must be finite and nonnegative, got {pad!r}")
    lo, hi = _support(pop).span.tolist()
    margin = float(pad) * (hi - lo)
    if not np.isfinite((hi + margin) - (lo - margin)):
        raise DomainError(f"pad={pad!r} stretches the grid beyond the range of a double")
    xs = np.linspace(lo - margin, hi + margin, n_points)
    if pop.rank <= pop.n_dim:
        # m0 is unbounded at 0: tabulate a thousandth of a cell to its
        # right instead.
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
    if not (_is_int(points_per_interval) and points_per_interval >= 1):
        raise DomainError(f"points_per_interval must be an integer of at least 1, "
                          f"got {points_per_interval!r}")
    ivs = [(float(lo), float(hi)) for lo, hi in intervals]
    if not all(-np.inf < lo <= hi < np.inf for lo, hi in ivs):
        raise DomainError(f"intervals need finite ends with lo <= hi, got {ivs}")
    if pop.rank == pop.n_dim:
        ivs = [iv for lo, hi in ivs
               for iv in ([(lo, 0.0), (0.0, hi)] if lo < 0.0 < hi else [(lo, hi)])]
    u = (np.arange(points_per_interval) + 0.5) / points_per_interval
    lo, hi = np.array(ivs).reshape(-1, 2).T[:, :, None]
    x = lo + (hi - lo) * 0.5 * (1.0 - np.cos(np.pi * u))
    w = (hi - lo) * 0.5 * np.pi * np.sin(np.pi * u) / points_per_interval
    return float(np.sum(_density(pop, x.ravel()) * w.ravel()))
