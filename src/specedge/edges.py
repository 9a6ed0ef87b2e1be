"""Edge enumeration, classification, scaling, and regularity.

All edges of the spectral law are located as local extrema of the
inverse transform z0, searched in the coordinate q = 1/m where
g(q) = z0(1/q) has poles exactly at the negated population values and
g' is convex between consecutive poles.  Convexity certifies that every
interior pole interval carries 0 or 2 extrema and each unbounded
interval exactly one, so no edge can be missed.  An interval whose two
bounding poles alone keep g' above zero, a closed-form floor, holds no
extremum and is certified without a search.  The boundary solver in
`spectral` starts its Newton chains from the edges found here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketFailure, DegeneratePopulation, DomainError, NonConvergence, NoSuchEdge
from .population import PopulationSpec

S_RTOL = 1e-14             # Newton step, relative to the pole offset, that ends the edge search
CERT_ULPS = 16             # rounding allowance of the edge certificates, in ulps of their summands
EPS = float(np.finfo(float).eps)

# Matrix entries per row block of the q-chart kernels.
BOUNDARY_BLOCK_ENTRIES = 1 << 13


@dataclass(frozen=True)
class EdgeInfo:
    """One edge of the spectral law.

    `m_star` is math.inf for a hard edge.  `gamma` is present exactly
    for soft edges with non-degenerate curvature; a merging (degenerate)
    edge carries gamma=None and margin 0.
    """

    e_star: float
    m_star: float
    gamma: float | None
    side: str                    # "left" | "right"
    soft: bool
    regularity_margin: float

    @property
    def hard(self) -> bool:
        return not self.soft

    def to_dict(self) -> dict:
        return {
            "e_star": self.e_star,
            "m_star": "inf" if math.isinf(self.m_star) else self.m_star,
            "gamma": self.gamma,
            "side": self.side,
            "soft": self.soft,
            "margin": self.regularity_margin,
        }


@dataclass(frozen=True)
class SupportReport:
    """All edges and support intervals of one population's law."""

    intervals: tuple[tuple[float, float], ...]   # increasing, disjoint
    edges: tuple[EdgeInfo, ...]                  # sorted by E descending
    atom_at_zero: float
    isolated_zero_flag: bool

    @property
    def diameter(self) -> float:
        return self.intervals[-1][1] - self.intervals[0][0]

    def to_dict(self) -> dict:
        return {
            "edges": [e.to_dict() for e in self.edges],
            "intervals": [list(iv) for iv in self.intervals],
            "atom_at_zero": self.atom_at_zero,
            "isolated_zero_flag": self.isolated_zero_flag,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


# ---------------------------------------------------------------------------
# g(q) = z0(1/q) and its extrema (poles at -t for each nonzero value t)

def _poles(vals, mults, n):
    """Poles p = -t of g, ascending, and their weights d = c*t^2, for
    ascending distinct nonzero values `vals`."""
    return -vals[::-1], (mults * vals**2 / n)[::-1]


def _g_row(p, d, pj, s):
    """g', g'', g''' at q = pj + s, where pj is the anchor pole.

    The kernel's numpy body: scalars pj, s give one row, and columns give
    a block of rows.  The offset from the anchor pole is exact,
    q + t_i = s + (pj - p_i), so an interval narrower than an ulp of its
    poles stays resolved.  With d the reversed view `_poles` returns,
    numpy's matmul sums each row in its own loop, not in BLAS, from 0.0 in
    index order, so a row's values do not depend on the other rows of the
    call, and `_g_row_floats`, the swap tracker's form over a list of
    (pj - p, d) pairs, gives the same bits.
    """
    r = 1.0 / (s + (pj - p))
    r2 = r * r
    return r2 @ d - 1.0, -2.0 * ((r2 * r) @ d), 6.0 * ((r2 * r2) @ d)


def _div(x, y):
    """x / y on Python floats as numpy divides: x/0 = +-inf, 0/0 = nan/0 = nan."""
    if y:
        return x / y
    return math.copysign(math.inf, x) * math.copysign(1.0, y) if x and x == x else math.nan


def _g_row_floats(pairs, s):
    """One row of `_g_row` on Python floats, over `pairs` (pj - p, d), one
    per pole in the order `_poles` gives.

    Each float operation runs as in `_g_row`, in the same order, so the
    bits are the same; a point on a pole gives +-inf, as numpy does.  On a
    few poles it costs a fraction of one numpy call.
    """
    a1 = a2 = a3 = 0.0
    for o, w in pairs:
        x = s + o
        r = 1.0 / x if x else math.copysign(math.inf, x)     # `_div(1.0, x)`, inline
        r2 = r * r
        a1 += r2 * w
        a2 += r2 * r * w
        a3 += r2 * r2 * w
    return a1 - 1.0, -2.0 * a2, 6.0 * a3


def _chart(pop: PopulationSpec):
    """Nonzero values t, weights c = mult/N, and a = 1 - sum(c), the atom
    mass (negative when rank(T) > N), exact from rank counting."""
    vals, mults = pop.nonzero()
    return vals, mults / pop.n_dim, (pop.n_dim - pop.rank) / pop.n_dim


def _gq(t, c, a, q):
    """g(q) = z0(1/q), g'(q) and sum c/|q + t| at each q.

    g(q) = -q (a + q S(q)) with S = sum c/(q + t), so g keeps full relative
    precision next to q = 0 (m = infinity): at the atom's root q ~ -x/a and
    next to the hard edge alike.  The last sum sizes g's summands for its
    rounding floor.  One O(k) pass, in row blocks, so memory does not grow
    with the number of points.
    """
    g, g1, h = np.empty_like(q), np.empty_like(q), np.empty(q.shape)
    block = max(1, BOUNDARY_BLOCK_ENTRIES // max(t.size, 1))
    for lo in range(0, q.size, block):
        rows = slice(lo, lo + block)
        qb = q[rows]
        r = 1.0 / (qb[:, None] + t)
        s, s2 = r @ c, (r * r) @ c
        g[rows] = -qb * (a + qb * s)
        g1[rows] = -a - qb * (2.0 * s - qb * s2)
        h[rows] = np.abs(r) @ c
    return g, g1, h


def _g_derivs(p, d, j, s):
    """g', g'', g''' at q = p[j] + s for the rows (j, s), in row blocks.

    p are the sorted poles and d the weights c*t^2 in the same order.
    """
    out = np.empty((3, s.size))
    block = max(1, BOUNDARY_BLOCK_ENTRIES // p.size)
    for lo in range(0, s.size, block):
        rows = slice(lo, lo + block)
        out[:, rows] = _g_row(p, d, p[j[rows], None], s[rows, None])
    return out


def _step(x, g, lo, hi, order, rising, it):
    """Step `it` of the edge search for the zero of g^(order), increasing
    when `rising`, in (lo, hi), from x, where the kernel row is g.

    x replaces the bracket end on its side.  The search stops on a Newton
    step or bracket within S_RTOL |x|; else a step out of the bracket, or
    after the 40th, is the midpoint.  Returns (left, lo, hi, the next
    point, done), `left` when x became lo.
    """
    d1, d2, d3 = g
    if not 0.0 * d1 * d2 * d3 == 0.0:       # inf or nan in g makes it nan
        raise NonConvergence("edge search met a non-finite derivative of g")
    f, f1 = g[order - 1], g[order]
    left = (f < 0) == rising
    lo, hi = (x, hi) if left else (lo, x)
    step = f / f1 if f1 else _div(f, f1)
    nxt = x - step
    tol = S_RTOL * abs(x)
    if abs(step) <= tol or hi - lo <= tol:
        return left, lo, hi, nxt, True
    if not (lo < nxt < hi and it < 40):
        nxt = 0.5 * (lo + hi)
    return left, lo, hi, nxt, False


def _newton_bisect(p, d, j, lo, hi, s, order, rising, settle=None):
    """Zero of the monotone g^(order) in each row's bracket (lo, hi) of s.

    Each pass evaluates the kernel once over the rows still searching and
    moves each by `_step` on Python floats.  `settle(g, g_lo, g_hi, lo, hi)`
    may end a row at the point just evaluated, from the kernel rows there
    and at the bracket ends (NaN until evaluated).  Returns s and g', g'',
    g''' at the last point evaluated on each row.
    """
    lo, hi, s, rising = lo.tolist(), hi.tolist(), s.tolist(), rising.tolist()
    g_at, g_lo, g_hi = ([(math.nan,) * 3] * len(s) for _ in range(3))
    todo = list(range(len(s)))
    with np.errstate(divide="ignore", invalid="ignore"):     # a point on a pole
        for it in range(160):
            if not todo:
                return np.array(s), np.array(g_at).reshape(-1, 3).T
            searching = []
            g = _g_derivs(p, d, j[todo], np.array([s[i] for i in todo]))
            for i, row in zip(todo, g.T.tolist()):
                x = s[i]
                left, lo[i], hi[i], s[i], done = _step(x, row, lo[i], hi[i], order, rising[i], it)
                g_at[i] = row
                if settle:
                    (g_lo if left else g_hi)[i] = row
                    if settle(row, g_lo[i], g_hi[i], lo[i], hi[i]):
                        s[i], done = x, True
                if not done:
                    searching.append(i)
            todo = searching
    raise NonConvergence(f"edge search did not converge on {len(todo)} pole intervals")


def _newton_bisect_one(pairs, lo, hi, s, g):
    """Zero of the increasing g' in one bracket (lo, hi) of s.

    `_newton_bisect(..., order=1, rising=True)` on one row: the same
    `_step` on the rows `_g_row_floats(pairs, s)`, from s, where the row g
    is known.  Returns s and the row at the last point evaluated.
    """
    for it in range(160):
        _, lo, hi, nxt, done = _step(s, g, lo, hi, 1, True, it)
        if done:
            return nxt, g
        s, g = nxt, _g_row_floats(pairs, nxt)
    raise NonConvergence("edge search did not converge on its pole interval")


def _soft_extrema_q(p, d, flat_origin=False):
    """All zeros of g', certified per pole interval, as arrays (j, s) in
    ascending q = p[j] + s: the anchor pole and the offset from it.

    p are the poles and d their weights, as `_poles` gives them.  The
    anchor is the left pole of an interior interval, p[0] for the
    unbounded interval left of every pole and p[-1] for the one right of
    them.  As g' + 1 = sum d_i/(q - p_i)^2 sums positive terms, the poles
    bounding an interior interval (p_j, p_j + w_j) alone give
    g' >= F_j = (d_j^(1/3) + d_{j+1}^(1/3))^3 / w_j^2 - 1 there, and
    F_j > cert (less a rounding allowance) certifies 0 zeros.  The other
    intervals are searched at once in their offset s: a safeguarded Newton
    on the increasing g'' seeks the minimum of the convex g' and stops
    early once some g' < -cert (2 zeros, split there) or the crossing of
    the tangents at the bracket ends, a lower bound on g', exceeds +cert
    (0 zeros).  Raises BracketFailure when a minimum is too close to zero
    to certify 0 or 2 zeros, unless `flat_origin` says that minimum is the
    double zero g'(0) = g''(0) = 0, no extremum of g.
    """
    k = p.size
    cert = 1e-13 * max(1.0, float(np.max(np.abs(p))))

    def settle(g, g_lo, g_hi, lo, hi):
        cross = _div(g_lo[0] - g_hi[0] + g_hi[1] * (hi - lo), g_hi[1] - g_lo[1])
        bound = g_lo[0] + g_lo[1] * cross
        return g[0] < -cert or bound - cert > 1e-12 * (abs(g_lo[0]) + abs(g_hi[0]))

    w = p[1:] - p[:-1]
    ratio = (d[:-1] / d[1:]) ** (1.0 / 3.0)     # two-pole guess for the minimum
    # floor = F_j + 1.  The kernel sums g' + 1 to within about k + 6 ulps,
    # and 16(k + 2) ulps also cover the floor's rounding; NaN is searched.
    floor = d[1:] * (1.0 + ratio) ** 3 / (w * w)
    rows = np.flatnonzero(~(floor * (1.0 - 16 * (k + 2) * EPS) - 1.0 > cert))
    split, g = _newton_bisect(p, d, rows, np.zeros(rows.size), w[rows],
                              (w * ratio / (1.0 + ratio))[rows], 2,
                              np.ones(rows.size, bool), settle)
    roots = np.where(g[0] < -cert, 2, np.where(g[0] > cert, 0, -1))
    if flat_origin:
        roots[rows == np.searchsorted(p, 0.0) - 1] = 0
    unsure = np.flatnonzero(roots < 0)
    if unsure.size:
        jj = rows[unsure[0]]
        raise BracketFailure(
            f"cannot certify 0 or 2 extrema on ({p[jj]:g}, {p[jj + 1]:g}): "
            f"min g' = {g[0, unsure[0]]:.3e}"
        )
    two = roots == 2
    split, two = split[two], rows[two]

    # Root brackets: both sides of every split point, and the unbounded
    # ends, where g' >= 0 at distance sqrt(d) from the outer pole and
    # g' <= -3/4 at distance 2*sqrt(sum d).
    reach = 2.0 * np.sqrt(np.sum(d))
    j = np.concatenate([[0, k - 1], two, two])
    lo = np.concatenate([[-reach, 0.0], np.zeros(two.size), split])
    hi = np.concatenate([[0.0, reach], split, w[two]])
    s0 = np.concatenate([[-np.sqrt(d[0]), np.sqrt(d[-1])], split, split])
    rising = np.concatenate([[True, False], np.zeros(two.size, bool), np.ones(two.size, bool)])
    s, _ = _newton_bisect(p, d, j, lo, hi, s0, 1, rising)
    order = np.argsort(p[j] + s)
    return j[order], s[order]


def _margin(vals, m_star, gamma):
    """min(1/|m*|, 1/gamma, min_a |m* + 1/t_a|) over the nonzero values,
    an array or a list of floats with the same bits."""
    if isinstance(vals, list):
        pole_dist = min([abs(m_star + 1.0 / v) for v in vals])
    else:
        pole_dist = float(np.minimum.reduce(np.abs(m_star + 1.0 / vals)))
    return min(1.0 / abs(m_star), 1.0 / gamma, pole_dist)


def _soft_edge(vals, q, s, g, cubes, e_star, side=None, unit=False):
    """The soft edge at a zero q* = p[j] + s of g', read off the q chart.

    `vals` are T's nonzero values, an array or a list of floats with the
    same bits.  The rest are Python floats: g = (g', g'', g''') is the
    kernel row at q*, `cubes` = sum d|r|^3 the size of the summands of
    g'', and E* = g(q*).  Then m* = 1/q*, z0''(m*) = q*^4 g'' + 2 q*^3 g',
    gamma = sqrt(2/|z0''(m*)|), and a minimum is a right edge.

    - Vanishing certificate: |g'| <= CERT_ULPS ulps of g' + 1, which sums
      the positive terms d r^2, plus |g''| times the search's stopping
      tolerance S_RTOL |s| and the ulp of q*.  A failure raises
      BracketFailure, and so does a zero at q* = 0, where m* is infinite.
    - Degenerate label (merging edges: gamma None, margin 0): |g''| within
      CERT_ULPS ulps of its summands' size 2 sum d|r|^3, plus |g'''| times
      that tolerance, so that the curvature's sign is not certain.

    Both rules are relative, so scaling T scales every E* and keeps every
    label.  A given `side` must agree with the curvature.  Returns
    (c, edge, gamma, vals): gamma is T's edge scale (None when degenerate),
    edge is the edge of c*T, where c = 1, or with `unit` c = gamma^(2/3),
    which gives the edge unit scale, and vals are c*T's values, which the
    margin reads.  As z0 of c*T is c z0(c m), that edge follows by the
    scaling law E* -> c E*, m* -> m*/c, z0'' -> c^3 z0''.
    """
    d1, d2, d3 = g
    located = S_RTOL * abs(s) + EPS * abs(q)
    cert = CERT_ULPS * EPS * (1.0 + d1) + abs(d2) * located
    if abs(d1) > cert:
        raise BracketFailure(f"g'(q*) = {d1:.3e} fails the vanishing certificate "
                             f"|g'(q*)| <= {cert:.3e}")
    if q == 0.0:
        raise BracketFailure("zero of g' at q* = 0, where m* = 1/q* is infinite")
    m_star = 1.0 / q
    if abs(d2) <= CERT_ULPS * EPS * 2.0 * cubes + abs(d3) * located:
        return 1.0, EdgeInfo(e_star, m_star, None, side, True, 0.0), None, vals
    q2 = q * q
    z2 = q2 * q2 * d2 + 2.0 * q2 * q * d1
    curv_side = "right" if z2 > 0 else "left"
    if side is not None and side != curv_side:
        raise BracketFailure(f"classification mismatch at E={e_star:g}: curvature says "
                             f"{curv_side}, geometry says {side}")
    gamma = scaled_gamma = math.sqrt(2.0 / abs(z2))
    c = 1.0
    if unit:
        c = gamma ** (2.0 / 3.0)
        e_star, m_star = e_star * c, m_star / c
        vals = [v * c for v in vals] if isinstance(vals, list) else vals * c
        scaled_gamma = math.sqrt(2.0 / abs(z2 * c ** 3))
    margin = _margin(vals, m_star, scaled_gamma)
    return c, EdgeInfo(e_star, m_star, scaled_gamma, curv_side, True, margin), gamma, vals


def _abs_cubes(p, d, j, s):
    """sum d|r|^3, r = 1/(q - p), at q = p[j] + s for the rows (j, s), in
    row blocks: the size of the summands of g''."""
    block = max(1, BOUNDARY_BLOCK_ENTRIES // p.size)
    return np.concatenate([
        np.abs(1.0 / (s[lo:lo + block, None] + (p[j[lo:lo + block], None] - p))) ** 3 @ d
        for lo in range(0, s.size, block)])


def atom_mass_at_zero(pop: PopulationSpec) -> float:
    """Point mass at 0 by rank counting: max(0, 1 - rank(T)/N)."""
    return max(0.0, 1.0 - pop.rank / pop.n_dim)


def isolated_zero_in_support(pop: PopulationSpec) -> bool:
    """True when 0 is an isolated point of the support (the atom case).

    Equivalent to the inverse map decreasing through the origin in
    q-coordinates, which happens exactly when rank(T) < N.
    """
    return pop.rank < pop.n_dim


def find_edges(pop: PopulationSpec) -> SupportReport:
    """Enumerate, classify, and scale every edge of the spectral law.

    Each edge is a zero q* = p[j] + s of g' that `_soft_extrema_q` gives
    as its anchor pole and offset.  A soft edge is read off the q chart
    there by `_soft_edge`, from one kernel row (g', g'', g''') at q* and
    E* = g(q*) from the atom form `_gq`.
    """
    vals, mults = pop.nonzero()
    if vals.size == 0:
        raise DegeneratePopulation("all diagonal values are zero")
    n = pop.n_dim

    # rank(T) = N makes g'(0) = rank/N - 1 vanish: q = 0 is a zero of g',
    # the hard edge at E = 0 (m = infinity).  When g''(0) = -2*sum(c/t)/N
    # vanishes too, that zero is double (g' >= 0 around it): no edge, and
    # the support runs through 0.
    full_rank = pop.rank == n
    flat_origin = full_rank and math.fsum(mults / vals) == 0.0
    p, d = _poles(vals, mults, n)
    j, s = _soft_extrema_q(p, d, flat_origin)
    q = p[j] + s
    if q.size % 2 != 0:
        raise BracketFailure(f"odd edge count {q.size}; extremum search inconsistent")
    soft = np.ones(q.size, bool)
    if full_rank and not flat_origin:
        # g''(0) != 0, so exactly one zero is q = 0: the one nearest 0.
        hard = int(np.argmin(np.abs(q)))
        if np.searchsorted(p, q[hard]) != np.searchsorted(p, 0.0):
            raise BracketFailure("rank(T) = N but the search left no extremum of g in the "
                                 "pole interval that holds q = 0")
        soft[hard] = False
    j, s, q_soft = j[soft], s[soft], q[soft]
    e_star = np.zeros(q.size)
    e_star[soft] = _gq(*_chart(pop), q_soft)[0]
    # q ascending must give E descending (the edge-ordering law).
    if not (e_star[:-1] > e_star[1:]).all():
        raise BracketFailure(f"edge ordering violated or duplicate edges: {e_star.tolist()}")

    with np.errstate(divide="ignore", invalid="ignore"):     # a point on a pole
        rows, cubes = _g_derivs(p, d, j, s).T.tolist(), _abs_cubes(p, d, j, s).tolist()
    soft_edges = zip(q_soft.tolist(), s.tolist(), rows, cubes, e_star[soft].tolist())

    # Sides alternate from the rightmost edge, a right one.
    infos = []
    for pos, is_soft in enumerate(soft.tolist()):
        side = "left" if pos % 2 else "right"
        if is_soft:
            infos.append(_soft_edge(vals, *next(soft_edges), side)[1])
        else:
            infos.append(EdgeInfo(0.0, math.inf, None, side, False, 0.0))
    asc = e_star[::-1].tolist()

    return SupportReport(
        intervals=tuple(zip(asc[::2], asc[1::2])),
        edges=tuple(infos),
        atom_at_zero=atom_mass_at_zero(pop),
        isolated_zero_flag=isolated_zero_in_support(pop),
    )


def edge_for_m_sign(report: SupportReport, want: str) -> EdgeInfo:
    """Select an edge: 'rightmost', 'leftmost', or the test-procedure
    selector 'm_closest_to_zero_negative' (soft edge, m* < 0, |m*| minimal).
    """
    if not report.edges:
        raise NoSuchEdge("report has no edges")
    if want == "rightmost":
        return report.edges[0]
    if want == "leftmost":
        return report.edges[-1]
    if want == "m_closest_to_zero_negative":
        cands = [e for e in report.edges if e.soft and e.m_star < 0]
        if not cands:
            raise NoSuchEdge("no soft edge with negative m-value exists")
        return min(cands, key=lambda e: abs(e.m_star))
    raise NoSuchEdge(f"unknown selector {want!r}")


def check_regularity(pop: PopulationSpec, edge: EdgeInfo, tau: float) -> bool:
    """Regularity gate: |m*| < 1/tau, gamma < 1/tau, poles tau-separated,
    read off the margin `_soft_edge` stored on the edge (0 for a hard or
    degenerate edge, which never passes)."""
    if not 0 < tau < 1:
        raise DomainError(f"tau must lie in (0,1), got {tau}")
    if pop.rank == 0:
        raise DegeneratePopulation("all diagonal values are zero")
    return tau < edge.regularity_margin

