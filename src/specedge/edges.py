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
from .spectral import (
    BOUNDARY_BLOCK_ENTRIES, _z0, atom_mass_at_zero, isolated_zero_in_support,
)

S_RTOL = 1e-14             # Newton step, relative to the pole offset, that ends the edge search
CERT_ULPS = 16             # rounding allowance of the |z0'(m*)| certificate, in ulps of its summands
DEGENERATE_CURVATURE = 1e-8
HARD_Q_TOL = 1e-11         # |q| below this (times scale) is the m=infinity chart
EPS = np.finfo(float).eps


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
    hard_m_label: str | None = None  # min/max label of the m=inf extremum

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

def _g(vals, mults, n, q):
    q = np.asarray(q, dtype=float)
    terms = mults * (vals - vals**2 / (np.add.outer(q, vals)))
    return -q + np.sum(terms, axis=-1) / n


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
    call, and `_g_row_floats` gives the same bits.
    """
    r = 1.0 / (s + (pj - p))
    r2 = r * r
    return r2 @ d - 1.0, -2.0 * ((r2 * r) @ d), 6.0 * ((r2 * r2) @ d)


def _inv(x):
    """1/x on Python floats as numpy divides: +-inf at +-0."""
    return 1.0 / x if x else math.copysign(math.inf, x)


def _g_row_floats(offsets, weights, s):
    """One row of `_g_row` on Python floats, with `offsets` pj - p and
    `weights` d as lists in the order `_poles` gives.

    Each float operation runs as in `_g_row`, in the same order, so the
    bits are the same; a point on a pole gives +-inf, as numpy does.  On a
    few poles it costs a fraction of one numpy call.
    """
    a1 = a2 = a3 = 0.0
    for o, w in zip(offsets, weights):
        r = _inv(s + o)
        r2 = r * r
        a1 += r2 * w
        a2 += r2 * r * w
        a3 += r2 * r2 * w
    return a1 - 1.0, -2.0 * a2, 6.0 * a3


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


def _newton_bisect(p, d, j, lo, hi, s, order, rising, settle=None):
    """Zero of the monotone g^(order) in each row's bracket (lo, hi) of s.

    Newton steps that leave the bracket become bisections, and after 40
    steps every step bisects, so each row ends within 120 more.  A row may
    be finished early by `settle(g, g_lo, g_hi, lo, hi)` at the point just
    evaluated.  Updates lo, hi and s in place; returns s and g', g'', g'''
    at the last point evaluated on each row.
    """
    g_at = np.empty((3, s.size))
    if settle:
        g_lo, g_hi = np.full((3, s.size), np.nan), np.full((3, s.size), np.nan)
    todo = np.arange(s.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(160):
            if todo.size == 0:
                return s, g_at
            x = s[todo]
            g = _g_derivs(p, d, j[todo], x)
            if not np.isfinite(g).all():
                raise NonConvergence("edge search met a non-finite derivative of g")
            g_at[:, todo] = g
            left = (g[order - 1] < 0) == rising[todo]      # x lies left of the zero
            lo[todo[left]], hi[todo[~left]] = x[left], x[~left]
            a, b = lo[todo], hi[todo]
            step = g[order - 1] / g[order]
            nxt = x - step
            tol = S_RTOL * np.abs(x)
            done = (np.abs(step) <= tol) | (b - a <= tol)
            bisect = ~done & (~((nxt > a) & (nxt < b)) | (it >= 40))
            nxt[bisect] = 0.5 * (a[bisect] + b[bisect])
            early = False
            if settle:
                g_lo[:, todo[left]], g_hi[:, todo[~left]] = g[:, left], g[:, ~left]
                early = settle(g, g_lo[:, todo], g_hi[:, todo], a, b)
            s[todo] = np.where(early, x, nxt)
            todo = todo[~(done | early)]
    raise NonConvergence(f"edge search did not converge on {todo.size} pole intervals")


def _newton_bisect_one(row, lo, hi, s, g):
    """Zero of the increasing g' in one bracket (lo, hi) of s.

    The one-row form of `_newton_bisect(..., order=1, rising=True)`, with
    the same steps and floats under Python-float control flow.  `row(s)`
    gives g', g'', g''' at offset s from the anchor pole as Python floats;
    the tracker passes `_g_row_floats`, which has the bits of `_g_row`.  It
    starts at s, where the triple g is already known, and evaluates the
    row only at new points.  Returns s and the triple at the last point
    evaluated.
    """
    lo, hi, s = float(lo), float(hi), float(s)
    d1, d2, d3 = map(float, g)
    for it in range(160):
        if it:
            d1, d2, d3 = row(s)
        if not (math.isfinite(d1) and math.isfinite(d2) and math.isfinite(d3)):
            raise NonConvergence("edge search met a non-finite derivative of g")
        if d1 < 0:
            lo = s
        else:
            hi = s
        if d2:
            step = d1 / d2
        else:       # as numpy divides: x/0 = +-inf, 0/0 = nan
            step = math.copysign(math.inf, d1) * math.copysign(1.0, d2) if d1 else math.nan
        nxt = s - step
        tol = S_RTOL * abs(s)
        if abs(step) <= tol or hi - lo <= tol:
            return nxt, (d1, d2, d3)
        s = nxt if lo < nxt < hi and it < 40 else 0.5 * (lo + hi)
    raise NonConvergence("edge search did not converge on its pole interval")


def _soft_extrema_q(vals, mults, n, flat_origin=False):
    """All extremum locations of g in q, certified per pole interval.

    `vals` ascend, as PopulationSpec.nonzero gives them.  Returns the q
    values where g'(q) = 0.  As g' + 1 = sum d_i/(q - p_i)^2 sums positive
    terms, the poles bounding an interior interval (p_j, p_j + w_j) alone
    give g' >= F_j = (d_j^(1/3) + d_{j+1}^(1/3))^3 / w_j^2 - 1 there, and
    F_j > cert (less a rounding allowance) certifies 0 extrema.  The other
    intervals are searched at once in their offset s = q - p_j: a
    safeguarded Newton on the increasing g'' seeks the minimum of the
    convex g' and stops early once some g' < -cert (2 roots, split there)
    or the crossing of the tangents at the bracket ends, a lower bound on
    g', exceeds +cert (0 roots).  Raises BracketFailure when a minimum is
    too close to zero to certify 0 or 2 roots, unless `flat_origin` says
    that minimum is the double zero g'(0) = g''(0) = 0, no extremum of g.
    """
    p, d = _poles(vals, mults, n)
    k = p.size
    scale = max(1.0, np.max(np.abs(p)))
    cert = 1e-13 * scale

    def settle(g, g_lo, g_hi, lo, hi):
        cross = (g_lo[0] - g_hi[0] + g_hi[1] * (hi - lo)) / (g_hi[1] - g_lo[1])
        bound = g_lo[0] + g_lo[1] * cross
        slack = 1e-12 * (np.abs(g_lo[0]) + np.abs(g_hi[0]))
        return (g[0] < -cert) | (bound - cert > slack)

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
    return sorted((p[j] + s).tolist()), scale


def _deriv_cert(vals, mults, n, m, d2):
    """Largest |z0'(m)| that certifies m as a root of z0' located by
    `_soft_extrema_q`, given d2 = z0''(m).  Two allowances add up:

    - rounding: CERT_ULPS ulps of 1/m^2 plus the summands
      c t^2/(1 + tm)^2 / N of z0'(m) as `_z0` sums them, each grown by
      1 + 2|tm/(1 + tm)|, the relative error that rounding 1 + tm passes
      on to its square;
    - location: the search stops within S_RTOL of the offset of q = 1/m
      from the pole `_soft_extrema_q` anchors its interval on (the left
      pole, or p[0] for the unbounded interval left of every pole), and
      q rounds by an ulp; z0' moves by |z0''(m)| m^2 per unit of q.

    Both scale with T and with m; an absolute bound fails where 1/m^2
    alone is large and passes anything where it is small.
    """
    q = 1.0 / m
    tm = m[..., None] * vals
    r = 1.0 + tm
    terms = mults * vals**2 / r**2 * (1.0 + 2.0 * np.abs(tm / r))
    rounding = CERT_ULPS * EPS * (1.0 / m**2 + np.add.reduce(terms, axis=-1) / n)
    p = -vals[::-1]
    anchor = p[np.clip(np.searchsorted(p, q) - 1, 0, p.size - 1)]
    return rounding + np.abs(d2) * m * m * (S_RTOL * np.abs(q - anchor) + EPS * np.abs(q))


def _margin(vals, m_star, gamma):
    """min(1/|m*|, 1/gamma, min_a |m* + 1/t_a|) over the nonzero values."""
    pole_dist = float(np.minimum.reduce(np.abs(m_star + 1.0 / vals)))
    return min(1.0 / abs(m_star), 1.0 / gamma, pole_dist)


def regularity_margin(pop: PopulationSpec, m_star: float, gamma: float | None) -> float:
    """min(1/|m*|, 1/gamma, min_a |m* + 1/t_a|); 0 for hard/degenerate."""
    if math.isinf(m_star) or gamma is None:
        return 0.0
    vals = pop.nonzero()[0]
    if vals.size == 0:
        raise DegeneratePopulation("all diagonal values are zero")
    return _margin(vals, m_star, gamma)


def _soft_edge(vals, mults, n, m_star, e_star=None, side=None, d2=None) -> EdgeInfo:
    """EdgeInfo of the extremum of z0 at m_star.

    The curvature d2 = z0''(m*) gives gamma = sqrt(2/|z0''|) and the side
    (a minimum is a right edge); below DEGENERATE_CURVATURE the edges merge
    and gamma is None with margin 0.  `e_star` and `d2` are given together
    or not at all, and default to z0(m*) and z0''(m*) from one `_z0` pass.
    A given `side` must agree with a non-degenerate curvature and is kept
    for a degenerate one.
    """
    if d2 is None:
        d2, e_star = map(float, _z0(vals, mults, n, m_star, (2, 0)))
    curv_side = "right" if d2 > 0 else "left"
    if abs(d2) < DEGENERATE_CURVATURE:
        return EdgeInfo(e_star, m_star, None, side or curv_side, True, 0.0)
    if side is not None and side != curv_side:
        raise BracketFailure(f"classification mismatch at E={e_star:g}: curvature says "
                             f"{curv_side}, geometry says {side}")
    gamma = math.sqrt(2.0 / abs(d2))
    return EdgeInfo(e_star, m_star, gamma, curv_side, True, _margin(vals, m_star, gamma))


def find_edges(pop: PopulationSpec) -> SupportReport:
    """Enumerate, classify, and scale every edge of the spectral law."""
    vals, mults = pop.nonzero()
    if vals.size == 0:
        raise DegeneratePopulation("all diagonal values are zero")
    n = pop.n_dim
    r = pop.rank

    # rank(T) = N makes q = 0 a zero of g', the hard edge at E = 0.  When
    # g''(0) = -2*sum(c/t)/N vanishes too, that zero is double (g' >= 0
    # around it): no edge, and the support runs through 0.
    flat_origin = r == n and math.fsum(mults / vals) == 0.0
    q_roots, scale = _soft_extrema_q(vals, mults, n, flat_origin)

    records = []  # (E, q, is_hard)
    for q in q_roots:
        if r == n and abs(q) <= HARD_Q_TOL * scale:
            # The zero of g' at the origin is the m=infinity chart: a hard
            # edge at E=0 (exists exactly when rank(T) = N).
            records.append((0.0, 0.0, True))
        else:
            records.append((float(_g(vals, mults, n, q)), q, False))
    if r == n and not flat_origin and not any(h for _, _, h in records):
        raise BracketFailure("rank(T) = N but the hard-edge extremum at q=0 was not found")

    if len(records) % 2 != 0:
        raise BracketFailure(f"odd edge count {len(records)}; extremum search inconsistent")

    # q ascending must give E descending (the edge-ordering law).
    records.sort(key=lambda rec: rec[1])
    e_vals = [rec[0] for rec in records]
    if any(e_vals[i] <= e_vals[i + 1] for i in range(len(e_vals) - 1)):
        raise BracketFailure(f"edge ordering violated or duplicate edges: {e_vals}")

    # Pair intervals from the sorted-ascending edge list; sides follow.
    asc = records[::-1]
    intervals = []
    infos = []
    # z0'(m*), z0''(m*) and the certificate's bound on |z0'(m*)| at all soft edges.
    m_soft = 1.0 / np.array([q for _, q, hard in asc if not hard])
    z1, z2 = _z0(vals, mults, n, m_soft, (1, 2))
    soft = zip(m_soft.tolist(), z1.tolist(), z2.tolist(),
               _deriv_cert(vals, mults, n, m_soft, z2).tolist())
    for pos, (e, q, hard) in enumerate(asc):
        geo_side = "left" if pos % 2 == 0 else "right"
        if hard:
            # m-space label from the curvature of g at the origin.
            curv = -2.0 * float(np.sum(mults / vals)) / n   # g''(0)
            m_label = "right" if curv > 0 else "left"
            infos.append(EdgeInfo(0.0, math.inf, None, geo_side, False, 0.0, m_label))
        else:
            m_star, d1, d2, cert = next(soft)
            if abs(d1) > cert:
                raise BracketFailure(f"z0'(m*) = {d1:.3e} fails the vanishing certificate "
                                     f"|z0'(m*)| <= {cert:.3e}")
            infos.append(_soft_edge(vals, mults, n, m_star, float(e), geo_side, d2))
    for i in range(0, len(asc), 2):
        intervals.append((asc[i][0], asc[i + 1][0]))

    return SupportReport(
        intervals=tuple(intervals),
        edges=tuple(sorted(infos, key=lambda e: -e.e_star)),
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
    """Regularity gate: |m*| < 1/tau, gamma < 1/tau, poles tau-separated."""
    if not 0 < tau < 1:
        raise DomainError(f"tau must lie in (0,1), got {tau}")
    if edge.hard or edge.gamma is None:
        return False
    return tau < regularity_margin(pop, edge.m_star, edge.gamma)


def balanced_sufficiency(pop: PopulationSpec, c: float) -> bool:
    """Sufficient condition for a regular rightmost edge: the largest
    value is at least c with multiplicity at least c*M."""
    if c <= 0:
        raise DomainError("c must be positive")
    t_max, mult_max = max(pop.entries, key=lambda e: e[0])
    ok = t_max >= c and mult_max >= c * pop.total_mult
    if ok:
        # Cross-check: the guaranteed edge must have a positive margin.
        edge = find_edges(pop).edges[0]
        if not (edge.soft and edge.regularity_margin > 0):
            raise BracketFailure(
                "balanced sufficiency held but the rightmost edge has no margin"
            )
    return ok
