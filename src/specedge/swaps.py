"""Lindeberg interpolating sequences for a tracked regular right edge.

Starting from any population with a regular right edge (rescaled so the
edge scale is 1), single-entry swaps move the diagonal values to a
terminal two-valued population {0, t} while the tracked edge drifts by
O(1/N) per step.  Two branches, chosen by the sign of the edge's
m-value:

  m* < 0: reflect every pole lying right of m* about m*, all entries of
          one pole to one value, then raise all positive entries to the
          maximum.
  m* > 0: seed a small constant fraction of entries at the pole-adjacent
          negative value t, zero the entries above t, then those below.

Every state is rescaled back to unit edge scale, so consecutive states
satisfy the swappability bounds and the sum-rule identities.  A state
stores only its step's delta and its digest prefix, hashed as the
builder makes it; a step updates the grouped (value, mult) counts, as
Python float lists, in O(k); full vectors are rebuilt by replay on
demand.  A consecutive pair differs by one entry plus a uniform
scale, so its bound and sum-rule sums run over the step's groups: one
numpy pass measures them for a chunk of steps, and the pair check reads
them back.

A step picks its entry from the grouped values and looks up only its
index, the first entry holding the value, in the length-M vector; a
reflected pole looks up all its entries' indices once.  It tracks the
edge in the chart q = 1/m on the grouped poles, one kernel row at a time
over one list of pole pairs that the step builds: g' at q*, then at the
sign-rule bracket's widths on the side it points to until g' flips, and
the one-row Newton-bisection (`edges._newton_bisect_one`, on the edge
search's step rule `edges._step`) solves from q*.  The rows run on Python
floats (`edges._g_row_floats`), with the bits of the numpy kernel
`edges._g_row`.  At the root, one float pass over the pairs gives the
last row, E*, the size of the summands of g'' and the pole test for
`_soft_edge`, the read-off `find_edges` uses; the state at unit edge
scale follows by the scaling law, and the values its margin scales are
the next groups.
"""

from __future__ import annotations

import hashlib
import json
import math
from array import array
from bisect import bisect_left, bisect_right
from operator import lt
from typing import NamedTuple

import numpy as np

from .edges import EdgeInfo, _div, _g_row_floats, _newton_bisect_one, _soft_edge
from .errors import DomainError, NotSwappable, RegularityLost, SwapRejected
from .population import PopulationSpec, from_values

DEFAULT_PHI = 10.0
TAU_FLOOR = 0.01           # least regularity margin of a tracked edge; pole exclusion
DEFAULT_C0 = 0.05
UNIT_GAMMA_TOL = 1e-8
_SUM_CHUNK = 128           # steps per pair-sum pass in a build; bounds its arrays

# The tracking bracket's widths in units of phi/N: six exact doublings
# from 1/8 above m*, or below, on the side the sign rule picks.
_RISE = [2.0 ** i / 8.0 for i in range(6)]
_FALL = [-w for w in _RISE]


class _Tape:
    """A sequence's first vector, each later step's (index, new_t, c), the
    sums of each consecutive pair and each state's digest prefix.

    Step s is rebuilt from step s - 1 as `v *= c; v[index] = new_t * c`,
    the arithmetic the builder runs, so every replayed vector is
    bit-identical to the one built.  One working vector walks forward in
    place and restarts from `start` only to step back, so a walk in order,
    singly or in consecutive pairs, costs O(M) per state and allocates
    nothing.  `sums[5 * s:5 * s + 5]` are the `_pair_sums` of states s and
    s + 1, which the builder measures in chunks, and `digests[8 * s:8 * s + 8]`
    the sha256 prefix of state s's vector, hashed once as the state is made.
    """

    def __init__(self, start):
        self.start = np.array(start)       # the tape's own contiguous copy
        self.deltas = []
        self.sums = array("d")
        self.digests = bytearray()
        self._work, self._at = None, 0

    def vector(self, pos):
        """The vector of state pos in the working buffer: not to be
        changed, and valid until the next call."""
        if self._work is None or pos < self._at:
            self._work, self._at = self.start.copy(), 0
        work = self._work
        for idx, new_t, c in self.deltas[self._at:pos]:
            work *= c
            work[idx] = new_t * c
        self._at = pos
        return work


class SwapState:
    """One element of the interpolating sequence, at unit edge scale.

    A state of a built sequence stores only its step's delta: the swapped
    index, its new value `new_t` and the rescale factor `scale` applied
    to the whole vector, on a tape the sequence shares with the digest
    prefixes of its vectors.  `values` rebuilds the length-M diagonal,
    aligned across states, as a fresh array.  A state constructed
    directly holds a copy of its full vector and hashes it once, as the
    builder hashes each state it makes.
    """

    __slots__ = ("n_dim", "edge", "step", "swapped_index", "phase", "gamma_drift",
                 "new_t", "scale", "_tape", "_pos")

    def __init__(self, values, n_dim, edge, step, swapped_index, phase, gamma_drift):
        self.n_dim, self.edge, self.step = n_dim, edge, step
        self.swapped_index, self.phase, self.gamma_drift = swapped_index, phase, gamma_drift
        self.new_t, self.scale = None, 1.0
        self._tape, self._pos = _Tape(values), 0
        self._tape.digests += hashlib.sha256(self._tape.start).digest()[:8]

    def _after(self, idx, new_t, c, edge, phase, gamma_drift) -> "SwapState":
        """The state one swap after this one, the last on its tape; the
        builder adds the pair's sums to the tape later."""
        nxt = SwapState.__new__(SwapState)
        nxt.n_dim, nxt.edge, nxt.step = self.n_dim, edge, self.step + 1
        nxt.swapped_index, nxt.phase, nxt.gamma_drift = idx, phase, gamma_drift
        nxt.new_t, nxt.scale = new_t, c
        self._tape.deltas.append((idx, new_t, c))
        nxt._tape, nxt._pos = self._tape, len(self._tape.deltas)
        return nxt

    @property
    def values(self) -> np.ndarray:
        return self._tape.vector(self._pos).copy()

    @property
    def pop(self) -> PopulationSpec:
        return from_values(self.values, self.n_dim)

    def digest(self) -> str:
        """The sha256 of the state's vector in 16 hex digits, as stored on
        the tape when the state was made."""
        return self._tape.digests[8 * self._pos:8 * self._pos + 8].hex()

    def to_record(self) -> dict:
        return {
            "step": self.step,
            "phase": self.phase,
            "swapped_index": self.swapped_index,
            "entries_digest": self.digest(),
            "e_star": self.edge.e_star,
            "m_star": self.edge.m_star,
            "gamma": self.edge.gamma,
            "margin": self.edge.regularity_margin,
            "gamma_drift": self.gamma_drift,
        }


class SwapDiagnostics(NamedTuple):
    """Per-pair swappability measurements and sum-rule residuals."""

    a4: float
    l1_t_diff: float
    m_diff: float
    e_diff: float
    gamma_diff: float
    sum_rule_1_residual: float
    sum_rule_2_residual: float
    edge_identity_residual: float


# ---------------------------------------------------------------------------
# public operations

def reflected_right_edge(pop: PopulationSpec, edge: EdgeInfo):
    """Map a soft left edge to the right edge of the reflected population.

    Swap sequences track right edges only; a left edge at E with m-value m
    corresponds, after T -> -T, to a right edge at -E with m-value -m.
    """
    if edge.side != "left" or not edge.soft:
        raise SwapRejected("reflection helper expects a soft left edge")
    refl = pop.reflected()
    info = _track(*_groups(refl), 0.0, 0.0, pop.n_dim, -edge.m_star, DEFAULT_PHI)[1]
    if info.side != "right":
        raise SwapRejected("reflected extremum is not a local minimum")
    return refl, info


def _groups(pop):
    """A population's distinct nonzero values and their counts, as float lists."""
    return [a.tolist() for a in pop.nonzero()]


def _moved(vals, mults, t_old, new_t):
    """Grouped nonzero values after one entry t_old -> new_t, as new lists.

    `vals` ascend and are distinct, as np.unique gives them; an entry
    moves between groups of exactly equal floats.
    """
    vals, mults = vals[:], mults[:]
    if t_old != 0.0:
        i = bisect_left(vals, t_old)
        mults[i] -= 1.0
        if mults[i] == 0.0:
            del vals[i], mults[i]
    if new_t != 0.0:
        i = bisect_left(vals, new_t)
        if i < len(vals) and vals[i] == new_t:
            mults[i] += 1.0
        else:
            vals.insert(i, new_t)
            mults.insert(i, 1.0)
    return vals, mults


def _merged(vals, mults):
    """Groups whose values were scaled, merging neighbours rounded together."""
    if all(map(lt, vals, vals[1:])):
        return vals, mults
    out, counts = [], []
    for v, k in zip(vals, mults):
        if out and out[-1] == v:
            counts[-1] += k
        else:
            out.append(v)
            counts.append(k)
    return out, counts


def _sign(x):
    """np.sign on a Python float: a nan stays nan, unequal to every sign."""
    return math.nan if x != x else (x > 0) - (x < 0)


def _root_pass(pairs, vals, mults, n, s, lo, hi):
    """One pass at the root offset s: the row `_g_row_floats(pairs, s)`,
    S = sum c/(q* + t), the size sum d|r|^3 of the summands of g'', and
    whether a pole -1/t of z0 lies in [lo, hi], each sum in its own order."""
    a1 = a2 = a3 = total = cubes = 0.0
    crossed = False
    for (o, w), v, k in zip(pairs, reversed(vals), reversed(mults)):
        x = s + o
        r = 1.0 / x if x else math.copysign(math.inf, x)
        r2 = r * r
        r3w = r2 * r * w
        a1 += r2 * w
        a2 += r3w
        a3 += r2 * r2 * w
        total += k / n * r
        cubes += abs(r3w)       # w |r^3|, as w >= 0
        crossed = crossed or lo <= -1.0 / v <= hi
    return (a1 - 1.0, -2.0 * a2, 6.0 * a3), total, cubes, crossed


def _track(vals, mults, t_old, new_t, n, m_star, phi, unit=False):
    """Locate the edge next to m_star after one entry t_old -> new_t.

    `vals, mults` are the grouped nonzero values before the swap.  Follows
    the sign rule: the new extremum lies on the side of m_star opposite to
    the sign of the new z0' there, within phi/N, with no pole of either
    transform in between.  The rising zero of g' is solved in the q = 1/m
    chart on the new grouped poles, in offsets from the pole interval that
    holds q* = 1/m_star, and must be a minimum of z0, a right edge.  When
    t_old = new_t nothing moves, and the edge stays at m_star, of either
    side.  A reflection about m_star, new_t = -1/(2 m_star + 1/t_old), keeps
    t^2/(1 + t m_star)^2, so in exact arithmetic z0'(m_star) = 0 and m_star
    stay; only rounding moves m_star.  The edge is read off by `_soft_edge`;
    a degenerate one rejects the swap.  Returns (c, edge, gamma) as
    `_soft_edge` gives them and the grouped nonzero values of c times the
    new population, two float lists merged from the values the margin read.
    It runs on Python floats, every kernel row over one list of pole pairs.
    """
    moved = new_t != t_old
    if moved:
        norm = max(abs(vals[0]), abs(vals[-1])) if vals else 0.0
        if abs(new_t) > norm * (1 + 1e-12):
            raise SwapRejected(f"replacement value {new_t:g} exceeds the operator norm")
        if new_t != 0.0 and abs(m_star + 1.0 / new_t) <= TAU_FLOOR:
            raise SwapRejected(
                f"replacement pole {-1.0 / new_t:g} is within tau={TAU_FLOOR:g} of m*"
            )
    vals, mults = _moved(vals, mults, t_old, new_t)
    if not vals:
        raise SwapRejected("the swap leaves no nonzero value")
    # The left pole pj of the interval of g holding q* = 1/m_star, and for
    # each pole p = -t the offset pj - p and the weight d, in the order of
    # `edges._poles`: every row of the step reads this one list.
    pj, budget = -vals[min(bisect_right(vals, -1.0 / m_star), len(vals) - 1)], phi / n
    pairs = [(pj + v, k * (v * v) / n) for v, k in zip(reversed(vals), reversed(mults))]
    s = _div(1.0, m_star) - pj
    g = _g_row_floats(pairs, s)
    sign = _sign(g[0])
    if moved and sign != 0:
        # z0'(m) = -q^2 g'(q): the extremum lies toward sign(g'(q*)) in m,
        # at the first doubling width where g' flips.
        for width in _RISE if sign > 0 else _FALL:
            s_b = _div(1.0, m_star + budget * width) - pj
            if _sign(_g_row_floats(pairs, s_b)[0]) != sign:
                break
        else:
            raise SwapRejected(
                f"sign-rule bracket failed within {4 * budget:g} of m* = {m_star:g}"
            )
        s = _newton_bisect_one(pairs, min(s, s_b), max(s, s_b), s, g)[0]
    q = pj + s
    m_new = _div(1.0, q)

    if abs(m_new - m_star) > budget:
        raise SwapRejected(
            f"tracked edge moved {abs(m_new - m_star):.3e} > phi/N = {budget:.3e}"
        )
    lo, hi = min(m_star, m_new), max(m_star, m_new)
    g, total, cubes, crossed = _root_pass(pairs, vals, mults, n, s, lo, hi)
    # m = 0 is a pole of z0 too, and no bracket in q = 1/m spans it.
    if crossed or lo <= 0.0 <= hi or (t_old != 0.0 and lo <= -1.0 / t_old <= hi):
        raise SwapRejected("a pole crossed the tracking interval")
    # E* = g(q*) = -q*(a + q* S), in the atom form of `edges._gq`.
    e_star = -q * ((n - sum(mults)) / n + q * total)
    c, edge, gamma, vals = _soft_edge(vals, q, s, g, cubes, e_star, unit=unit)
    if gamma is None:
        raise SwapRejected(f"degenerate extremum at m={m_new:g}: vanishing curvature")
    if moved and edge.side != "right":
        raise SwapRejected("tracked extremum is not a local minimum after the swap")
    if unit and abs(edge.gamma - 1.0) > UNIT_GAMMA_TOL:
        raise SwapRejected(f"rescale failed to reach unit edge scale: gamma = {edge.gamma!r}")
    return c, edge, gamma, _merged(vals, mults)


def build_swap_sequence(
    pop: PopulationSpec,
    edge: EdgeInfo,
    c0: float = DEFAULT_C0,
    phi: float = DEFAULT_PHI,
) -> list[SwapState]:
    """Construct the full interpolating sequence for a regular right edge.

    c0 is the fraction of the entries seeded with the pole-adjacent value
    on the positive-m branch; a tracked edge whose margin falls below
    TAU_FLOOR raises `RegularityLost`.
    """
    if not (math.isfinite(phi) and phi > 0):
        raise DomainError(f"phi must be finite and positive, got {phi!r}")
    if not 0 < c0 <= 1:
        raise DomainError(f"c0 must lie in (0, 1], got {c0!r}")
    if not edge.soft or edge.gamma is None:
        raise SwapRejected("swap sequences require a soft edge")
    if edge.side != "right":
        raise SwapRejected("swap sequences track right edges; reflect the population first")
    n = pop.n_dim
    c, info, gamma, groups = _track(*_groups(pop), 0.0, 0.0, n, edge.m_star, phi, True)
    start, m = pop.expand() * c, info.m_star
    if info.side != "right":
        raise SwapRejected("the tracked extremum is not a local minimum")
    if info.regularity_margin < TAU_FLOOR:
        raise RegularityLost(
            f"initial margin {info.regularity_margin:g} below the floor {TAU_FLOOR:g}"
        )
    states = [SwapState(start, n, info, 0, None, "done", abs(gamma - 1.0))]
    tape = states[0]._tape
    # The working vector of the last state, for the index of each pick, and
    # its grouped nonzero values, for the edge kernel, picks and pair sums.
    values = start
    # The steps whose pairs `measure` has yet to sum: groups, t_old, new_t*c, c, m, m'.
    pending = []

    def measure():
        """Sum the pending pairs in one `_pair_sums` pass.  A pair's entries,
        grouped, are (v, v*c) for each nonzero group, one fewer on t_old's,
        and the moved entry (t_old, new_t*c); zero entries add 0."""
        t, w, ends = [], [], []
        for vals, mults, t_old, *_ in pending:
            w += mults + [1.0]
            if t_old != 0.0:
                w[len(t) + bisect_left(vals, t_old)] -= 1.0
            t += vals + [t_old]
            ends.append(len(t))
        t, ends = np.array(t), np.array(ends)
        moved, *scalars = list(zip(*pending))[3:]
        c, m0, mc = np.repeat(scalars, np.diff(ends, prepend=0), axis=1)
        tc = t * c
        tc[ends - 1] = moved
        tape.sums.extend(_pair_sums(t, tc, np.array(w), m0, mc, ends.tolist()))
        pending.clear()

    def first_index(group_vals):
        """The first index holding one of the given values, where a scan
        of the whole vector finds its argmin or argmax.  Distinct values
        may share a pole, so a pick by pole may name several."""
        return min(int((values == v).argmax()) for v in group_vals)

    def apply_swap(idx, new_t, phase):
        nonlocal values, groups, m
        state, t_old, new_t = states[-1], float(values[idx]), float(new_t)
        c, info, gamma, new_groups = _track(*groups, t_old, new_t, n, m, phi, True)
        if info.regularity_margin < TAU_FLOOR:
            raise RegularityLost(
                f"margin {info.regularity_margin:g} fell below {TAU_FLOOR:g} "
                f"at step {state.step + 1} ({phase})"
            )
        pending.append((*groups, t_old, new_t * c, c, m, info.m_star))
        if len(pending) == _SUM_CHUNK:
            measure()
        values *= c
        values[idx] = new_t * c
        tape.digests += hashlib.sha256(values).digest()[:8]
        groups, m = new_groups, info.m_star
        states.append(state._after(idx, new_t, c, info, phase, abs(gamma - 1.0)))

    if m < 0:
        # Reflect every pole right of m* about m*, rightmost pole first: at
        # the largest negative value, or with none the largest value.  -1/t
        # rises with t on either sign, so values sharing it lie to its left.
        # The pole's first entry, in index order, moves to -1/(2m + 1/t); each
        # later one to the value the first holds then.  A reflection keeps m*
        # (`_track`) and a rescale maps t, m to ct, m/c, so in exact arithmetic
        # that is -1/(2m + 1/t) at its own step: one value, not one per ulp.
        while True:
            vals = groups[0]
            hi = bisect_left(vals, 0.0) or len(vals)
            top = -1.0 / vals[hi - 1]
            if not top > m:
                break
            lo = hi - 1
            while lo and -1.0 / vals[lo - 1] == top:
                lo -= 1
            first, *rest = np.flatnonzero(np.isin(values, vals[lo:hi])).tolist()
            apply_swap(first, -1.0 / (2.0 * m + 1.0 / values[first]), "reflect")
            for idx in rest:
                apply_swap(idx, values[first], "reflect")
        # Raise every positive entry to the running maximum, smallest first.
        while True:
            vals = groups[0]
            i = bisect_right(vals, 0.0)
            if i >= len(vals) - 1:
                break
            apply_swap(first_index(vals[i:i + 1]), vals[-1], "raise_to_max")
    else:
        # Identify the pole-adjacent negative value: -1/t in (0, m*), closest.
        in_gap = [(-1.0 / v, v) for v in groups[0] if 0.0 < -1.0 / v < m]
        if not in_gap:
            raise SwapRejected("no pole between 0 and m*; cannot run the positive-m branch")
        top = max(in_gap)[0]
        seed_rep = first_index([v for pole, v in in_gap if pole == top])

        k1 = int(np.floor(c0 * values.size))
        seeded = 0
        for idx in range(values.size):
            if seeded >= k1:
                break
            if values[idx] == values[seed_rep] or idx == seed_rep:
                continue
            apply_swap(idx, values[seed_rep], "seed_fraction")
            seeded += 1
        # The seed value is negative, so zero entries are neither above nor
        # below it: the largest and the smallest group decide.
        while groups[0][-1] > values[seed_rep]:
            apply_swap(first_index(groups[0][-1:]), 0.0, "zero_above")
        while groups[0][0] < values[seed_rep]:
            apply_swap(first_index(groups[0][:1]), 0.0, "zero_below")

    if pending:
        measure()
    if len(states) > 1:
        states[0].phase = states[1].phase
    states[-1].phase = "done"
    distinct = np.unique(values)
    if distinct.size > 2 or (distinct.size == 2 and 0.0 not in distinct):
        raise SwapRejected(f"terminal population is not two-valued: {distinct}")
    if len(states) - 1 > 2 * values.size:
        raise SwapRejected(f"sequence length {len(states) - 1} exceeds 2M")
    return states


def _pair_sums(t, tc, w, m, mc, ends):
    """l1, a4*N, sum-rule 1, sum-rule 2 and edge sums, five floats for each
    segment of entry pairs (t, tc) that ends at one of `ends`: pair i is
    weighted by w[i], and its states have m-values m and mc, scalars or
    one per pair.  The terms are elementwise, and each segment ends in its
    own gemv over its columns, so its sums do not depend on the others."""
    s = 1.0 / (1.0 + t * m)
    sc = 1.0 / (1.0 + tc * mc)
    ts, tcs, dt = t * s, tc * sc, t - tc
    u = dt * s * sc
    terms = np.array((np.abs(dt), ts ** 4, u * (ts + tcs), u * (ts * ts + ts * tcs + tcs * tcs), u))
    sums, lo = [], 0
    for hi in ends:
        sums += (terms[:, lo:hi] @ w[lo:hi]).tolist()
        lo = hi
    return sums


def verify_swappable(a: SwapState, b: SwapState, phi: float = DEFAULT_PHI) -> SwapDiagnostics:
    """Check the swappability bounds for a consecutive pair and measure
    the sum-rule residuals.  phi may be infinite, which disables the bounds.

    Every measurement is a sum over the entry pairs (t, tc) of the two
    states, `_pair_sums`.  A pair of neighbours on one tape reads the sums
    the builder measured over the value groups of that step; any other
    pair sums over its full vectors with unit weights, as one segment.
    """
    if not phi > 0:
        raise DomainError(f"phi must be positive, got {phi!r}")
    if a.n_dim != b.n_dim:
        raise NotSwappable("states are not aligned")
    n = a.n_dim
    m, mc = a.edge.m_star, b.edge.m_star
    tape, pos = a._tape, a._pos
    if b._tape is tape and b._pos == pos + 1:
        l1, a4, sum1, sum2, sum_edge = tape.sums[5 * pos:5 * pos + 5]
    else:
        t, tc = a.values, b.values
        if t.shape != tc.shape:
            raise NotSwappable("states are not aligned")
        l1, a4, sum1, sum2, sum_edge = _pair_sums(t, tc, np.ones(t.size), m, mc, [t.size])
    m_diff = abs(m - mc)
    if l1 >= phi:
        raise NotSwappable(f"l1 entry difference {l1:g} >= phi = {phi:g}")
    if m_diff >= phi / n:
        raise NotSwappable(f"m-value difference {m_diff:g} >= phi/N = {phi / n:g}")

    a4 /= n
    dm = m - mc
    r1 = abs(2.0 * n * dm - sum1)
    r2 = abs(3.0 * n * dm * (a4 - m ** -4) - sum2)
    e_diff = a.edge.e_star - b.edge.e_star
    r_edge = abs(e_diff - sum_edge / n)
    return SwapDiagnostics(
        a4=a4, l1_t_diff=l1, m_diff=m_diff, e_diff=abs(e_diff),
        gamma_diff=abs(a.edge.gamma - b.edge.gamma),
        sum_rule_1_residual=r1, sum_rule_2_residual=r2,
        edge_identity_residual=r_edge,
    )


def sum_rule_residuals(a: SwapState, b: SwapState):
    """(r1, r2, r_edge, r_gamma) for a consecutive unit-scale pair."""
    d = verify_swappable(a, b, phi=np.inf)
    return d.sum_rule_1_residual, d.sum_rule_2_residual, d.edge_identity_residual, d.gamma_diff


def export_sequence(states: list[SwapState]) -> str:
    """Line-delimited records, one per state."""
    return "\n".join(json.dumps(s.to_record()) for s in states) + "\n"
