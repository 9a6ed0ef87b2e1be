"""Test-wide settings, strategies, the m-chart oracle for z0 and the
numpy-vectorized oracle of the edge search: property tests draw the same
examples on every run."""

import numpy as np
from hypothesis import assume, settings
from hypothesis import strategies as st

from specedge import PopulationSpec, edges
from specedge.errors import NonConvergence

settings.register_profile("specedge", derandomize=True, deadline=None, max_examples=150)
settings.load_profile("specedge")


@st.composite
def signed_populations(draw):
    """Up to 60 signed values with |t| in [1e-2, 1e2]: spread, in clusters
    of +-10%, in pairs whose relative gap goes down to 1e-6, or mirrored
    as +-t with equal weights and rank(T) = N; sometimes with a zero
    value."""
    k = draw(st.integers(1, 60))
    exps = draw(st.lists(st.floats(-2.0, 2.0), min_size=k, max_size=k))
    signs = draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=k, max_size=k))
    vals = [sg * 10.0**ex for sg, ex in zip(signs, exps)]
    shape = draw(st.sampled_from(("spread", "clustered", "near-merged", "symmetric")))
    if shape == "clustered":
        centres = draw(st.integers(1, 5))
        jitter = draw(st.lists(st.floats(-0.1, 0.1), min_size=k, max_size=k))
        vals = [vals[i % centres] * (1.0 + u) for i, u in enumerate(jitter)]
    elif shape == "near-merged":
        gaps = draw(st.lists(st.floats(-6.0, -2.0), min_size=k, max_size=k))
        for i in range(1, k, 2):
            vals[i] = vals[i - 1] * (1.0 + 10.0 ** gaps[i])
    mults = draw(st.lists(st.integers(1, 50), min_size=k, max_size=k))
    if shape == "symmetric":
        vals, mults = [abs(v) for v in vals] + [-abs(v) for v in vals], mults + mults
    rank = sum(mults)
    if draw(st.booleans()):
        vals, mults = vals + [0.0], mults + [draw(st.integers(1, 50))]
    if shape == "symmetric":
        n_dim = rank
    else:
        # M/N = 1 without a zero value puts a hard edge at 0.
        n_dim = max(1, round(sum(mults) / draw(st.one_of(st.just(1.0), st.floats(0.05, 20.0)))))
    assume(0.05 <= sum(mults) / n_dim <= 20.0)
    return PopulationSpec(tuple(zip(vals, mults)), n_dim)


def z0_outer(pop, m, order=0):
    """z0 at m, or its derivative of the given order (1..3), in the m chart:
    the k-th derivative of t/(1 + t m) is (-1)^k k! t^(k+1) / (1 + t m)^(k+1),
    with 1 + m t formed by np.multiply.outer.  The package evaluates z0 only
    in the chart q = 1/m, so this is the tests' independent oracle."""
    vals, mults = pop.nonzero()
    m = np.asarray(m)
    k = order + 1
    coef = (-1.0) ** order * (1, 1, 2, 6)[order]
    lead = coef / (m ** k if order else m)
    if vals.size == 0:
        return -lead
    t, r = vals, 1.0 + np.multiply.outer(m, vals)
    if order:
        t, r = t ** k, r ** k
    return -lead + coef * (mults * t / r).sum(axis=-1) / pop.n_dim


def newton_bisect(p, d, j, lo, hi, s, order, rising, settle=None):
    """The edge search's Newton-bisection with numpy control flow over all
    rows at once, the tests' oracle for `edges._newton_bisect`, with its
    signature: a settle rule here takes arrays of rows.

    Newton steps that leave the bracket become bisections, and after 40
    steps every step bisects, so each row ends within 120 more.  A row may
    be finished early by `settle(g, g_lo, g_hi, lo, hi)` at the point just
    evaluated, with NaN at a bracket end not yet evaluated.  Updates lo, hi
    and s in place; returns s and g', g'', g''' at the last point evaluated
    on each row.  The kernel is looked up at each call, so a patched one
    is seen.
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
            g = edges._g_derivs(p, d, j[todo], x)
            if not np.isfinite(g).all():
                raise NonConvergence("edge search met a non-finite derivative of g")
            g_at[:, todo] = g
            left = (g[order - 1] < 0) == rising[todo]      # x lies left of the zero
            lo[todo[left]], hi[todo[~left]] = x[left], x[~left]
            a, b = lo[todo], hi[todo]
            step = g[order - 1] / g[order]
            nxt = x - step
            tol = edges.S_RTOL * np.abs(x)
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


def minimum_settle(cert):
    """The early stop of `edges._soft_extrema_q`'s search for min g' on
    arrays of rows: some g' < -cert (2 zeros), or the crossing of the
    tangents at the bracket ends, a lower bound on g', exceeds +cert (0
    zeros)."""
    def settle(g, g_lo, g_hi, lo, hi):
        cross = (g_lo[0] - g_hi[0] + g_hi[1] * (hi - lo)) / (g_hi[1] - g_lo[1])
        bound = g_lo[0] + g_lo[1] * cross
        slack = 1e-12 * (np.abs(g_lo[0]) + np.abs(g_hi[0]))
        return (g[0] < -cert) | (bound - cert > slack)
    return settle
