"""Test-wide settings, strategies and the m-chart oracle for z0: property
tests draw the same examples on every run."""

import numpy as np
from hypothesis import assume, settings
from hypothesis import strategies as st

from specedge import PopulationSpec

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
