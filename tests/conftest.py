"""Test-wide settings and strategies: property tests draw the same
examples on every run."""

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
