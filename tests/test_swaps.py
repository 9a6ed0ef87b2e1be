"""Interpolating-sequence construction and the deterministic identities
it must satisfy step by step."""

import hashlib
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from specedge import (
    PopulationSpec,
    build_swap_sequence,
    find_edges,
    rescale_unit_gamma,
    sum_rule_residuals,
    track_edge_after_swap,
    verify_swappable,
)
import specedge.swaps
from specedge.errors import DomainError, NotSwappable, SwapRejected
from specedge.population import VALUE_BOUND
from specedge.swaps import (
    _SUM_CHUNK, SwapDiagnostics, SwapState, _moved, _pair_sums, _scaled, export_sequence,
    reflected_right_edge,
)

ID500 = PopulationSpec(((1.0, 500),), 500)
FIG1 = PopulationSpec(((-2.0, 350), (0.5, 300), (6.0, 50)), 500)
NEGPOP = PopulationSpec(((-8.0, 100), (-0.5, 400)), 500)   # right edge with m* > 0
NEGHALF = PopulationSpec(((-8.0, 50), (-0.5, 200)), 250)
FIG2 = PopulationSpec(((-1.0, 400), (4.0, 100)), 500)
FIG1X2 = PopulationSpec(((-2.0, 700), (0.5, 600), (6.0, 100)), 1000)


def rightmost(pop):
    return find_edges(pop).edges[0]


def right_soft(pop):
    return [e for e in find_edges(pop).edges if e.side == "right" and e.soft][0]


# -- rescaling ----------------------------------------------------------------

def test_rescale_identity_population():
    edge = rightmost(ID500)
    assert edge.gamma == pytest.approx(0.25)
    pop2, edge2 = rescale_unit_gamma(ID500, edge)
    factor = 0.25 ** (2 / 3)
    assert pop2.entries[0][0] == pytest.approx(factor, rel=1e-12)
    assert edge2.gamma == pytest.approx(1.0, abs=1e-8)
    assert edge2.e_star == pytest.approx(factor * 4.0, rel=1e-10)
    assert edge2.m_star == pytest.approx(-0.5 / factor, rel=1e-10)


def test_rescale_is_idempotent():
    edge = rightmost(FIG1)
    pop1, edge1 = rescale_unit_gamma(FIG1, edge)
    pop2, edge2 = rescale_unit_gamma(pop1, edge1)
    assert edge2.gamma == pytest.approx(1.0, abs=1e-10)
    for (t1, m1), (t2, m2) in zip(pop1.entries, pop2.entries):
        assert t1 == pytest.approx(t2, abs=1e-10)
        assert m1 == m2


def test_rescale_commutes_with_reflection():
    edge = rightmost(FIG1)
    pop_s, edge_s = rescale_unit_gamma(FIG1, edge)
    refl = FIG1.reflected()
    redge = find_edges(refl).edges[-1]       # mirrored leftmost edge
    rpop_s, redge_s = rescale_unit_gamma(refl, redge)
    assert redge_s.gamma == pytest.approx(1.0, abs=1e-8)
    assert redge_s.e_star == pytest.approx(-edge_s.e_star, rel=1e-9)
    for (t1, m1), (t2, m2) in zip(rpop_s.entries, sorted((-t, m) for t, m in pop_s.entries)):
        assert t1 == pytest.approx(t2, rel=1e-9)


@pytest.mark.parametrize("c", [1e-4, 1e-2, 10.0, 100.0])
@pytest.mark.parametrize("pop, pick", [(FIG1, rightmost), (NEGHALF, right_soft)],
                         ids=["fig1", "neghalf"])
def test_sequences_are_scale_covariant(pop, pick, c):
    # Every state sits at unit edge scale, so the sequence of c*T is that
    # of T: the edge read-off's certificate and degenerate label are
    # relative to their own summands, not absolute bounds on z0''.
    scaled = pop.scaled(c)
    assert scaled.norm <= VALUE_BOUND
    base = [s.to_record() for s in build_swap_sequence(pop, pick(pop))]
    got = [s.to_record() for s in build_swap_sequence(scaled, pick(scaled))]
    assert [r["phase"] for r in got] == [r["phase"] for r in base]
    for a, b in zip(base, got):
        for field in ("e_star", "m_star", "gamma", "margin"):
            assert b[field] == pytest.approx(a[field], rel=1e-12, abs=0)


def test_entry_points_read_edges_at_a_small_scale():
    pop = FIG1.scaled(1e-4)
    report, unscaled = find_edges(pop), find_edges(FIG1)
    _, edge = rescale_unit_gamma(pop, report.edges[0])
    assert edge.gamma == pytest.approx(1.0, abs=1e-12)
    _, right = reflected_right_edge(pop, report.edges[1])
    assert right.e_star == pytest.approx(-1e-4 * unscaled.edges[1].e_star, rel=1e-12)
    moved = track_edge_after_swap(pop, report.edges[0], 2, pop.entries[2][0])
    assert moved.e_star == pytest.approx(1e-4 * unscaled.edges[0].e_star, rel=1e-12)


def test_rescale_rejects_hard_edge():
    report = find_edges(ID500)
    hard = report.edges[1]
    with pytest.raises(SwapRejected):
        rescale_unit_gamma(ID500, hard)


# -- single-swap tracking ------------------------------------------------------

def test_track_identity_swap_keeps_edge():
    edge = rightmost(FIG1)
    moved = track_edge_after_swap(FIG1, edge, 2, 6.0)   # entry 2 is the 6-block
    assert moved.m_star == pytest.approx(edge.m_star, abs=1e-12)
    assert moved.e_star == pytest.approx(edge.e_star, abs=1e-12)


def test_track_reflection_swap_fixes_m():
    # moving one entry t to the value whose pole mirrors about m* leaves
    # the m-value exactly in place
    pop, edge = rescale_unit_gamma(FIG1, rightmost(FIG1))
    m = edge.m_star
    t_old = pop.entries[0][0]                # the (scaled) negative block
    t_new = -1.0 / (2.0 * m + 1.0 / t_old)
    moved = track_edge_after_swap(pop, edge, 0, t_new)
    assert moved.m_star == pytest.approx(m, abs=1e-11)


def test_track_single_raise_drift_bound():
    pop, edge = rescale_unit_gamma(FIG1, rightmost(FIG1))
    t_max = max(t for t, _ in pop.entries)
    # raise one entry of the middle block to the maximum
    idx = [i for i, (t, _) in enumerate(pop.entries) if 0 < t < t_max][0]
    moved = track_edge_after_swap(pop, edge, idx, t_max)
    assert abs(moved.m_star - edge.m_star) <= 10.0 / pop.n_dim


@pytest.mark.parametrize("pop, pick, group, new_t", [
    (FIG1, rightmost, 1, "max"),       # raise one entry of the middle block
    (NEGPOP, right_soft, 1, 0.0),      # zero one entry of the -0.5 block
])
def test_track_matches_high_precision_root(pop, pick, group, new_t):
    import mpmath

    pop, edge = rescale_unit_gamma(pop, pick(pop))
    if new_t == "max":
        new_t = max(t for t, _ in pop.entries)
    moved = track_edge_after_swap(pop, edge, group, new_t)
    mults = dict(pop.entries)
    mults[pop.entries[group][0]] -= 1
    mults[new_t] = mults.get(new_t, 0) + 1
    with mpmath.workdps(40):
        def z0p(m):
            s = mpmath.fsum(k * mpmath.mpf(t) ** 2 / (1 + t * m) ** 2 for t, k in mults.items())
            return 1 / m**2 - s / pop.n_dim

        root = mpmath.findroot(z0p, mpmath.mpf(moved.m_star))
        assert abs(moved.m_star - root) <= 1e-14 * abs(root)


def test_track_rejects_norm_violation():
    pop, edge = rescale_unit_gamma(FIG1, rightmost(FIG1))
    with pytest.raises(SwapRejected):
        track_edge_after_swap(pop, edge, 0, 10 * pop.norm)


def test_track_rejects_pole_collision():
    pop, edge = rescale_unit_gamma(FIG1, rightmost(FIG1))
    collide = -1.0 / edge.m_star            # puts a pole exactly at m*
    with pytest.raises(SwapRejected):
        track_edge_after_swap(pop, edge, 0, collide)


@pytest.mark.parametrize("new_t", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
def test_track_rejects_a_non_finite_value_before_any_kernel_call(monkeypatch, new_t):
    # A non-finite value is an invalid argument, not a numerical failure
    # of the edge search (nan) or a rejected swap (inf).
    def no_kernel(*args):
        raise AssertionError("the edge kernels were called")

    for name in ("_track", "_moved", "_g_row_floats", "_newton_bisect_one",
                 "_soft_edge"):
        monkeypatch.setattr(specedge.swaps, name, no_kernel)
    with pytest.raises(DomainError, match="finite"):
        track_edge_after_swap(FIG1, rightmost(FIG1), 0, new_t)


@pytest.mark.parametrize("entry_index", [1.0, True], ids=["float", "bool"])
def test_track_rejects_an_entry_index_that_is_no_index(entry_index):
    with pytest.raises(SwapRejected, match="entry_index"):
        track_edge_after_swap(FIG1, rightmost(FIG1), entry_index, 6.0)


# -- sequence construction -----------------------------------------------------

def test_identity_population_gives_empty_sequence():
    states = build_swap_sequence(ID500, rightmost(ID500))
    assert len(states) == 1
    assert states[0].phase == "done"
    assert states[0].edge.gamma == pytest.approx(1.0, abs=1e-8)


def test_left_edge_rejected_with_guidance():
    report = find_edges(FIG1)
    left = [e for e in report.edges if e.side == "left"][0]
    with pytest.raises(SwapRejected):
        build_swap_sequence(FIG1, left)


def test_left_edge_via_reflection_helper():
    report = find_edges(FIG1)
    left = [e for e in report.edges if e.side == "left"][0]
    refl, right = reflected_right_edge(FIG1, left)
    assert right.side == "right"
    assert right.e_star == pytest.approx(-left.e_star, rel=1e-10)
    assert right.m_star == pytest.approx(-left.m_star, rel=1e-10)
    states = build_swap_sequence(refl, right)
    assert np.unique(states[-1].values).size <= 2
    full_verify(states)


def test_fig2_sequence_step_bounds():
    fig2 = PopulationSpec(((-1.0, 400), (4.0, 100)), 500)
    states = build_swap_sequence(fig2, rightmost(fig2))
    assert len(states) - 1 <= 2 * fig2.total_mult
    for a, b in zip(states[:-1], states[1:]):
        d = verify_swappable(a, b, 10.0)
        assert d.e_diff <= 50.0 / fig2.n_dim


def full_verify(states, phi=10.0):
    from specedge import z0_derivative

    n = states[0].n_dim
    for s in states:
        assert abs(s.edge.gamma - 1) <= 1e-8
        assert abs(z0_derivative(s.pop, s.edge.m_star, 1)) <= 1e-8
    for a, b in zip(states[:-1], states[1:]):
        diag = verify_swappable(a, b, phi)
        assert diag.l1_t_diff < phi
        assert diag.m_diff < phi / n
    # the terminal two-valued population is a single-bulk law whose tracked
    # edge survives as an endpoint
    terminal = find_edges(states[-1].pop)
    assert len(terminal.intervals) == 1
    endpoint = min(abs(e.e_star - states[-1].edge.e_star) for e in terminal.edges)
    assert endpoint <= 1e-6


def test_fig1_negative_branch_sequence():
    states = build_swap_sequence(FIG1, rightmost(FIG1))
    m_total = FIG1.total_mult
    assert len(states) - 1 <= 2 * m_total
    phases = {s.phase for s in states}
    assert phases <= {"reflect", "raise_to_max", "done"}
    distinct = np.unique(states[-1].values)
    assert distinct.size <= 2
    full_verify(states)


def test_negpop_positive_branch_sequence():
    edge = right_soft(NEGPOP)
    assert edge.m_star > 0
    states = build_swap_sequence(NEGPOP, edge)
    phases = {s.phase for s in states}
    assert "seed_fraction" in phases
    distinct = np.unique(states[-1].values)
    assert distinct.size == 2 and 0.0 in distinct
    assert distinct.min() < 0          # terminal nonzero value is negative
    assert len(states) - 1 <= 2 * NEGPOP.total_mult
    full_verify(states)


@pytest.mark.parametrize("pop, pick, phases", [
    (FIG1, rightmost, {"reflect": 351, "raise_to_max": 649, "done": 1}),
    (NEGPOP, right_soft, {"seed_fraction": 26, "zero_above": 374, "done": 1}),
])
def test_sequence_phase_counts_are_pinned(pop, pick, phases):
    states = build_swap_sequence(pop, pick(pop))
    assert Counter(s.phase for s in states) == phases


@pytest.mark.parametrize("pop, pick, digests", [
    (FIG1, rightmost, {0: "48f70d7d1d4a8849", 1: "01a43134bb402a18", 351: "41a156ecac754289",
                       352: "307930feb87cb564", 651: "8003eb348d4f6fba", 1000: "19e02e5c37adb08e"}),
    (NEGPOP, right_soft, {0: "c63efd4faa2ccb56", 26: "3ad3cf0eee2758a9", 400: "3c5d495e655df78e"}),
    (FIG2, rightmost, {0: "4fae7f500123035e", 1: "ad14974ee979ccd0", 400: "753e8030345dbdf8",
                       401: "bc16987307fe875c", 799: "065ec666859fc09d", 800: "7a6bc518e496dcff"}),
    (NEGHALF, right_soft, {0: "6e8529d43ef7072f", 1: "a37b2960d4536165", 12: "90bdb675d808008a",
                           13: "452730e8b24e5543", 199: "da1c4e6758676172", 200: "aa051454e79797d2"}),
])
def test_entries_digests_are_pinned(pop, pick, digests):
    # Recorded from the builder that reads every edge off the q chart and
    # rescales by the scaling law: replayed states must match bit for bit.
    states = build_swap_sequence(pop, pick(pop))
    assert {i: states[i].digest() for i in digests} == digests


def test_fig1_export_is_pinned_bit_for_bit():
    # Every record field of every state (e_star, m_star, gamma, margin,
    # drift), which `swapseq --verify` compares exactly.
    text = export_sequence(build_swap_sequence(FIG1, rightmost(FIG1)))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "599029fcd507b203e2a3eb3ae7eb34d9ca4c3591fb8275e2fd7447518854b38c")


@pytest.mark.parametrize("pop, pick, sha", [
    (NEGPOP, right_soft, "1f3c3dd84923eb1dc8c87b87dbee5f23d3f6d3907064e7bc1d6f39fe20de1743"),
    (NEGHALF, right_soft, "3341ba04f0430eb7daa895a105f344e6523751380480888d9d0db58cf5e667d0"),
    (FIG2, rightmost, "53617527bbfe0f78e8aee5ad0ca2078b808f8ea2f9516b45f082128b1e3b6426"),
    (FIG1X2, rightmost, "a661037164d59a48fa66271dd8aca49d39e66d1447670b86396e586b4b76a54e"),
], ids=["negpop", "neghalf", "fig2", "fig1x2"])
def test_bench_exports_are_pinned_bit_for_bit(pop, pick, sha):
    # The other swap populations of the benchmark, the m* > 0 branch's
    # seed and zero phases included, pinned like FIG1 above.
    text = export_sequence(build_swap_sequence(pop, pick(pop)))
    assert hashlib.sha256(text.encode()).hexdigest() == sha


# 48 values spread over [-3, -0.5] and [0.5, 6]: the build's group count
# rises from 48 to 100 while it reflects and falls to 1 while it raises.
SPREAD48 = PopulationSpec(tuple((float(v), 10) for v in np.concatenate(
    (np.linspace(-3.0, -0.5, 24), np.linspace(0.5, 6.0, 24)))), 500)


def test_many_group_build_is_pinned_bit_for_bit():
    # Every bit of the records and of the pair sums at up to 100 value
    # groups, where every float row of the tracker sums many terms.
    states = build_swap_sequence(SPREAD48, rightmost(SPREAD48))
    assert len(states) == 711
    assert hashlib.sha256(export_sequence(states).encode()).hexdigest() == (
        "1000d999624d3fbeb81b8fe617d4d251a65d54333b952f42c5c9f4cf2c2f3b67")
    assert hashlib.sha256(states[0]._tape.sums.tobytes()).hexdigest() == (
        "5bb7f0514445897448208c8bb45e689c67c36f2243ed0bb834b46488fb412264")


def test_sum_rules_identical_states_vanish():
    states = build_swap_sequence(ID500, rightmost(ID500))
    s = states[0]
    r1, r2, r_edge, r_gamma = sum_rule_residuals(s, s)
    assert (r1, r2, r_edge, r_gamma) == (0.0, 0.0, 0.0, 0.0)
    diag = verify_swappable(s, s, 10.0)
    assert diag.l1_t_diff == 0.0 and diag.m_diff == 0.0


def test_sum_rule_magnitudes_fig1():
    states = build_swap_sequence(FIG1, rightmost(FIG1))
    n = FIG1.n_dim
    for a, b in zip(states[:-1], states[1:]):
        r1, r2, r_edge, r_gamma = sum_rule_residuals(a, b)
        assert r1 <= 50.0 / n
        assert r_edge <= 100.0 / n**2
        assert r_gamma <= 1e-7
        d = verify_swappable(a, b, 10.0)
        assert d.e_diff <= 50.0 / n


def test_not_swappable_for_bulk_difference():
    states = build_swap_sequence(FIG1, rightmost(FIG1))
    a = states[0]
    values = a.values.copy()
    values[: len(values) // 2] += 1.0
    fake = SwapState(values, a.n_dim, a.edge, 1, None, "reflect", 0.0)
    with pytest.raises(NotSwappable):
        verify_swappable(a, fake, 10.0)


def test_export_records():
    states = build_swap_sequence(ID500, rightmost(ID500))
    text = export_sequence(states)
    assert text.count("\n") == len(states)
    import json

    rec = json.loads(text.splitlines()[0])
    assert {"step", "phase", "entries_digest", "e_star", "m_star", "gamma", "margin"} <= set(rec)


def test_sequence_deterministic():
    a = build_swap_sequence(FIG1, rightmost(FIG1))
    b = build_swap_sequence(FIG1, rightmost(FIG1))
    assert len(a) == len(b)
    for s, t in zip(a, b):
        assert s.digest() == t.digest()


# -- candidate picks -------------------------------------------------------------

def scan_picks(states):
    """Check every swap of a built sequence against the builder's O(M)
    candidate scans over the full vector of the state before it.

    Returns the number of picks where distinct values share the chosen
    pole, so the first index among them decides.
    """
    pos, ties = 0, 0
    v, m = states[0].values, states[0].edge.m_star

    def apply(idx, new_t, phase):
        nonlocal pos, v, m
        pos += 1
        nxt = states[pos]
        assert (nxt.swapped_index, nxt.new_t) == (idx, float(new_t))
        assert nxt.phase == phase or pos == len(states) - 1
        v, m = nxt.values, nxt.edge.m_star

    def first_max_pole(cands, poles):
        nonlocal ties
        idx = int(cands[poles[cands].argmax()])
        ties += np.unique(v[cands][poles[cands] == poles[idx]]).size > 1
        return idx

    if m < 0:
        while True:
            nz = v != 0.0
            poles = np.where(nz, -1.0 / np.where(nz, v, 1.0), -np.inf)
            cands = (nz & (poles > m)).nonzero()[0]
            if cands.size == 0:
                break
            idx = first_max_pole(cands, poles)
            apply(idx, -1.0 / (2.0 * m + 1.0 / v[idx]), "reflect")
        while True:
            t_max = float(v.max())
            cands = ((v > 0.0) & (v < t_max)).nonzero()[0]
            if cands.size == 0:
                break
            apply(int(cands[v[cands].argmin()]), t_max, "raise_to_max")
    else:
        nz = v != 0.0
        poles = np.where(nz, -1.0 / np.where(nz, v, 1.0), np.nan)
        seed_rep = first_max_pole(np.flatnonzero(nz & (poles > 0.0) & (poles < m)), poles)
        seeded, k1 = 0, sum(s.phase == "seed_fraction" for s in states[1:])
        for idx in range(v.size):
            if seeded == k1:
                break
            if v[idx] == v[seed_rep] or idx == seed_rep:
                continue
            apply(idx, v[seed_rep], "seed_fraction")
            seeded += 1
        for phase, below in (("zero_above", False), ("zero_below", True)):
            while True:
                cands = ((v < v[seed_rep]) if below
                         else (v != 0.0) & (v > v[seed_rep])).nonzero()[0]
                if cands.size == 0:
                    break
                pick = v[cands].argmin() if below else v[cands].argmax()
                apply(int(cands[pick]), 0.0, phase)
    assert pos == len(states) - 1
    return ties


# Two adjacent floats which, scaled to unit edge scale, become
# -0.1249999999845154 and -0.12499999998451539: distinct values with one
# pole, -1/v = 8.000000000991015, the largest, so the first reflect step
# must take the first index holding either.
POLE_TIE = PopulationSpec(((-1.574329376053362, 1), (-1.5743293760533619, 1))
                          + FIG1.entries, 500)


@pytest.mark.parametrize("pop, pick, ties", [
    (FIG1, rightmost, 0), (NEGPOP, right_soft, 0), (FIG2, rightmost, 0),
    (NEGHALF, right_soft, 0), (POLE_TIE, rightmost, 1),
], ids=["fig1", "negpop", "fig2", "neghalf", "pole-tie"])
def test_picks_equal_the_full_vector_scans(pop, pick, ties):
    assert scan_picks(build_swap_sequence(pop, pick(pop))) == ties


# -- pair diagnostics over the value groups -------------------------------------

def rebuilt(state):
    """The same state as a directly constructed one, holding its vector."""
    return SwapState(state.values, state.n_dim, state.edge, state.step,
                     state.swapped_index, state.phase, state.gamma_drift)


@pytest.mark.parametrize("pop, pick", [(FIG1, rightmost), (FIG2, rightmost), (NEGPOP, right_soft)],
                         ids=["fig1", "fig2", "negpop"])
def test_grouped_pair_diagnostics_match_the_vector_sums(pop, pick, monkeypatch):
    # A pair of tape neighbours reads the sums the builder measured over
    # the value groups; the same pair rebuilt from its vectors sums over
    # all M entries.
    states = build_swap_sequence(pop, pick(pop))
    fields = SwapDiagnostics.__dataclass_fields__
    for a, b in zip(states[:-1], states[1:]):
        grouped, full = verify_swappable(a, b), verify_swappable(rebuilt(a), rebuilt(b))
        for field in fields:
            assert getattr(grouped, field) == pytest.approx(getattr(full, field), rel=0, abs=1e-12)
    # A pair two steps apart is no tape-neighbour pair: it takes the
    # vector sums, the same floats as its rebuilt states give, and reads
    # none of the sums the builder stored.
    monkeypatch.setattr(states[0]._tape, "sums", None)
    for i in range(0, len(states) - 2, 97):
        assert (verify_swappable(states[i], states[i + 2], np.inf)
                == verify_swappable(rebuilt(states[i]), rebuilt(states[i + 2]), np.inf))


def grouped_pair_sums(a, b):
    """`_pair_sums` of a consecutive pair, called on its own over the
    pair's grouped entries: (v, v*c) for each nonzero value group of a,
    one fewer on the swapped entry's, and the moved entry (t_old, new_t*c)."""
    v = a.values
    vals, mults = np.unique(v[v != 0.0], return_counts=True)
    t_old = float(v[b.swapped_index])
    t, w = np.append(vals, t_old), np.append(mults.astype(float), 1.0)
    if t_old != 0.0:
        w[vals.searchsorted(t_old)] -= 1.0
    tc = t * b.scale
    tc[-1] = b.new_t * b.scale
    return _pair_sums(t, tc, w, a.edge.m_star, b.edge.m_star, [t.size])


@pytest.mark.parametrize("pop, pick, steps", [(FIG1, rightmost, 1000), (NEGHALF, right_soft, 200)],
                         ids=["fig1", "neghalf"])
def test_chunked_pair_sums_equal_the_pair_by_pair_sums(pop, pick, steps):
    # The builder sums the pairs of a chunk of steps in one pass; each
    # pair's sums are the same floats as a pass over that pair alone.
    states = build_swap_sequence(pop, pick(pop))
    assert len(states) - 1 == steps
    sums = states[0]._tape.sums
    assert len(sums) == 5 * steps
    for lo in range(0, steps, _SUM_CHUNK):
        for i in (lo, min(lo + _SUM_CHUNK, steps) - 1):
            assert sums[5 * i:5 * i + 5].tolist() == grouped_pair_sums(states[i], states[i + 1])


@pytest.mark.parametrize("pop, pick, sha", [
    (FIG1, rightmost, "bb671f7c947564b787b8ffff98f5f8259bc2243ace9bcea9c324ad9981bd4fcc"),
    (NEGPOP, right_soft, "127b95d44f748b215c60e38f7ef75869ca238f6c0925e59b391ca2bae2e1c095"),
    (FIG2, rightmost, "48387f66c74defa26cb8cb2afdde7b7805afb1d2e1a7a059f5d45232c991ec17"),
], ids=["fig1", "negpop", "fig2"])
def test_pair_diagnostics_are_pinned_at_full_precision(pop, pick, sha):
    # Every field of every consecutive pair's diagnostics, as repr prints
    # the floats: the diagnostics CSV rounds them to 8 digits.
    states = build_swap_sequence(pop, pick(pop))
    fields = tuple(SwapDiagnostics.__dataclass_fields__)
    rows = [tuple(getattr(verify_swappable(a, b), f) for f in fields)
            for a, b in zip(states[:-1], states[1:])]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == sha


# -- states stored as deltas -----------------------------------------------------

def test_sequence_memory_is_not_quadratic():
    # 2001 stored M-vectors of M = 1400 would take 22.4 MB.
    edge = rightmost(FIG1X2)
    tracemalloc.start()
    try:
        states = build_swap_sequence(FIG1X2, edge)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(states) == 2001
    assert peak < 3e6


def test_consecutive_states_differ_by_one_entry_and_a_rescale():
    states = build_swap_sequence(FIG1, rightmost(FIG1))
    for a, b in zip(states[:-1], states[1:]):
        t, tc, i = a.values, b.values, b.swapped_index
        scaled = t * b.scale
        assert tc[i] == b.new_t * b.scale
        scaled[i] = tc[i]
        assert np.array_equal(tc, scaled)


def test_random_access_matches_sequential_walk():
    states = build_swap_sequence(FIG1, rightmost(FIG1))
    walk = [s.values for s in states]
    for i in (700, 3, 1000, 0, 999, 351, 350, 352):
        assert np.array_equal(states[i].values, walk[i])
    held = states[500].values
    before = held.copy()
    held[:] = 0.0                       # a held vector is the caller's own
    assert np.array_equal(states[500].values, before)
    assert np.array_equal(states[501].values, walk[501])


def test_digest_is_sha256_of_rebuilt_vector():
    states = build_swap_sequence(NEGPOP, right_soft(NEGPOP))
    for s in states[::37] + states[-1:]:
        digest = s.digest()
        assert digest == hashlib.sha256(s.values.tobytes()).hexdigest()[:16]
        # The digest hashes the tape's own vector; `values` is a fresh copy.
        held = s.values
        held[:] = 0.0
        assert s.digest() == digest
    # A directly constructed state hashes its vector in C order, as
    # `tobytes` gives it, even from a strided view, and keeps its own copy.
    vector = states[3].values
    strided = np.repeat(vector, 2)[::2]
    direct = SwapState(strided, NEGPOP.n_dim, states[3].edge, 3, None, "done", 0.0)
    assert direct.digest() == states[3].digest()
    strided[:] = 0.0
    assert direct.digest() == states[3].digest()
    assert np.array_equal(direct.values, vector)


def test_grouped_updates_match_np_unique():
    rng = np.random.default_rng(3)
    base = np.sort(rng.uniform(-3.0, 3.0, 6))
    values = np.repeat(np.concatenate([base, np.nextafter(base, np.inf)]), 3)
    # The builder's groups are float lists: values and their counts.
    vals, mults = (a.tolist() for a in np.unique(values, return_counts=True))
    merged = 0
    for _ in range(300):
        idx = int(rng.integers(values.size))
        new_t = float(rng.choice([0.0, values[rng.integers(values.size)], rng.uniform(-3.0, 3.0)]))
        c = float(rng.uniform(0.5, 2.0))
        vals, mults = _moved(vals, mults, float(values[idx]), new_t)
        values[idx] = new_t
        expect = np.unique(values[values != 0.0], return_counts=True)
        assert vals == expect[0].tolist() and mults == expect[1].tolist()
        size = len(vals)
        vals, mults = _scaled(vals, mults, c)
        merged += len(vals) < size
        values = values * c
        expect = np.unique(values[values != 0.0], return_counts=True)
        assert vals == expect[0].tolist() and mults == expect[1].tolist()
    assert merged > 0                   # rescaling did round distinct values together
