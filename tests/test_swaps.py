"""Interpolating-sequence construction and the deterministic identities
it must satisfy step by step."""

import hashlib
import importlib.util
import math
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from conftest import signed_populations, z0_outer
from hypothesis import given
from hypothesis import strategies as st

from specedge import (
    PopulationSpec,
    build_swap_sequence,
    check_regularity,
    find_edges,
    sum_rule_residuals,
    verify_swappable,
)
from specedge.edges import _div, _g_row_floats
from specedge.errors import DomainError, NotSwappable, SwapRejected
from specedge.population import VALUE_BOUND
from specedge.swaps import (
    _SUM_CHUNK, DEFAULT_PHI, SwapDiagnostics, SwapState, _groups, _merged, _moved, _pair_sums,
    _root_pass, _track, export_sequence, reflected_right_edge,
)

ID500 = PopulationSpec(((1.0, 500),), 500)
FIG1 = PopulationSpec(((-2.0, 350), (0.5, 300), (6.0, 50)), 500)
NEGPOP = PopulationSpec(((-8.0, 100), (-0.5, 400)), 500)   # right edge with m* > 0
NEGHALF = PopulationSpec(((-8.0, 50), (-0.5, 200)), 250)
FIG2 = PopulationSpec(((-1.0, 400), (4.0, 100)), 500)
FIG1X2 = PopulationSpec(((-2.0, 700), (0.5, 600), (6.0, 100)), 1000)
# Its third edge, at m* = 2.442, is a right edge whose build zeroes
# entries below the seed value too; every pair passes at phi = 10.
ZERO_BELOW = PopulationSpec(((-1.145, 32), (-0.862, 19), (1.49, 48)), 176)


def rightmost(pop):
    return find_edges(pop).edges[0]


def right_soft(pop):
    return [e for e in find_edges(pop).edges if e.side == "right" and e.soft][0]


def third(pop):
    return find_edges(pop).edges[2]


def track(pop, edge, t_old=0.0, new_t=0.0, unit=False):
    """(c, edge) from `_track` on the population's groups: the edge next to
    edge.m_star after one entry t_old -> new_t, and with `unit` the factor c
    that takes the new population to unit edge scale, as a build runs it."""
    return _track(*_groups(pop), t_old, new_t, pop.n_dim, edge.m_star, DEFAULT_PHI, unit)[:2]


def unit_scaled(pop, edge):
    """The population at unit edge scale and its edge, as a build starts."""
    c, info = track(pop, edge, unit=True)
    return pop.scaled(c), info


# -- rescaling ----------------------------------------------------------------

def test_rescale_identity_population():
    edge = rightmost(ID500)
    assert edge.gamma == pytest.approx(0.25)
    pop2, edge2 = unit_scaled(ID500, edge)
    factor = 0.25 ** (2 / 3)
    assert pop2.entries[0][0] == pytest.approx(factor, rel=1e-12)
    assert edge2.gamma == pytest.approx(1.0, abs=1e-8)
    assert edge2.e_star == pytest.approx(factor * 4.0, rel=1e-10)
    assert edge2.m_star == pytest.approx(-0.5 / factor, rel=1e-10)


def test_rescale_is_idempotent():
    edge = rightmost(FIG1)
    pop1, edge1 = unit_scaled(FIG1, edge)
    pop2, edge2 = unit_scaled(pop1, edge1)
    assert edge2.gamma == pytest.approx(1.0, abs=1e-10)
    for (t1, m1), (t2, m2) in zip(pop1.entries, pop2.entries):
        assert t1 == pytest.approx(t2, abs=1e-10)
        assert m1 == m2


def test_rescale_commutes_with_reflection():
    edge = rightmost(FIG1)
    pop_s, edge_s = unit_scaled(FIG1, edge)
    refl = FIG1.reflected()
    redge = find_edges(refl).edges[-1]       # mirrored leftmost edge
    rpop_s, redge_s = unit_scaled(refl, redge)
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
    # The reflection helper, and `_track` as a build enters it: the
    # rescale and one swap step.
    pop = FIG1.scaled(1e-4)
    report, unscaled = find_edges(pop), find_edges(FIG1)
    _, edge = unit_scaled(pop, report.edges[0])
    assert edge.gamma == pytest.approx(1.0, abs=1e-12)
    _, right = reflected_right_edge(pop, report.edges[1])
    assert right.e_star == pytest.approx(-1e-4 * unscaled.edges[1].e_star, rel=1e-12)
    moved = track(pop, report.edges[0], pop.entries[2][0], pop.entries[2][0])[1]
    assert moved.e_star == pytest.approx(1e-4 * unscaled.edges[0].e_star, rel=1e-12)


def test_build_rejects_hard_edge():
    report = find_edges(ID500)
    hard = report.edges[1]
    with pytest.raises(SwapRejected, match="soft edge"):
        build_swap_sequence(ID500, hard)


# -- single-swap tracking ------------------------------------------------------

def test_track_identity_swap_keeps_edge():
    edge = rightmost(FIG1)
    moved = track(FIG1, edge, 6.0, 6.0)[1]   # one entry of the 6-block stays
    assert moved.m_star == pytest.approx(edge.m_star, abs=1e-12)
    assert moved.e_star == pytest.approx(edge.e_star, abs=1e-12)


def test_track_reflection_swap_fixes_m():
    # moving one entry t to the value whose pole mirrors about m* leaves
    # the m-value exactly in place
    pop, edge = unit_scaled(FIG1, rightmost(FIG1))
    m = edge.m_star
    t_old = pop.entries[0][0]                # the (scaled) negative block
    t_new = -1.0 / (2.0 * m + 1.0 / t_old)
    moved = track(pop, edge, t_old, t_new)[1]
    assert moved.m_star == pytest.approx(m, abs=1e-11)


def test_track_single_raise_drift_bound():
    pop, edge = unit_scaled(FIG1, rightmost(FIG1))
    t_max = max(t for t, _ in pop.entries)
    # raise one entry of the middle block to the maximum
    idx = [i for i, (t, _) in enumerate(pop.entries) if 0 < t < t_max][0]
    moved = track(pop, edge, pop.entries[idx][0], t_max)[1]
    assert abs(moved.m_star - edge.m_star) <= 10.0 / pop.n_dim


@pytest.mark.parametrize("pop, pick, group, new_t", [
    (FIG1, rightmost, 1, "max"),       # raise one entry of the middle block
    (NEGPOP, right_soft, 1, 0.0),      # zero one entry of the -0.5 block
])
def test_track_matches_high_precision_root(pop, pick, group, new_t):
    import mpmath

    pop, edge = unit_scaled(pop, pick(pop))
    if new_t == "max":
        new_t = max(t for t, _ in pop.entries)
    moved = track(pop, edge, pop.entries[group][0], new_t)[1]
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
    pop, edge = unit_scaled(FIG1, rightmost(FIG1))
    with pytest.raises(SwapRejected):
        track(pop, edge, pop.entries[0][0], 10 * pop.norm)


def test_track_rejects_pole_collision():
    pop, edge = unit_scaled(FIG1, rightmost(FIG1))
    collide = -1.0 / edge.m_star            # puts a pole exactly at m*
    with pytest.raises(SwapRejected):
        track(pop, edge, pop.entries[0][0], collide)


# The m* > 0 right edge at which a reflected left edge of the swap sweep
# stops: one entry's jump to the seed value leaves the sign-rule bracket.
SWEEP72 = PopulationSpec(((-5.000392462457993, 25), (-0.7418744888863233, 75),
                          (3.360876243246581, 73), (4.390524110384184, 26),
                          (13.87912522446762, 45)), 171)


def test_track_rejects_a_jump_past_the_sign_rule_bracket():
    edge = third(SWEEP72)
    assert edge.side == "right" and edge.m_star == pytest.approx(0.45239, abs=1e-5)
    with pytest.raises(SwapRejected, match="sign-rule bracket failed"):
        track(SWEEP72, edge, SWEEP72.entries[1][0], -5.000392462457993)
    # A shorter hop of the same entry tracks: splitting a jump into hops
    # is a way past the rejection.
    hop = track(SWEEP72, edge, SWEEP72.entries[1][0], -1.0)[1]
    assert hop.m_star == pytest.approx(0.46038, abs=1e-5)


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
    n = states[0].n_dim
    for s in states:
        assert abs(s.edge.gamma - 1) <= 1e-8
        assert abs(z0_outer(s.pop, s.edge.m_star, 1)) <= 1e-8
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
    (ZERO_BELOW, third, {"seed_fraction": 5, "zero_above": 48, "zero_below": 27, "done": 1}),
])
def test_sequence_phase_counts_are_pinned(pop, pick, phases):
    states = build_swap_sequence(pop, pick(pop))
    assert Counter(s.phase for s in states) == phases


@pytest.mark.parametrize("pop, pick, digests", [
    (FIG1, rightmost, {0: "48f70d7d1d4a8849", 1: "01a43134bb402a18", 351: "342ac47b5ef99329",
                       352: "cd492c312e9ef137", 651: "30e875495b47bfd3", 1000: "19e02e5c37adb08e"}),
    (NEGPOP, right_soft, {0: "c63efd4faa2ccb56", 26: "3ad3cf0eee2758a9", 400: "3c5d495e655df78e"}),
    (FIG2, rightmost, {0: "4fae7f500123035e", 1: "ad14974ee979ccd0", 400: "1db0f90819d3211f",
                       401: "cc36ca1866e0b22e", 799: "92930bfb941a0e85", 800: "7a6bc518e496dcff"}),
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
        "e28da20043979052dc67789951fd102ccddf57a8e19028ca6c46479374e303d7")


@pytest.mark.parametrize("pop, pick, sha", [
    (NEGPOP, right_soft, "1f3c3dd84923eb1dc8c87b87dbee5f23d3f6d3907064e7bc1d6f39fe20de1743"),
    (NEGHALF, right_soft, "3341ba04f0430eb7daa895a105f344e6523751380480888d9d0db58cf5e667d0"),
    (FIG2, rightmost, "5f4f0841a5c424b50345af56e0c5ca2dbc3833f084d6e45270bf61800fe16de4"),
    (FIG1X2, rightmost, "b7d48c17676c413dd518a42c6793a16f3f7def7eea44a974cddb0f79c46d8234"),
], ids=["negpop", "neghalf", "fig2", "fig1x2"])
def test_bench_exports_are_pinned_bit_for_bit(pop, pick, sha):
    # The other swap populations of the benchmark, the m* > 0 branch's
    # seed and zero phases included, pinned like FIG1 above.
    text = export_sequence(build_swap_sequence(pop, pick(pop)))
    assert hashlib.sha256(text.encode()).hexdigest() == sha


# 48 values spread over [-3, -0.5] and [0.5, 6]: the build holds 48 or 49
# value groups while it reflects, one source group at a time, and falls to
# 1 while it raises.
SPREAD48 = PopulationSpec(tuple((float(v), 10) for v in np.concatenate(
    (np.linspace(-3.0, -0.5, 24), np.linspace(0.5, 6.0, 24)))), 500)


def test_many_group_build_is_pinned_bit_for_bit():
    # Every bit of the records and of the pair sums at up to 49 value
    # groups, where every float row of the tracker sums many terms.
    states = build_swap_sequence(SPREAD48, rightmost(SPREAD48))
    assert len(states) == 711
    assert hashlib.sha256(export_sequence(states).encode()).hexdigest() == (
        "937de9827aed79a1f3f4d2a87fd752e31ed89305a6d52f771dc0eafb785d498c")
    assert hashlib.sha256(states[0]._tape.sums.tobytes()).hexdigest() == (
        "a7f9af692038a4f0e210ed73e124ac1429a807f5bb6ef318b8828e88e1583c3c")


@pytest.mark.parametrize("pop, edges, held", [
    (FIG1, {175: (0.8503610276675763, -1.5895093829529665, 0.9999999999999999),
            351: (0.9424612962984592, -1.586445030042938, 1.0000000000000002),
            651: (1.4885228597890103, -1.2950623803686518, 1.0),
            1000: (1.779996454132546, -1.2265282616441393, 1.0)}, {351: 3}),
    (FIG2, {200: (0.9816694917335885, -1.4702843187100838, 0.9999999999999999),
            401: (1.0637002631895751, -1.469057702760361, 1.0),
            800: (1.5874010519681996, -1.259921049894873, 0.9999999999999999)}, {401: 2}),
], ids=["fig1", "fig2"])
def test_one_value_reflection_moves_the_edges_by_rounding_only(pop, edges, held):
    # The edges as recorded when each reflect step moved its entry to
    # -1/(2m + 1/t) at that step's m, a few ulps apart from one another:
    # one value per source group moves them by rounding only, and no state
    # holds more than the k source values and the reflected one.
    states = build_swap_sequence(pop, rightmost(pop))
    for i, (e_star, m_star, gamma) in edges.items():
        edge = states[i].edge
        assert (edge.e_star, edge.m_star, edge.gamma) == pytest.approx(
            (e_star, m_star, gamma), rel=4e-15, abs=0)
    distinct = [np.unique(s.values).size for s in states]
    assert {i: distinct[i] for i in held} == held
    assert max(distinct) <= len(pop.entries) + 1


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


def test_not_swappable_for_an_m_value_step():
    # FIG1's first raise moves m* by 0.0038191, past phi/N = 0.002 at phi = 1.
    states = build_swap_sequence(FIG1, rightmost(FIG1))
    with pytest.raises(NotSwappable, match="m-value difference"):
        verify_swappable(states[350], states[351], phi=1.0)
    assert verify_swappable(states[350], states[351]).m_diff == pytest.approx(0.0038191, rel=1e-4)


@pytest.mark.parametrize("phi", [0.0, -1.0, math.nan], ids=["zero", "negative", "nan"])
def test_verify_rejects_a_budget_that_is_not_positive(phi):
    states = build_swap_sequence(FIG2, rightmost(FIG2))
    with pytest.raises(DomainError, match="phi must be positive"):
        verify_swappable(states[0], states[1], phi=phi)


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

    A reflect step moves the first entry of a pole to -1/(2m + 1/t), and
    each later entry of it, told by its source values rescaled step by step
    as the vector is, to the value that first entry holds then: within 32
    ulps of -1/(2m + 1/t) at its own step.  Returns the number of picks
    where distinct values share the chosen pole, so the first index among
    them decides.
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
        src, first = np.array([]), None
        while True:
            nz = v != 0.0
            poles = np.where(nz, -1.0 / np.where(nz, v, 1.0), -np.inf)
            cands = (nz & (poles > m)).nonzero()[0]
            if cands.size == 0:
                break
            idx = first_max_pole(cands, poles)
            target = -1.0 / (2.0 * m + 1.0 / v[idx])
            if v[idx] in src:
                assert abs(v[first] - target) <= 32 * np.spacing(abs(target))
                apply(idx, v[first], "reflect")
            else:
                src, first = np.unique(v[cands][poles[cands] == poles[idx]]), idx
                apply(idx, target, "reflect")
            src = src * states[pos].scale
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
    (NEGHALF, right_soft, 0), (POLE_TIE, rightmost, 1), (ZERO_BELOW, third, 0),
], ids=["fig1", "negpop", "fig2", "neghalf", "pole-tie", "zero-below"])
def test_picks_equal_the_full_vector_scans(pop, pick, ties):
    assert scan_picks(build_swap_sequence(pop, pick(pop))) == ties


# -- pair diagnostics over the value groups -------------------------------------

def rebuilt(state):
    """The same state as a directly constructed one, holding its vector."""
    return SwapState(state.values, state.n_dim, state.edge, state.step,
                     state.swapped_index, state.phase, state.gamma_drift)


@pytest.mark.parametrize("pop, pick", [(FIG1, rightmost), (FIG2, rightmost), (NEGPOP, right_soft),
                                       (ZERO_BELOW, third)],
                         ids=["fig1", "fig2", "negpop", "zero-below"])
def test_grouped_pair_diagnostics_match_the_vector_sums(pop, pick, monkeypatch):
    # A pair of tape neighbours reads the sums the builder measured over
    # the value groups; the same pair rebuilt from its vectors sums over
    # all M entries.
    states = build_swap_sequence(pop, pick(pop))
    fields = SwapDiagnostics._fields
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
    (FIG1, rightmost, "675eb7de7ddda47ab896f20eeea41f06d56420f64b3107a8882b131ed6e14539"),
    (NEGPOP, right_soft, "127b95d44f748b215c60e38f7ef75869ca238f6c0925e59b391ca2bae2e1c095"),
    (FIG2, rightmost, "71c01da6b806ae4c72820a940d5fbf0f78f519f87512fdb3f64d945b8503710f"),
], ids=["fig1", "negpop", "fig2"])
def test_pair_diagnostics_are_pinned_at_full_precision(pop, pick, sha):
    # Every field of every consecutive pair's diagnostics, as repr prints
    # the floats: the diagnostics CSV rounds them to 8 digits.
    states = build_swap_sequence(pop, pick(pop))
    fields = SwapDiagnostics._fields
    rows = [tuple(getattr(verify_swappable(a, b), f) for f in fields)
            for a, b in zip(states[:-1], states[1:])]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == sha


def swap_sweep():
    """tools/swap_sweep.py as a module."""
    path = Path(__file__).resolve().parents[1] / "tools" / "swap_sweep.py"
    spec = importlib.util.spec_from_file_location("swap_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_slice_of_the_swap_sweep_is_pinned_bit_for_bit():
    # The sweep's first 20 populations and the 3 whose builds it rejects,
    # hashed as its fingerprint hashes them: every regular soft edge built
    # at phi = inf, a left one reflected, through every phase of both
    # branches and the sign-rule rejection.
    sweep = swap_sweep()
    fingerprint = hashlib.sha256()
    for i, pop in enumerate(sweep.populations()):
        if i >= 20 and i not in (65, 72, 86):
            continue
        for edge in find_edges(pop).edges:
            if not check_regularity(pop, edge, sweep.TAU):
                continue
            try:
                states, _ = sweep.build(pop, edge)
            except SwapRejected as exc:
                fingerprint.update(f"{i} {edge.side} rejected: {exc}\n".encode())
                continue
            diags = [verify_swappable(a, b, math.inf) for a, b in zip(states[:-1], states[1:])]
            fingerprint.update(export_sequence(states).encode())
            fingerprint.update(repr([tuple(d) for d in diags]).encode())
    assert fingerprint.hexdigest() == (
        "080ee99350a873f80e84dcd02e01ced790c60e8f2140affa7c3d9906d9cd840e")


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
    # Reversed, the same entries hash to another digest.
    other = SwapState(vector[::-1], NEGPOP.n_dim, states[3].edge, 3, None, "done", 0.0)
    assert other.digest() == hashlib.sha256(vector[::-1].copy()).hexdigest()[:16]
    assert other.digest() != direct.digest()


def replayed(tape):
    """Every vector of a tape, replayed from its start and deltas on fresh arrays."""
    v = tape.start.copy()
    walk = [v]
    for idx, new_t, c in tape.deltas:
        v = v * c
        v[idx] = new_t * c
        walk.append(v)
    return walk


@pytest.mark.parametrize("pop, pick", [
    (FIG1, rightmost), (FIG2, rightmost), (NEGHALF, right_soft),
], ids=["fig1", "fig2", "neghalf"])
def test_stored_digests_hash_the_replayed_vectors(pop, pick):
    # The builder hashes each state as it makes it; every stored prefix is
    # the sha256 of the vector that a replay from scratch gives.
    states = build_swap_sequence(pop, pick(pop))
    walk = replayed(states[0]._tape)
    assert len(states[0]._tape.digests) == 8 * len(states) == 8 * len(walk)
    assert [s.digest() for s in states] == [hashlib.sha256(v).hexdigest()[:16] for v in walk]


def test_values_in_any_order_equal_the_replay():
    states = build_swap_sequence(FIG1, rightmost(FIG1))
    walk = [v.tobytes() for v in replayed(states[0]._tape)]
    shuffled = np.random.default_rng(27).permutation(len(states)).tolist()
    backward = list(range(len(states) - 1, -1, -1))
    for i in shuffled + backward + [5, 5, 700, 700, 0, 0]:
        assert states[i].values.tobytes() == walk[i]
    for a, b in zip(states[:-1], states[1:]):
        t, tc = a.values, b.values          # a pair read in turn, as verify_swappable reads it
        assert (t.tobytes(), tc.tobytes()) == (walk[a.step], walk[b.step])
    # A returned vector is the caller's own copy: writing into it changes
    # no later read, of the same state or of the next.
    held = states[500].values
    held[:] = 0.0
    assert states[500].values.tobytes() == walk[500]
    assert states[501].values.tobytes() == walk[501]


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
        vals, mults = _merged([v * c for v in vals], mults)
        merged += len(vals) < size
        values = values * c
        expect = np.unique(values[values != 0.0], return_counts=True)
        assert vals == expect[0].tolist() and mults == expect[1].tolist()
    assert merged > 0                   # rescaling did round distinct values together


def float_keys(xs):
    """Floats as keys equal exactly for equal bits, zeros' signs included;
    every nan alike."""
    return [x.hex() if x == x else "nan" for x in map(float, xs)]


@given(signed_populations(), st.data())
def test_root_pass_equals_the_row_and_the_separate_loops(pop, data):
    # At the tracked root one pass gives the kernel row, S = sum c/(q + t),
    # sum d|r|^3 and the pole test; each must have the bits of the loop it
    # replaces, on and off the poles.
    vals, mults = (a.tolist() for a in pop.nonzero())
    n = pop.n_dim
    p = [-v for v in reversed(vals)]
    pj = data.draw(st.sampled_from(p))
    pairs = [(pj - x, k * (v * v) / n) for x, v, k in zip(p, reversed(vals), reversed(mults))]
    s = data.draw(st.floats(-10.0, 10.0) | st.sampled_from([-o for o, _ in pairs]))
    centre = data.draw(st.floats(-10.0, 10.0) | st.sampled_from([1.0 / x for x in p]))
    lo = centre - data.draw(st.floats(0.0, 1.0))
    hi = centre + data.draw(st.floats(0.0, 1.0))
    g, total, cubes, crossed = _root_pass(pairs, vals, mults, n, s, lo, hi)
    total_loop = cubes_loop = 0.0
    for (o, w), k in zip(pairs, reversed(mults)):
        r = _div(1.0, s + o)
        total_loop += k / n * r
        cubes_loop += w * abs(r * r * r)
    assert float_keys(g) == float_keys(_g_row_floats(pairs, s))
    assert float_keys((total, cubes)) == float_keys((total_loop, cubes_loop))
    assert crossed == any(lo <= 1.0 / x <= hi for x in p)
