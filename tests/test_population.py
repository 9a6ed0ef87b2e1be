import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from specedge import PopulationSpec, from_values
from specedge.errors import PopulationError


def test_entries_merge_and_sort():
    pop = PopulationSpec(((2.0, 3), (-1.0, 4), (2.0, 7)), 10)
    assert pop.entries == ((-1.0, 4), (2.0, 10))
    assert pop.total_mult == 14
    assert pop.rank == 14


def test_zero_entries_merge_to_one():
    pop = PopulationSpec(((0.0, 3), (1.0, 2), (0.0, 5)), 10)
    assert pop.entries == ((0.0, 8), (1.0, 2))
    assert pop.rank == 2


def test_ratio_band_enforced():
    with pytest.raises(PopulationError):
        PopulationSpec(((1.0, 1),), 1000)   # M/N = 1/1000 < 1/20
    with pytest.raises(PopulationError):
        PopulationSpec(((1.0, 500),), 10)   # M/N = 50 > 20


def test_value_bound_and_finiteness():
    with pytest.raises(PopulationError):
        PopulationSpec(((2e3, 10),), 10)
    with pytest.raises(PopulationError):
        PopulationSpec(((float("nan"), 10),), 10)
    for t in (float("inf"), float("-inf")):
        with pytest.raises(PopulationError, match="non-finite diagonal value"):
            PopulationSpec(((t, 10),), 10)
    with pytest.raises(PopulationError, match="non-finite diagonal value inf"):
        PopulationSpec.from_json('{"entries": [{"t": 1e400, "mult": 10}], "n_dim": 10}')
    with pytest.raises(PopulationError):
        PopulationSpec(((1.0, 0),), 10)


@pytest.mark.parametrize("entries, n_dim", [(((1.0, True),), 1), (((1.0, 5),), True)],
                         ids=["mult", "n_dim"])
def test_boolean_counts_are_rejected(entries, n_dim):
    with pytest.raises(PopulationError, match="integer"):
        PopulationSpec(entries, n_dim)


def test_expand():
    pop = PopulationSpec(((-2.0, 2), (3.0, 1)), 3)
    assert list(pop.expand()) == [-2.0, -2.0, 3.0]


def test_derived_arrays_are_computed_once_and_read_only():
    pop = PopulationSpec(((-2.0, 2), (0.0, 1), (3.0, 1)), 4)
    arrays = [pop.values(), pop.mults(), *pop.nonzero(), pop.expand()]
    again = [pop.values(), pop.mults(), *pop.nonzero(), pop.expand()]
    assert all(a is b for a, b in zip(arrays, again))
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 7.0
    assert pop.nonzero()[0].tolist() == [-2.0, 3.0] and pop.nonzero()[1].tolist() == [2.0, 1.0]
    assert (pop.total_mult, pop.rank) == (4, 3)
    # The cache is no field: equality and hashing see the entries only.
    fresh = PopulationSpec(pop.entries, 4)
    assert fresh == pop and hash(fresh) == hash(pop)


def test_all_zero_population_arrays():
    pop = PopulationSpec(((0.0, 5),), 5)
    vals, mults = pop.nonzero()
    assert vals.shape == mults.shape == (0,) and vals.dtype == mults.dtype == float
    assert pop.rank == 0


def test_reflection_and_scaling():
    pop = PopulationSpec(((-2.0, 350), (0.5, 300), (6.0, 50)), 500)
    refl = pop.reflected()
    assert refl.entries == ((-6.0, 50), (-0.5, 300), (2.0, 350))
    scaled = pop.scaled(2.0)
    assert scaled.entries == ((-4.0, 350), (1.0, 300), (12.0, 50))
    with pytest.raises(PopulationError):
        pop.scaled(-1.0)


def test_json_round_trip():
    pop = PopulationSpec(((-1.0, 400), (4.0, 100)), 500)
    again = PopulationSpec.from_json(pop.to_json())
    assert again == pop


def test_malformed_documents():
    with pytest.raises(PopulationError):
        PopulationSpec.from_json("not json")
    with pytest.raises(PopulationError):
        PopulationSpec.from_json('{"n_dim": 10}')


@pytest.mark.parametrize("text, field", [
    ('{"n_dim": 10.7, "entries": [{"t": 1.0, "mult": 10}]}', "n_dim"),
    ('{"n_dim": true, "entries": [{"t": 1.0, "mult": 1}]}', "n_dim"),
    ('{"n_dim": "10", "entries": [{"t": 1.0, "mult": 10}]}', "n_dim"),
    ('{"n_dim": Infinity, "entries": [{"t": 1.0, "mult": 10}]}', "n_dim"),
    ('{"n_dim": 10, "entries": [{"t": 1.0, "mult": 8}, {"t": 2.0, "mult": 2.5}]}',
     "entries[1].mult"),
    ('{"n_dim": 10, "entries": [{"t": 1.0, "mult": true}]}', "entries[0].mult"),
    ('{"n_dim": 10, "entries": [{"t": 1.0, "mult": "10"}]}', "entries[0].mult"),
    ('{"n_dim": 10, "entries": [{"t": 1.0, "mult": NaN}]}', "entries[0].mult"),
], ids=["n_dim-fraction", "n_dim-bool", "n_dim-string", "n_dim-inf",
        "mult-fraction", "mult-bool", "mult-string", "mult-nan"])
def test_document_integers_are_read_exactly(text, field):
    # int() would truncate 10.7 to 10 and take true and "10": a different
    # population from the one the document describes.
    with pytest.raises(PopulationError, match=re.escape(field)):
        PopulationSpec.from_json(text)


@pytest.mark.parametrize("t", [True, "2.5", None, 10**400],
                         ids=["bool", "string", "null", "beyond-float"])
def test_document_values_must_be_numbers(t):
    # float() would read true as 1.0 and "2.5" as 2.5.  The constructor
    # reads its values by the document's rule.
    doc = {"n_dim": 10, "entries": [{"t": 1.0, "mult": 5}, {"t": t, "mult": 5}]}
    with pytest.raises(PopulationError, match=re.escape("entries[1].t must be a number")):
        PopulationSpec.from_dict(doc)
    with pytest.raises(PopulationError, match="diagonal value must be a number"):
        PopulationSpec(((1.0, 5), (t, 5)), 10)


def test_document_values_accept_integers_and_numpy_reals():
    doc = {"n_dim": 10, "entries": [{"t": 3, "mult": 5}, {"t": np.float32(0.5), "mult": 3},
                                    {"t": np.int64(-2), "mult": 2}]}
    pop = PopulationSpec.from_dict(doc)
    assert pop == PopulationSpec(((-2.0, 2), (0.5, 3), (3.0, 5)), 10)
    assert all(type(t) is float for t, _ in pop.entries)
    direct = PopulationSpec(tuple((e["t"], e["mult"]) for e in doc["entries"]), 10)
    assert repr(direct) == repr(pop)


def test_document_integers_accept_integral_floats():
    pop = PopulationSpec.from_json(
        '{"n_dim": 100.0, "entries": [{"t": 1.0, "mult": 60.0}, {"t": 3, "mult": 40}]}')
    assert pop == PopulationSpec(((1.0, 60), (3.0, 40)), 100)
    assert all(type(k) is int for _, k in pop.entries) and type(pop.n_dim) is int


def test_from_values_counts():
    pop = from_values([1.0, 1.0, -2.0, 0.0, 1.0], 5)
    assert pop.entries == ((-2.0, 1), (0.0, 1), (1.0, 3))


def merged_by_entry(entries):
    """The per-entry reading of a spec's entries, kept as the oracle of
    the bulk path: each pair checked in turn, equal values merged in a
    dict, then sorted.  Returns the entries, or the error message."""
    merged = {}
    for item in entries:
        try:
            t, mult = item
        except (TypeError, ValueError):
            return f"entry {item!r} is not a (value, multiplicity) pair"
        if not isinstance(t, (int, float, np.integer, np.floating)) or isinstance(t, bool):
            return f"diagonal value must be a number, got {t!r}"
        t = float(t)
        if not math.isfinite(t):
            return f"non-finite diagonal value {t!r}"
        if abs(t) > 1e3:
            return f"|t|={abs(t):g} exceeds the bound 1000"
        if not (isinstance(mult, (int, np.integer)) and not isinstance(mult, bool) and mult >= 1):
            return f"multiplicity {mult!r} is not a positive integer"
        merged[t] = merged.get(t, 0) + int(mult)
    return tuple(sorted(merged.items())) if merged else "population has no entries"


POOL = (-1000.0, -2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0, 7.25, 1000.0)
FAULTS = (float("nan"), float("inf"), -1e3 - 1e-9, (1.0,), (1.0, 2, 3), None)
# Faults by name: (0, value) puts a value that is no real number in an
# entry, (1, count) a count that is no positive integer.
NAMED_FAULTS = {"count-0": (1, 0), "count-bool": (1, True), "count-2.0": (1, 2.0),
                "value-bool": (0, True), "value-str": (0, "2.5"), "value-none": (0, None)}


@st.composite
def entry_lists(draw):
    """Pairs drawn from a small pool, so values repeat and 0.0 meets
    -0.0, or from the whole bound; as Python or numpy floats, integers
    where the value is integral, and Python or numpy counts; sorted or
    not, and now and then with a fault: a bad value, one that is no real
    number, a bad count or an entry that is no pair."""
    values = st.one_of(st.sampled_from(POOL), st.floats(-1e3, 1e3))
    pairs = draw(st.lists(st.tuples(values, st.integers(1, 9)), min_size=1, max_size=12))
    if draw(st.booleans()):
        pairs.sort(key=lambda p: p[0])
    kinds = st.sampled_from(("float", "float", "numpy", "int"))
    mixed = draw(st.booleans())
    out = []
    for t, k in pairs:
        kind = draw(kinds) if mixed else "float"
        if kind == "numpy":
            t = np.float64(t)
        elif kind == "int" and t.is_integer():
            t = int(t)
        out.append((t, np.int64(k) if mixed and draw(st.integers(0, 4)) == 0 else k))
    if draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, len(out) - 1))
        fault = draw(st.sampled_from(FAULTS + tuple(NAMED_FAULTS)))
        if isinstance(fault, str):
            at, bad = NAMED_FAULTS[fault]
            out[i] = (bad, out[i][1]) if at == 0 else (out[i][0], bad)
        elif isinstance(fault, float):
            out[i] = (fault, out[i][1])
        else:
            out[i] = fault
    return out


@given(entry_lists())
def test_bulk_path_matches_the_per_entry_reading(pairs):
    expect = merged_by_entry(pairs)
    for container in (tuple, list, iter):
        if isinstance(expect, str):
            with pytest.raises(PopulationError) as err:
                PopulationSpec(container(pairs), 10)
            assert str(err.value) == expect
            continue
        m = sum(k for _, k in expect)
        pop = PopulationSpec(container(pairs), m)
        # repr tells -0.0 from 0.0 and a numpy scalar from a Python number.
        assert repr(pop.entries) == repr(expect)
        assert (pop.total_mult, pop.rank) == (m, sum(k for t, k in expect if t != 0.0))
        assert PopulationSpec(pop.entries, m).entries is pop.entries
    if isinstance(expect, str):
        return
    doc = {"n_dim": m, "entries": [{"t": t, "mult": k} for t, k in pairs]}
    assert repr(PopulationSpec.from_dict(doc)) == repr(pop)
    assert repr(PopulationSpec.from_json(pop.to_json())) == repr(pop)


@pytest.mark.parametrize("entries, message", [
    ([{"t": 1.0, "mult": 2.5}, {"t": True, "mult": 5}],
     "entries[0].mult must be an integer, got 2.5"),
    ([{"t": 1.0}, {"mult": 5}], "malformed population document: 'mult'"),
    # An array entry raises IndexError on lookup, after entry 0's fault.
    ([{"t": True, "mult": 1}, np.array([1.0])], "entries[0].t must be a number, got True"),
], ids=["fraction-then-bool", "no-mult-then-no-t", "bool-then-array"])
def test_a_two_fault_document_names_its_first_fault(entries, message):
    with pytest.raises(PopulationError) as err:
        PopulationSpec.from_dict({"n_dim": 10, "entries": entries})
    assert str(err.value) == message
