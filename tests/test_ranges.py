"""Trace families: halfspace cuts, closure operators, interval fast path."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import (distinct_rand_point_set, interval_union_traces, run_union_masks,
                        union_polytope_system_ref)
from convexparts.errors import CapExceeded, InputError
from convexparts.geometry import point_set
from convexparts.ranges import halfspace_traces, intersect_close, union_close
from convexparts.rng import CounterRng
from convexparts.setsystems import vc_dim

LINE5 = point_set([[0], [1], [2], [3], [4]])

# rational unit-circle points, hexagonal convex position
CIRCLE6 = point_set([
    (1, 0),
    ("3/5", "4/5"),
    ("-3/5", "4/5"),
    (-1, 0),
    ("-3/5", "-4/5"),
    ("3/5", "-4/5"),
])

DIAMOND = point_set([(1, 0), (0, 1), (-1, 0), (0, -1)])


def test_collinear_halfspace_traces_are_prefixes_and_suffixes():
    tf = halfspace_traces(LINE5)
    assert tf.traces == (0, 1, 3, 7, 15, 16, 24, 28, 30, 31)
    assert len(tf) == 10


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_collinear_trace_count_is_two_n(n):
    ps = point_set([[i] for i in range(n)])
    assert len(halfspace_traces(ps)) == 2 * n


def test_collinear_count_survives_input_reordering():
    ps = point_set([[3], [0], [2], [5], [1]])
    tf = halfspace_traces(ps)
    assert len(tf) == 10
    # smallest value sits at index 1, so {1} is a trace but {0} is not
    assert 0b00010 in tf.traces
    assert 0b00001 not in tf.traces


def test_intersect_close_yields_intervals():
    tf = intersect_close(halfspace_traces(LINE5), 2)
    # every interval, plus the empty set: 5*6/2 + 1
    assert len(tf) == 16
    expected = {0}
    for i in range(5):
        for j in range(i, 5):
            expected.add(sum(1 << b for b in range(i, j + 1)))
    assert set(tf.traces) == expected


def test_union_close_counts_run_subsets():
    intervals = intersect_close(halfspace_traces(LINE5), 2)
    tf = union_close(intervals, 2)
    # subsets of 5 slots with at most 2 runs: C(6,0)+C(6,2)+C(6,4)
    assert len(tf) == 31


def test_depth_one_closures_only_add_the_neutral_trace():
    tf = halfspace_traces(LINE5)
    full = (1 << 5) - 1
    assert intersect_close(tf, 1).traces == tuple(sorted(set(tf.traces) | {full}))
    assert union_close(tf, 1).traces == tuple(sorted(set(tf.traces) | {0}))


def test_interval_fast_path_matches_polytope_route():
    for n, s in [(3, 1), (4, 2), (5, 2), (5, 3)]:
        ps = point_set([[i] for i in range(n)])
        fast = interval_union_traces(ps, s).to_set_system()
        slow = union_polytope_system_ref(ps, s, 2)
        assert fast == slow


def test_interval_fast_path_matches_exhaustive_run_filter():
    rng = CounterRng("ranges-interval")
    for _ in range(12):
        n = rng.randint(1, 7)
        s = rng.randint(1, 3)
        vals = [rng.randint(0, 4) for _ in range(n)]
        ps = point_set([[v] for v in vals])
        slots = {}
        for i, v in enumerate(vals):
            slots[v] = slots.get(v, 0) | 1 << i
        slot_masks = [slots[v] for v in sorted(slots)]
        assert set(interval_union_traces(ps, s).traces) == run_union_masks(slot_masks, s)


def test_coinciding_points_share_every_trace():
    ps = point_set([[0], [0], [1]])
    assert interval_union_traces(ps, 1).traces == (0, 3, 4, 7)


def test_convex_position_traces_are_cyclic_arcs():
    tf = halfspace_traces(CIRCLE6)
    # n(n-1) arcs plus empty and full
    assert len(tf) == 32
    n = 6
    full = (1 << n) - 1
    for m in tf.traces:
        rotated = (m << 1 | m >> (n - 1)) & full
        assert m in (0, full) or bin(m ^ rotated).count("1") == 2


def test_diamond_traces_exclude_diagonals():
    tf = halfspace_traces(DIAMOND)
    assert len(tf) == 14
    assert 0b0101 not in tf.traces
    assert 0b1010 not in tf.traces
    assert 0b0011 in tf.traces


def test_halfspace_traces_closed_under_complement():
    rng = CounterRng("ranges-complement")
    for n in (5, 6):
        ps = distinct_rand_point_set(rng, n, 2)
        tf = halfspace_traces(ps)
        full = (1 << n) - 1
        members = set(tf.traces)
        assert members == {full ^ m for m in members}


def test_halfspace_vc_dimension():
    assert vc_dim(halfspace_traces(LINE5).to_set_system()) == 2
    assert vc_dim(halfspace_traces(CIRCLE6).to_set_system()) == 3
    rng = CounterRng("ranges-vc")
    for n in (5, 6, 7):
        ps = distinct_rand_point_set(rng, n, 2)
        assert vc_dim(halfspace_traces(ps).to_set_system()) <= 3


def test_caps_and_validation():
    with pytest.raises(CapExceeded, match="^cap halfspace_traces_points=18 exceeded, needed 19$"):
        halfspace_traces(point_set([[i] for i in range(19)]))
    with pytest.raises(CapExceeded):
        union_close(intersect_close(halfspace_traces(LINE5), 2), 2, cap=20)
    with pytest.raises(InputError):
        intersect_close(halfspace_traces(LINE5), 0)
    with pytest.raises(InputError):
        union_close(halfspace_traces(LINE5), 0)
    with pytest.raises(InputError):
        interval_union_traces(DIAMOND, 2)
    with pytest.raises(InputError):
        interval_union_traces(LINE5, 0)


@settings(max_examples=40, deadline=None)
@given(
    vals=st.lists(st.integers(0, 4), min_size=1, max_size=6),
    s=st.integers(1, 3),
)
def test_interval_unions_grow_with_s(vals, s):
    ps = point_set([[v] for v in vals])
    small = set(interval_union_traces(ps, s).traces)
    large = set(interval_union_traces(ps, s + 1).traces)
    assert small <= large
    slots = {}
    for i, v in enumerate(vals):
        slots[v] = slots.get(v, 0) | 1 << i
    assert set(run_union_masks([slots[v] for v in sorted(slots)], s)) == small
