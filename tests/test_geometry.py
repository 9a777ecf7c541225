"""Hull primitives against independent oracles and frozen small cases."""

import itertools
from math import comb

import pytest
from bruteforce import (affine_dependence_ref, barycentric_in_triangle, circuit_table_ref,
                        distinct_rand_point_set, in_hull, integer_dependence_ref, rand_point_set,
                        segments_meet, strict_separator_ref, table_meets_ref)
from hypothesis import given, settings
from hypothesis import strategies as st

import convexparts.geometry as geometry
from convexparts.errors import InputError, PreconditionFailed
from convexparts.geometry import (
    Hyperplane,
    _lifted_rows,
    circuit_table,
    closed_cells_meet,
    hulls_common_point,
    make_hyperplane,
    point_set,
    strict_separator,
    verify_hulls_empty,
)
from convexparts.partitions import MeetOracle, good_radon_partition
from convexparts.rational import Rat
from convexparts.rng import CounterRng

# hexagon with its center appended as index 6
HEXAGON = [(2, 0), (1, 2), (-1, 2), (-2, 0), (-1, -2), (1, -2), (0, 0)]


def test_point_set_validation():
    with pytest.raises(InputError):
        point_set([])
    with pytest.raises(InputError):
        point_set([[1, 2], [3]])
    with pytest.raises(InputError):
        point_set([[1, 2]], labels=["a", "b"])
    with pytest.raises(TypeError):
        point_set([[0.5]])


def test_hexagon_center_three_hulls_meet_at_center():
    ps = point_set(HEXAGON)
    meet = hulls_common_point(ps, [(6,), (0, 2, 4), (1, 3, 5)])
    assert meet
    assert meet.point == (Rat(0), Rat(0))
    for w in meet.weights:
        assert sum(w, Rat(0)) == 1 and all(v >= 0 for v in w)


def test_disjoint_hulls_yield_checkable_farkas():
    ps = point_set([(0, 0), (1, 0), (0, 1), (5, 5), (6, 5), (5, 6)])
    meet = hulls_common_point(ps, [(0, 1, 2), (3, 4, 5)])
    assert not meet
    assert verify_hulls_empty(ps, meet.groups, meet.farkas)
    # corrupting the vector must break it
    bad = list(meet.farkas)
    bad[0] += 1
    assert not verify_hulls_empty(ps, meet.groups, bad)


def test_segment_meet_matches_interval_oracle():
    rng = CounterRng(11, "segments")
    for _ in range(60):
        coords = [rng.rat(32, 4) for _ in range(6)]
        ps = point_set([[c] for c in coords])
        groups = [(0, 1), (2, 3), (4, 5)]
        segs = [
            (min(coords[0], coords[1]), max(coords[0], coords[1])),
            (min(coords[2], coords[3]), max(coords[2], coords[3])),
            (min(coords[4], coords[5]), max(coords[4], coords[5])),
        ]
        assert bool(hulls_common_point(ps, groups)) == segments_meet(segs)


def test_in_hull_matches_triangle_oracle():
    rng = CounterRng(12, "triangle")
    checked = 0
    for _ in range(80):
        ps = rand_point_set(rng, 3, 2)
        p = (rng.rat(32, 4), rng.rat(32, 4))
        want = barycentric_in_triangle(p, *ps.points)
        if want is None:
            continue
        assert in_hull(ps, p, (0, 1, 2)) == want
        checked += 1
    assert checked > 40


def _separator_or_none(ps, S, T, meet):
    """strict_separator's hyperplane from meet, or None when it refuses
    meeting hulls, with their common point as the witness."""
    try:
        return strict_separator(ps, S, T, meet)
    except PreconditionFailed as err:
        assert meet and err.witness == meet.point
        return None


def test_separator_exists_iff_hulls_disjoint_exhaustive():
    for seed, n, d in [(1, 5, 2), (2, 6, 2), (3, 5, 3)]:
        rng = CounterRng(seed, "sep-iff")
        ps = rand_point_set(rng, n, d)
        idx = range(n)
        for ka in range(1, n):
            for A in itertools.combinations(idx, ka):
                rest = [i for i in idx if i not in A]
                for kb in range(1, len(rest) + 1):
                    for B in itertools.combinations(rest, kb):
                        # the separator reads the answer in the other group order
                        sep = _separator_or_none(ps, A, B, hulls_common_point(ps, (B, A)))
                        meet = hulls_common_point(ps, (A, B))
                        assert (sep is None) == bool(meet)
                        if sep is not None:
                            assert all(sep.side(ps.points[i]) <= -1 for i in A)
                            assert all(sep.side(ps.points[i]) >= 1 for i in B)


_SEP_COORDS = [Rat(num, den) for num in range(-4, 5) for den in (1, 2)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_separator_exists_iff_the_row_lp_finds_one(data):
    # repeated and collinear points are common, so are meeting hulls
    d = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(2, 7))
    pts = data.draw(st.lists(st.tuples(*[st.sampled_from(_SEP_COORDS)] * d),
                             min_size=n, max_size=n))
    sides = data.draw(st.lists(st.sampled_from("STx"), min_size=n, max_size=n))
    S = [i for i in range(n) if sides[i] == "S"]
    T = [i for i in range(n) if sides[i] == "T"]
    if not S or not T:
        return
    ps = point_set(pts)
    ref = strict_separator_ref(ps, S, T)
    for meet in (hulls_common_point(ps, (S, T)), hulls_common_point(ps, (T, S))):
        hp = _separator_or_none(ps, S, T, meet)
        assert (hp is None) == (ref is None)
        if hp is not None:
            assert all(hp.side(ps.points[i]) <= -1 for i in S)
            assert all(hp.side(ps.points[i]) >= 1 for i in T)


def test_separator_rejects_overlap():
    # groups that share a point meet, so no hyperplane separates them
    ps = point_set([(0, 0), (1, 1), (2, 0)])
    with pytest.raises(PreconditionFailed) as err:
        strict_separator(ps, (0, 1), (1, 2), hulls_common_point(ps, ((1, 2), (0, 1))))
    assert str(err.value) == "hulls of (1, 2) and (0, 1) share a point"
    assert err.value.witness == (1, 1)


# The classic Radon split of S is a good (1,1) bipartition: one hull per side,
# and the two hulls meet.

def _radon_split(ps, S):
    cert = good_radon_partition(ps, S, 1, 1)
    if cert is None:
        return None
    A, B = cert.partition
    return A, B, hulls_common_point(ps, (A, B)).point


def test_radon_square_splits_diagonals():
    ps = point_set([(0, 0), (1, 0), (0, 1), (1, 1)])
    A, B, point = _radon_split(ps, (0, 1, 2, 3))
    assert {frozenset(A), frozenset(B)} == {frozenset({0, 3}), frozenset({1, 2})}
    assert point == (Rat(1, 2), Rat(1, 2))


def test_radon_always_succeeds_on_dim_plus_two():
    for seed, d in [(21, 1), (22, 2), (23, 3)]:
        rng = CounterRng(seed, "radon")
        for _ in range(25):
            ps = rand_point_set(rng, d + 2, d)
            A, B, point = _radon_split(ps, range(d + 2))
            assert set(A) | set(B) == set(range(d + 2))
            assert not set(A) & set(B)
            assert A and B
            assert in_hull(ps, point, A) and in_hull(ps, point, B)


def test_radon_duplicates_and_degenerate_sets():
    ps = point_set([(1, 1), (1, 1), (9, 3)])
    A, B, point = _radon_split(ps, (0, 1))
    assert point == (Rat(1), Rat(1))
    # collinear triple in the plane: middle point inside the outer segment
    ps2 = point_set([(0, 0), (2, 2), (4, 4)])
    A, B, point = _radon_split(ps2, (0, 1, 2))
    assert in_hull(ps2, point, A) and in_hull(ps2, point, B)


def test_radon_finds_no_split_below_threshold_when_generic():
    ps = point_set([(0, 0), (4, 0), (0, 4)])
    assert _radon_split(ps, (0, 1, 2)) is None


def _dependence(points):
    """The canonical dependence of the per-subset reference, as rationals."""
    out = integer_dependence_ref(_lifted_rows(points), len(points))
    return None if out is None else [Rat(a, out[0]) for a in out[1]]


def test_affine_dependence_shape():
    assert _dependence([(Rat(0), Rat(0)), (Rat(1), Rat(0)), (Rat(0), Rat(1))]) is None
    alpha = _dependence([(Rat(0),), (Rat(1),), (Rat(2),)])
    assert alpha is not None
    assert sum(alpha, Rat(0)) == 0
    assert sum((a * p for a, p in zip(alpha, [Rat(0), Rat(1), Rat(2)])), Rat(0)) == 0
    assert any(a != 0 for a in alpha)


_SMALL_RATS = [Rat(num, den) for num in range(-3, 4) for den in (1, 2, 3)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(points=st.integers(1, 4).flatmap(lambda d: st.lists(
    st.tuples(*[st.sampled_from(_SMALL_RATS)] * d), min_size=1, max_size=7)))
def test_affine_dependence_matches_the_rat_routine(points):
    # repeats and shared coordinates are common, so so are dependences
    alpha = affine_dependence_ref(points)
    assert _dependence(points) == alpha
    # the walk lists the whole set iff its dependence has full support; a
    # circuit's only free column is its last, so the Rat vector ends in 1
    whole = tuple(range(len(points)))
    listed = [a for idx, a in circuit_table(point_set(points), whole).circuits if idx == whole]
    assert bool(listed) == (alpha is not None and all(alpha))
    if listed:
        assert [Rat(a, listed[0][-1]) for a in listed[0]] == alpha


@st.composite
def _flat_point_sets(draw):
    """(points, ground): up to 8 points in d = 1..4 on a random flat of
    dimension 0..d, so repeated, collinear and coplanar points are common,
    with a random nonempty sub-ground."""
    d = draw(st.integers(1, 4))
    coord = st.tuples(*[st.sampled_from(_SMALL_RATS)] * d)
    flat = draw(st.integers(0, d))
    base = draw(coord)
    dirs = draw(st.lists(coord, min_size=flat, max_size=flat))
    n = draw(st.integers(1, 8))
    points = []
    for _ in range(n):
        if flat == d:
            points.append(draw(coord))
            continue
        lam = draw(st.tuples(*[st.integers(-2, 2)] * flat))
        points.append(tuple(b + sum((w * v[c] for w, v in zip(lam, dirs)), Rat(0))
                            for c, b in enumerate(base)))
    ground = draw(st.one_of(st.just(tuple(range(n))),
                            st.sets(st.integers(0, n - 1), min_size=1).map(sorted)))
    return points, ground


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_flat_point_sets())
def test_circuit_walk_matches_the_per_subset_reference(case):
    points, ground = case
    ps = point_set(points)
    table, ref = circuit_table(ps, ground), circuit_table_ref(ps, ground)
    assert table.circuits == ref.circuits
    assert table.signed == ref.signed
    assert table.ground == ref.ground


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_flat_point_sets(), data=st.data())
def test_bucketed_meets_matches_the_full_scan(case, data):
    # the same grounds as the circuit walk's test: repeated, collinear and
    # coplanar points, and sub-grounds; random groups inside the ground,
    # overlapping or not, and every pair of single points
    points, ground = case
    ps = point_set(points)
    table = circuit_table(ps, ground)
    oracle = MeetOracle(ps, table)
    group = st.sets(st.sampled_from(ground), min_size=1).map(lambda g: sum(1 << i for i in g))
    pairs = data.draw(st.lists(st.tuples(group, group), min_size=1, max_size=20))
    pairs += [(1 << i, 1 << j) for i in ground for j in ground]
    for x, y in pairs:
        assert oracle.meets((x, y)) == table_meets_ref(table, x, y)


def _pivots_taken(monkeypatch, ps, ground):
    calls = []

    def counted(tab, r, c, div):
        calls.append(r)
        return pivot(tab, r, c, div)

    pivot = geometry._pivot
    with monkeypatch.context() as m:
        m.setattr(geometry, "_pivot", counted)
        table = circuit_table(ps, ground)
    assert table.circuits == circuit_table_ref(ps, ground).circuits
    return len(calls)


def _subset_bound(m, d):
    return sum(comb(m, k) for k in range(2, min(m, d + 2) + 1))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_circuit_walk_pivots_within_the_subset_count(monkeypatch, d):
    # the sum of C(m, k), k = 2..d+2, is what the circuit_table cap bounds
    moment = point_set([[t ** e for e in range(1, d + 1)] for t in range(8)])
    rng = CounterRng(d, "pivot-bound")
    for ps in (moment, rand_point_set(rng, 8, d), rand_point_set(rng, 3, d)):
        for ground in (range(len(ps)), range(1, len(ps), 2)):
            assert _pivots_taken(monkeypatch, ps, ground) <= _subset_bound(len(ground), d)


def test_circuit_walk_prunes_dependent_prefixes(monkeypatch):
    # 8 collinear points in the plane: every triple is dependent, so the
    # walk pivots only on singletons and pairs (7 + 21) of the 154 subsets
    line = point_set([(t, 2 * t + 1) for t in range(8)])
    assert _pivots_taken(monkeypatch, line, range(8)) < _subset_bound(8, 2)


def test_hyperplane_requires_nonzero_normal():
    with pytest.raises(InputError):
        make_hyperplane((0, 0), 1)


def test_closed_cells_meet_reports_farkas():
    a = [make_hyperplane((1, 0), 4)]
    b = [make_hyperplane((-1, 0), -1)]
    out = closed_cells_meet([a, b])
    assert not out.feasible and out.farkas is not None


def test_hull_disjoint_symmetric():
    rng = CounterRng(5, "disjoint-sym")
    ps = distinct_rand_point_set(rng, 6, 2)
    for A, B in [((0, 1), (2, 3)), ((0, 1, 2), (3, 4, 5)), ((4,), (0, 5))]:
        assert bool(hulls_common_point(ps, (A, B))) == bool(hulls_common_point(ps, (B, A)))
