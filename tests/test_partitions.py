"""Separability and r-fold cover oracles, searchers, and constructions."""

import ast
import itertools
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convexparts.geometry as geometry
import convexparts.partitions as partitions
from bruteforce import (build_r_separation_ref, distinct_rand_point_set, empty_cover_ref,
                        geometric_space,
                        geometric_space_ref, halfspace_traces_ref, in_hull,
                        rgs_partitions_exact_ref, rgs_partitions_ref, robust_separator_ref,
                        segments_meet, separation_targets_ref, stirling2_ref,
                        union_polytope_system_ref, unit_gap_ref)
from convexparts.combinat import mask_of, partitions_le_count, rgs_masks, stirling2
from convexparts.errors import CapExceeded, InputError, PreconditionFailed
from convexparts.geometry import circuit_table, hulls_common_point, point_set
from convexparts.partitions import (
    EmptyIntersectionCertificate,
    MeetOracle,
    SeparationCertificate,
    build_K_polyhedra,
    build_r_separation,
    good_radon_partition,
    good_tverberg_partition,
    joint_cover_empty,
    st_separable,
    st_separability_report,
    verify_empty_intersection,
    verify_good_partition,
    verify_r_separation,
    verify_separation,
)
from convexparts.ranges import halfspace_traces, intersect_close
from convexparts.rational import Rat
from convexparts.rng import CounterRng
from convexparts.serialize import canonical_bytes, r_separation_data

SQUARE = point_set([(0, 0), (1, 1), (1, 0), (0, 1)])
TRIANGLE = point_set([(0, 0), (4, 0), (0, 4)])
LINE = point_set([[0], [1], [2], [3], [4]])

PENTAGON = point_set([
    (1, 0),
    ("3/5", "4/5"),
    ("-4/5", "3/5"),
    ("-3/5", "-4/5"),
    ("4/5", "-3/5"),
])

HEXAGON = point_set([
    (1, 0),
    ("3/5", "4/5"),
    ("-3/5", "4/5"),
    (-1, 0),
    ("-3/5", "-4/5"),
    ("3/5", "-4/5"),
])


def test_separated_segments_on_a_line():
    ps = point_set([[0], [1], [5], [7]])
    cert = st_separable(ps, [0, 1], [2, 3], 1, 1)
    assert cert is not None
    assert len(cert.hyperplanes) == 1 and len(cert.hyperplanes[0]) == 1
    assert verify_separation(cert)


def test_square_diagonals_are_inseparable():
    assert st_separable(SQUARE, [0, 1], [2, 3], 1, 1) is None


def test_pentagon_every_bipartition_separates_with_two_groups():
    idx = range(5)
    for size in range(1, 5):
        for a in itertools.combinations(idx, size):
            b = tuple(i for i in idx if i not in a)
            cert = st_separable(PENTAGON, a, b, 2, 1)
            assert cert is not None, (a, b)
            assert verify_separation(cert)


def test_separability_report_counts_the_rejected_groupings():
    cert, tried, closed = st_separability_report(SQUARE, [0, 1], [2, 3], 1, 1)
    assert cert is None
    assert tried == closed == 1
    cert, tried, closed = st_separability_report(SQUARE, [0, 1], [2, 3], 2, 2)
    assert cert is not None
    assert closed == partitions_le_count(2, 2) ** 2 == 4
    assert tried <= closed


def test_grouping_walks_stop_past_the_cap():
    # the cap counts groupings tried, so a walk that ends within it runs
    # as before; the need reported is the closed form
    _, tried, _ = st_separability_report(SQUARE, [0, 1], [2, 3], 2, 2)
    assert st_separability_report(SQUARE, [0, 1], [2, 3], 2, 2, cap=tried)[1] == tried
    with pytest.raises(CapExceeded) as err:
        st_separability_report(SQUARE, [0, 1], [2, 3], 2, 2, cap=tried - 1)
    assert (err.value.cap_name, err.value.cap_value, err.value.needed) == (
        "separation_groupings", tried - 1, 4)
    # the radon search checks its 2^m - 2 bipartitions against the cap
    # first; on 9 collinear points at s = t = 3 its longest grouping walk,
    # 730 groupings, is longer than the 510 bipartitions
    line9 = point_set([[i] for i in range(9)])
    found = good_radon_partition(line9, range(9), 3, 3, cap=730)
    assert found.partition == ((1, 3, 5), (0, 2, 4, 6, 7, 8))
    with pytest.raises(CapExceeded) as err:
        good_radon_partition(line9, range(9), 3, 3, cap=729)
    assert (err.value.cap_name, err.value.needed) == ("separation_groupings", 1094)


def test_radon_search_checks_its_bipartitions_against_the_cap(monkeypatch):
    # 2^9 - 2 = 510 bipartitions against a cap of 200: refused before the
    # first candidate is walked
    ps = point_set([(-29, -7), (-18, 27), (-14, -26), (-9, -11), (-6, -11),
                    (-4, -20), (7, -30), (22, 8), (29, -21)])
    walked = []
    monkeypatch.setattr(partitions, "_candidate_good", lambda *args: walked.append(args))
    with pytest.raises(CapExceeded) as err:
        good_radon_partition(ps, range(9), 2, 2, cap=200)
    assert (err.value.cap_name, err.value.cap_value, err.value.needed) == (
        "radon_bipartitions", 200, 510)
    assert not walked


def test_separability_input_errors():
    with pytest.raises(InputError):
        st_separable(SQUARE, [0, 1], [1, 2], 1, 1)
    with pytest.raises(InputError):
        st_separable(SQUARE, [], [1, 2], 1, 1)
    with pytest.raises(InputError):
        st_separable(SQUARE, [0], [1], 0, 1)


def test_radon_search_on_four_planar_points():
    rng = CounterRng("radon4")
    for ps in [SQUARE] + [distinct_rand_point_set(rng, 4, 2) for _ in range(6)]:
        cert = good_radon_partition(ps, range(4), 1, 1)
        if cert is None:
            # only degenerate-free sets are guaranteed; ours are random
            continue
        a, b = cert.partition
        assert hulls_common_point(ps, (a, b))
        assert cert.enumerated == cert.closed_form == 1
    cert = good_radon_partition(SQUARE, range(4), 1, 1)
    assert cert.partition == ((0, 1), (2, 3))


def test_triangle_has_no_good_bipartition():
    assert good_radon_partition(TRIANGLE, range(3), 1, 1) is None


def test_pentagon_good_partition_needs_six_points():
    assert good_radon_partition(PENTAGON, range(5), 2, 1) is None
    cert = good_radon_partition(HEXAGON, range(6), 2, 1)
    assert cert is not None
    a, b = cert.partition
    assert cert.enumerated == cert.closed_form
    assert joint_cover_empty(HEXAGON, [a, b], [2, 1]) is None


def test_two_part_cover_oracle_matches_separability():
    rng = CounterRng("cover-vs-sep")
    for trial in range(4):
        ps = distinct_rand_point_set(rng, 5, 2)
        for size in range(1, 5):
            for a in itertools.combinations(range(5), size):
                b = tuple(i for i in range(5) if i not in a)
                for s, t in [(1, 1), (2, 1), (2, 2)]:
                    sep = st_separable(ps, a, b, s, t)
                    cov = joint_cover_empty(ps, [a, b], [s, t])
                    assert (sep is None) == (cov is None)
                    if cov is not None:
                        assert verify_empty_intersection(cov)


def test_five_collinear_points_force_triple_intersection():
    # the classic interleaved partition cannot be emptied
    assert joint_cover_empty(LINE, [(2,), (0, 3), (1, 4)], [1, 1, 1]) is None


def test_four_collinear_points_admit_an_empty_cover():
    ps = point_set([[0], [1], [2], [3]])
    hits = 0
    for labels in itertools.product(range(3), repeat=4):
        parts = [tuple(i for i in range(4) if labels[i] == c) for c in range(3)]
        if any(not p for p in parts):
            continue
        cert = joint_cover_empty(ps, parts, [1, 1, 1])
        if cert is not None:
            assert verify_empty_intersection(cert)
            hits += 1
    assert hits > 0
    assert good_tverberg_partition(ps, range(4), 3, 1) is None


def test_tverberg_search_on_five_collinear_points():
    cert = good_tverberg_partition(LINE, range(5), 3, 1)
    assert cert is not None
    assert cert.partition == ((0, 3), (1, 4), (2,))
    # independent route: first exact-3 partition whose intervals share a point
    for parts in rgs_partitions_exact_ref(range(5), 3):
        segs = [(min(p), max(p)) for p in parts]
        if segments_meet(segs):
            assert parts == cert.partition
            break
    assert cert.enumerated == cert.closed_form == 1


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sets(st.integers(0, 12), max_size=8), st.integers(0, 5), st.integers(0, 5))
def test_mask_partitions_are_the_tuple_partitions(points, max_blocks, min_blocks):
    bits = [1 << i for i in sorted(points)]
    assert list(rgs_masks(bits, max_blocks, min_blocks)) == [
        tuple(map(sum, p)) for p in rgs_partitions_ref(bits, max_blocks)
        if len(p) >= min_blocks]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 9), st.integers(0, 10))
def test_exact_partitions_match_the_filtering_reference(n, blocks):
    bits = [1 << i for i in range(n)]
    assert list(rgs_masks(bits, blocks, blocks)) == [
        tuple(map(sum, p)) for p in rgs_partitions_exact_ref(bits, blocks)]


def test_exact_partitions_near_the_item_count_are_walked_directly():
    # 20 items into at most 18 blocks are about 5.2e13 partitions; the
    # pruned walk reaches only the S(20, 18) with exactly 18
    bits = [1 << i for i in range(20)]
    assert sum(1 for _ in rgs_masks(bits, 18, 18)) == stirling2(20, 18) == 15675


def test_stirling_numbers_match_the_recursive_reference():
    for n in range(61):
        for k in range(n + 1):
            assert stirling2(n, k) == stirling2_ref(n, k)
        for kmax in range(n + 2):
            assert partitions_le_count(n, kmax) == (
                1 if n == 0 else sum(stirling2_ref(n, k) for k in range(1, min(n, kmax) + 1)))


def test_stirling_numbers_of_large_sets_need_no_recursion():
    # the reference recursion is n frames deep and fails well before n = 1000
    assert stirling2(1000, 2) == 2 ** 999 - 1
    assert partitions_le_count(600, 2) == 2 ** 599
    assert stirling2(700, 700) == stirling2(700, 1) == 1


def test_tverberg_search_on_hexagon_with_center():
    ps = point_set([(2, 0), (1, 2), (-1, 2), (-2, 0), (-1, -2), (1, -2), (0, 0)])
    cert = good_tverberg_partition(ps, range(7), 3, 1)
    assert cert is not None
    assert hulls_common_point(ps, cert.partition)


def test_periodic_partition_is_good_for_seven_collinear_points():
    ps = point_set([[i] for i in range(7)])
    periodic = ((0, 2, 4, 6), (1, 3, 5))
    assert joint_cover_empty(ps, periodic, [2, 2]) is None
    cert = good_tverberg_partition(ps, range(7), 2, 2)
    assert cert is not None
    assert cert.params == {"s_list": (2, 2)}


def test_tverberg_validation_and_caps():
    with pytest.raises(InputError):
        good_tverberg_partition(LINE, range(5), 1, 1)
    with pytest.raises(InputError):
        good_tverberg_partition(LINE, range(2), 3, 1)
    with pytest.raises(InputError):
        joint_cover_empty(LINE, [(0, 1), (1, 2)], [1, 1])
    with pytest.raises(InputError):
        joint_cover_empty(LINE, [(0, 1), (2, 3)], [1])
    with pytest.raises(CapExceeded):
        good_tverberg_partition(LINE, range(5), 3, 1, cap=10)


def test_cover_walks_stop_past_the_cap():
    # the cap counts combinations tried, as for separate: (0, 3) against
    # (1, 2) first misses on the third of its 4 grouping pairs
    found = joint_cover_empty(LINE, [(0, 3), (1, 2)], [2, 2])
    assert found.covers == (((0,), (3,)), ((1, 2),))
    assert joint_cover_empty(LINE, [(0, 3), (1, 2)], [2, 2], cap=3) == found
    with pytest.raises(CapExceeded) as err:
        joint_cover_empty(LINE, [(0, 3), (1, 2)], [2, 2], cap=2)
    assert (err.value.cap_name, err.value.cap_value, err.value.needed) == (
        "separation_groupings", 2, 4)
    # on 7 collinear points at s = 3, the longest candidate walk is 82 of
    # the 122 combinations of ((0, 2, 3, 4, 5, 6), (1,)), above the 63
    # partitions and the 56 subsets of the circuit table
    ps = point_set([[i] for i in range(7)])
    found = good_tverberg_partition(ps, range(7), 2, 3)
    assert found.partition == ((0, 2, 4, 6), (1, 3, 5))
    assert found.enumerated == found.closed_form == 70
    assert good_tverberg_partition(ps, range(7), 2, 3, cap=82) == found
    with pytest.raises(CapExceeded) as err:
        good_tverberg_partition(ps, range(7), 2, 3, cap=81)
    assert (err.value.cap_name, err.value.cap_value, err.value.needed) == (
        "separation_groupings", 81, 122)


def test_heterogeneous_bounds_try_block_assignments():
    # A needs the larger bound: its two points straddle B
    ps = point_set([[0], [10], [4], [5]])
    cert = good_tverberg_partition(ps, range(4), 2, [1, 1])
    assert cert is None or hulls_common_point(ps, cert.partition)
    cert = joint_cover_empty(ps, [(0, 1), (2, 3)], [2, 1])
    assert cert is not None
    assert tuple(map(len, cert.covers)) == (2, 1)


def test_build_K_two_segments():
    ps = point_set([[0], [1], [5], [7]])
    ks = build_K_polyhedra(MeetOracle(ps), [(0, 1)], [(2, 3)])
    assert len(ks) == 1 and len(ks[0]) == 1
    h = ks[0][0]
    assert h.side(ps.points[0]) >= 1 and h.side(ps.points[2]) <= -1


def test_build_K_wedge_covers_both_groups():
    # A's two clusters flank B
    ps = point_set([(0, 0), (0, 1), (10, 0), (10, 1), (5, 0), (5, 1)])
    ks = build_K_polyhedra(MeetOracle(ps), [(0, 1), (2, 3)], [(4, 5)])
    assert [len(k) for k in ks] == [1, 1]
    for grp, k in zip([(0, 1), (2, 3)], ks):
        for i in grp:
            assert all(h.side(ps.points[i]) >= 1 for h in k)
    for i in (4, 5):
        assert all(any(h.side(ps.points[i]) <= -1 for h in k) for k in ks)


def test_build_K_random_configurations_hold_their_postconditions():
    rng = CounterRng("buildk")
    done = 0
    while done < 100:
        d = rng.randint(1, 3)
        s = rng.randint(1, 3)
        t = rng.randint(1, 3)
        na = rng.randint(s, 2 * s)
        nb = rng.randint(t, 2 * t)
        ps = distinct_rand_point_set(rng, na + nb, d)
        a_groups = [tuple(range(k, na, s)) for k in range(s)]
        b_groups = [tuple(range(na + k, na + nb, t)) for k in range(t)]
        try:
            ks = build_K_polyhedra(MeetOracle(ps), a_groups, b_groups)
        except PreconditionFailed as err:
            assert err.witness is not None
            continue
        done += 1
        assert all(len(k) <= t for k in ks)
        for grp, k in zip(a_groups, ks):
            for i in grp:
                assert all(h.side(ps.points[i]) > 0 for h in k)
        for i in range(na, na + nb):
            for k in ks:
                assert any(h.side(ps.points[i]) < 0 for h in k)


def test_build_K_rejects_crossing_hulls_with_a_witness():
    with pytest.raises(PreconditionFailed) as exc:
        build_K_polyhedra(MeetOracle(SQUARE), [(0, 1)], [(2, 3)])
    w = exc.value.witness
    assert w is not None
    assert in_hull(SQUARE, w, (0, 1)) and in_hull(SQUARE, w, (2, 3))


def test_r_separation_reduces_to_pairwise_for_two_covers():
    ps = point_set([[0], [1], [5], [7]])
    cert = joint_cover_empty(ps, [(0, 1), (2, 3)], [1, 1])
    assert cert.covers == (((0, 1),), ((2, 3),))
    sep = build_r_separation(cert)
    assert (sep.ps, sep.covers) == (ps, cert.covers)
    assert sep.facet_counts == ((1,), (1,))
    assert verify_r_separation(sep)


def test_r_separation_interleaved_line():
    ps = point_set([[0], [30], [10], [40], [20], [50]])
    cert = joint_cover_empty(ps, [(0, 1), (2, 3), (4, 5)], [2, 2, 2])
    assert cert is not None
    # canonical grouping order splits only the middle part
    assert tuple(map(len, cert.covers)) == (1, 2, 1)
    sep = build_r_separation(cert)
    assert verify_r_separation(sep)
    for counts, bound in zip(sep.facet_counts, (2, 1, 2)):
        assert all(c <= bound for c in counts)
    assert len(sep.emptiness) == 2


def test_r_separation_random_planar_instances():
    rng = CounterRng("rsep")
    hits = 0
    for trial in range(14):
        ps = distinct_rand_point_set(rng, 6, 2, num_bound=16, den=4)
        parts = [(0, 1), (2, 3), (4, 5)]
        cert = joint_cover_empty(ps, parts, [2, 2, 2])
        if cert is None:
            continue
        hits += 1
        sep = build_r_separation(cert)
        assert verify_r_separation(sep)
        for counts in sep.facet_counts:
            assert all(c <= 4 for c in counts)
    assert hits >= 3


_SMALL = [Rat(num, den) for num in range(-4, 5) for den in (1, 2)]


def _points_and_labels(data, labels):
    """A drawn point set of 3-6 points in R^1 or R^2, and a label per point."""
    d = data.draw(st.integers(1, 2))
    n = data.draw(st.integers(3, 6))
    pts = data.draw(st.lists(st.tuples(*[st.sampled_from(_SMALL)] * d),
                             min_size=n, max_size=n))
    return point_set(pts), data.draw(st.lists(st.sampled_from(labels), min_size=n,
                                              max_size=n))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_built_separations_verify(data):
    ps, sides = _points_and_labels(data, "ABx")
    a = [i for i, c in enumerate(sides) if c == "A"]
    b = [i for i, c in enumerate(sides) if c == "B"]
    if not a or not b:
        return
    s, t = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
    cert = st_separable(ps, a, b, s, t)
    if cert is None:
        return
    assert verify_separation(cert)
    # with a circuit table the oracle solves the pair's LP on demand
    oracle = MeetOracle(ps, circuit_table(ps, range(len(ps))))
    ks = build_K_polyhedra(oracle, cert.a_groups, cert.b_groups)
    assert verify_separation(SeparationCertificate(ps, cert.a_groups, cert.b_groups, ks))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_built_r_separations_keep_the_unit_gap_of_the_dual_lp_reference(data):
    r = data.draw(st.integers(2, 3))
    ps, labels = _points_and_labels(data, range(r))
    parts = [[i for i, c in enumerate(labels) if c == k] for k in range(r)]
    if not all(parts):
        return
    cert = joint_cover_empty(ps, parts, data.draw(st.lists(st.integers(1, 2),
                                                           min_size=r, max_size=r)))
    if cert is None:
        return
    sep = build_r_separation(cert)
    assert verify_r_separation(sep)
    for i, cov in enumerate(cert.covers):
        # one facet per nonempty target, in the reference's target order
        targets = separation_targets_ref(ps, cert.covers, sep.unions, i)
        for grp, piece in zip(cov, sep.unions[i]):
            assert len(piece) == len(targets)
            for hp, target in zip(piece, targets):
                ref = robust_separator_ref(ps, grp, *target)
                for h in (hp, ref):
                    assert all(h.side(ps.points[k]) >= 1 for k in grp)
                    assert unit_gap_ref(h, *target)


def test_r_separation_rejects_a_bad_certificate():
    ps = point_set([[0], [1], [5], [7]])
    good = joint_cover_empty(ps, [(0, 1), (2, 3)], [1, 1])
    # meeting covers under this one's witnesses, and witnesses whose
    # Farkas vectors are zeroed
    zeroed = tuple(replace(w, farkas=(0,) * len(w.farkas)) for w in good.witnesses)
    for bad in (replace(good, covers=(((0, 2),), ((1, 3),))),
                replace(good, witnesses=zeroed)):
        with pytest.raises(PreconditionFailed):
            build_r_separation(bad)


def test_r_separation_rejects_a_cover_with_no_group():
    # build-separation --parts 0,1;2,3 --s 1 on the 4-point line, then
    # cover 0 emptied: no cross choice is left to refute, so it claims nothing
    ps = point_set([[0], [1], [2], [3]])
    sep = build_r_separation(joint_cover_empty(ps, [(0, 1), (2, 3)], [1, 1]))
    assert verify_r_separation(sep)
    tampered = replace(sep, covers=((), ((2, 3),)), unions=((), ((),)), emptiness=())
    assert not verify_r_separation(tampered)


def test_r_separation_refuses_a_certificate_with_an_empty_cover():
    # the library checker accepts a cover with no group, which leaves no
    # cross tuple to refute; the construction refuses it before any target
    cert = EmptyIntersectionCertificate(point_set([[0], [1], [2]]),
                                        (((0,),), ((1,),), ()), ())
    assert verify_empty_intersection(cert)
    with pytest.raises(PreconditionFailed):
        build_r_separation(cert)


def _same_separation_as_the_product_walk(cert):
    ours = canonical_bytes(r_separation_data(build_r_separation(cert)))
    assert ours == canonical_bytes(r_separation_data(build_r_separation_ref(cert)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_r_separation_matches_the_product_walk_on_singleton_parts_of_a_line(data):
    k = data.draw(st.integers(3, 12))
    coords = data.draw(st.lists(st.integers(-20, 20), min_size=k, max_size=k, unique=True))
    ps = point_set([[c] for c in coords])
    # every point its own part, but for up to two points moved into another part
    labels = list(range(k))
    for _ in range(data.draw(st.integers(0, 2))):
        labels[data.draw(st.integers(0, k - 1))] = data.draw(st.integers(0, k - 1))
    parts = [p for p in ([i for i in range(k) if labels[i] == c] for c in range(k)) if p]
    if len(parts) < 2:
        return
    s_list = data.draw(st.lists(st.integers(1, 2), min_size=len(parts), max_size=len(parts)))
    _same_separation_as_the_product_walk(joint_cover_empty(ps, parts, s_list))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_r_separation_matches_the_product_walk_on_random_parts(data):
    # on the line, random parts interleave, so covers split into two groups
    d, r = data.draw(st.integers(1, 3)), data.draw(st.integers(2, 4))
    n = data.draw(st.integers(r, 7))
    pts = data.draw(st.lists(st.tuples(*[st.sampled_from(_SMALL)] * d),
                             min_size=n, max_size=n, unique=True))
    labels = list(range(r)) + data.draw(st.lists(st.integers(0, r - 1), min_size=n - r,
                                                  max_size=n - r))
    parts = [[i for i in range(n) if labels[i] == c] for c in range(r)]
    s_list = data.draw(st.lists(st.integers(1, 2), min_size=r, max_size=r))
    cert = joint_cover_empty(point_set(pts), parts, s_list)
    if cert is not None:
        _same_separation_as_the_product_walk(cert)


@pytest.mark.parametrize("n, r, s", [(8, 3, 2), (9, 3, 3), (10, 3, 3), (8, 4, 2), (12, 3, 4)])
def test_r_separation_matches_the_product_walk_on_periodic_parts_of_a_line(n, r, s):
    # interleaved parts split into several groups, so targets cross pieces
    ps = point_set([[i] for i in range(n)])
    cert = joint_cover_empty(ps, [range(c, n, r) for c in range(r)], [s] * r)
    assert max(map(len, cert.covers)) > 1
    _same_separation_as_the_product_walk(cert)


def test_r_separation_of_sixty_singleton_parts_solves_only_pair_lps(monkeypatch):
    # the product walk asks cover 0's target, the other 59 hulls, as one LP
    ps = point_set([[i] for i in range(60)])
    cert = joint_cover_empty(ps, [(i,) for i in range(60)], [1] * 60)
    solve, arities = partitions.hulls_common_point, []

    def spy(ps, groups, halfspaces=()):
        arities.append(len(groups))
        return solve(ps, groups, halfspaces)

    monkeypatch.setattr(partitions, "hulls_common_point", spy)
    sep = build_r_separation(cert)
    assert verify_r_separation(sep)
    assert arities and max(arities) <= 2


def test_separability_agrees_with_closed_trace_families():
    # s groups against one convex set: B must fit a trace of an
    # (<= s)-facet polyhedron that excludes A
    rng = CounterRng("trace-cross")
    for ps in [HEXAGON, distinct_rand_point_set(rng, 7, 2, num_bound=16, den=4)]:
        n = len(ps.points)
        traces = set(intersect_close(halfspace_traces(ps), 2).traces)
        for size in range(1, n):
            for a in itertools.combinations(range(n), size):
                b = tuple(i for i in range(n) if i not in a)
                separable = st_separable(ps, a, b, 2, 1) is not None
                amask, bmask = mask_of(a, n), mask_of(b, n)
                witnessed = any(
                    bmask & e == bmask and e & amask == 0 for e in traces)
                assert separable == witnessed, (a, b)


def test_separable_side_is_a_union_polytope_trace():
    rng = CounterRng("trace-oneside")
    ps = distinct_rand_point_set(rng, 5, 2, num_bound=16, den=4)
    edges = set(union_polytope_system_ref(ps, 2, 2).edges)
    for size in range(1, 5):
        for a in itertools.combinations(range(5), size):
            b = tuple(i for i in range(5) if i not in a)
            if st_separable(ps, a, b, 2, 2) is not None:
                assert mask_of(a, 5) in edges, a


def test_good_partitions_survive_the_cover_oracle():
    rng = CounterRng("radon-vs-cover")
    for trial in range(6):
        ps = distinct_rand_point_set(rng, 5, 2)
        cert = good_radon_partition(ps, range(5), 1, 1)
        if cert is not None:
            a, b = cert.partition
            assert joint_cover_empty(ps, [a, b], [1, 1]) is None


@st.composite
def small_point_sets(draw):
    """d = 1..3, n <= 7: free integer points, or degenerate ones (points on
    a line or a plane, or coordinates from {0, 1}, repeats allowed)."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(2, 7))
    shape = draw(st.sampled_from(("free", "shared", "line", "plane")))
    coord = st.integers(-4, 4)
    if shape == "free":
        return point_set([draw(st.tuples(*[coord] * d)) for _ in range(n)])
    if shape == "shared":
        return point_set([draw(st.tuples(*[st.integers(0, 1)] * d)) for _ in range(n)])
    base = draw(st.tuples(*[coord] * d))
    spans = [draw(st.tuples(*[coord] * d)) for _ in range(1 if shape == "line" else 2)]
    rows = []
    for _ in range(n):
        steps = [draw(st.integers(-3, 3)) for _ in spans]
        rows.append(tuple(b + sum(k * v[c] for k, v in zip(steps, spans))
                          for c, b in enumerate(base)))
    return point_set(rows)


def _disjoint_groups(n, r):
    """Every set of r pairwise disjoint nonempty index groups, once each."""
    out = []
    for labels in itertools.product(range(r + 1), repeat=n):
        groups = tuple(tuple(i for i in range(n) if labels[i] == g)
                       for g in range(1, r + 1))
        if all(groups) and list(groups) == sorted(groups):
            out.append(groups)
    return out


def _masks(ps, groups):
    return tuple(mask_of(g, len(ps.points)) for g in groups)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(ps=small_point_sets(), rnd=st.randoms(use_true_random=False))
def test_oracle_agrees_with_the_lp_in_any_order(ps, rnd):
    # Inferred verdicts depend on what was asked first, so ask at random.
    # Every pair and triple up to n = 5; a random 120 of them beyond, which
    # bounds the time of the reference LPs (a triple in R^3 takes ~20 ms).
    n = len(ps.points)
    questions = _disjoint_groups(n, 2) + _disjoint_groups(n, 3)
    rnd.shuffle(questions)
    oracle = MeetOracle(ps)
    for groups in questions[:120]:
        assert oracle.meets(_masks(ps, groups)) == bool(hulls_common_point(ps, groups)), groups


def test_radon_search_solves_fewer_lps_than_it_asks_pairs(monkeypatch):
    # exhausted, so every candidate bipartition is searched
    ps = point_set(CounterRng("bench7").distinct_points(7, 2))
    asked = set()
    lp_calls = []
    meets, lp_feasible = MeetOracle.meets, geometry.lp_feasible

    def counted_meets(self, groups):
        asked.add(tuple(sorted(groups)))
        return meets(self, groups)

    def counted_lp(*args, **kwargs):
        lp_calls.append(1)
        return lp_feasible(*args, **kwargs)

    monkeypatch.setattr(MeetOracle, "meets", counted_meets)
    monkeypatch.setattr(geometry, "lp_feasible", counted_lp)
    assert good_radon_partition(ps, range(7), 2, 2) is None
    assert all(len(key) == 2 for key in asked)
    assert len(lp_calls) < len(asked)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(ps=small_point_sets(), rnd=st.randoms(use_true_random=False))
def test_circuit_table_agrees_with_the_lp_on_pairs(ps, rnd):
    # every pair up to n = 5 (at most 90), a random 120 beyond
    n = len(ps.points)
    questions = _disjoint_groups(n, 2)
    rnd.shuffle(questions)
    oracle = MeetOracle(ps, circuit_table(ps, range(n)))
    for groups in questions[:120]:
        assert oracle.meets(_masks(ps, groups)) == bool(hulls_common_point(ps, groups)), groups


def test_table_oracle_asks_the_lp_outside_its_ground():
    # the table of the first four points knows no circuit through point 4
    ps = point_set([(0, 0), (4, 0), (0, 4), (4, 4), (1, 1)])
    oracle = MeetOracle(ps, circuit_table(ps, range(4)))
    assert oracle.meets((0b1001, 0b0110))
    assert oracle.meets((0b00111, 0b10000))
    assert not oracle.meets((0b00110, 0b10000))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(ps=small_point_sets())
def test_every_circuit_is_a_full_support_dependence(ps):
    for idx, alpha in circuit_table(ps, range(len(ps.points))).circuits:
        assert 2 <= len(idx) <= ps.dim + 2 and len(alpha) == len(idx)
        assert all(isinstance(a, int) and a != 0 for a in alpha), (idx, alpha)
        assert sum(alpha) == 0
        for c in range(ps.dim):
            assert sum(a * ps.points[i][c] for i, a in zip(idx, alpha)) == 0


@settings(max_examples=30, deadline=None, derandomize=True)
@given(ps=small_point_sets())
def test_halfspace_traces_match_the_lp_reference(ps):
    assert halfspace_traces(ps) == halfspace_traces_ref(ps)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(ps=small_point_sets())
def test_geometric_space_matches_the_lp_reference(ps):
    assert geometric_space(ps) == geometric_space_ref(ps)


class RecordingOracle(MeetOracle):
    """A MeetOracle that logs every question asked of it, in order."""

    def __init__(self, ps, table=None):
        super().__init__(ps, table)
        self.log = []

    def meets(self, groups):
        self.log.append(("meets", tuple(groups)))
        return super().meets(groups)

    def intersection(self, groups):
        self.log.append(("intersection", tuple(groups)))
        return super().intersection(groups)


@st.composite
def cover_walks(draw, r):
    """A point set in R^1..R^3 with r disjoint parts of it (points may be
    left out) and a group bound per part."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(r + 2, 7))
    ps = point_set([draw(st.tuples(*[st.integers(0, 3)] * d)) for _ in range(n)])
    labels = list(range(r)) + [draw(st.integers(-1, r - 1)) for _ in range(n - r)]
    labels = draw(st.permutations(labels))
    parts = [tuple(i for i in range(n) if labels[i] == c) for c in range(r)]
    s_list = [draw(st.integers(2, 3)) for _ in range(2)] + [
        draw(st.integers(1, 2)) for _ in range(r - 2)]
    return ps, parts, s_list


@pytest.mark.parametrize("table", [False, True], ids=["lp-oracle", "table-oracle"])
@pytest.mark.parametrize("r", [2, 3, 4])
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_grouping_walk_matches_the_two_reference_walks(r, table, data):
    ps, parts, s_list = data.draw(cover_walks(r))
    oracles = [RecordingOracle(ps, circuit_table(ps, range(len(ps.points))) if table else None)
               for _ in range(2)]
    masks = [mask_of(p, len(ps.points)) for p in parts]
    ours = partitions._empty_cover(oracles[0], masks, s_list, 10**6)
    ref = empty_cover_ref(oracles[1], parts, s_list)
    assert ours == ref
    if r == 2:
        assert oracles[0].log == oracles[1].log
    else:
        whole = [[q for q in oracle.log if len(q[1]) == r] for oracle in oracles]
        # on the line, Helly answers every tuple whose pairs all meet
        assert whole[0] == ([] if ps.dim == 1 else whole[1])


def test_rgs_masks_is_the_one_partition_walk():
    # combinat.rgs_masks walks set partitions for the grouping walk, the
    # Tverberg search and the r-shattering check, and nothing else in the
    # package walks them; and no generator in the package resumes itself,
    # so no walk is bounded by the recursion limit
    package = Path(partitions.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    users = {f"{stem}.{getattr(top, 'name', 'module level')}"
             for stem, tree in trees.items() if stem != "combinat"
             for top in tree.body
             if not isinstance(top, ast.ImportFrom)
             and any(getattr(node, "id", getattr(node, "attr", None)) == "rgs_masks"
                     for node in ast.walk(top))}
    assert users == {"partitions._empty_cover", "partitions.good_tverberg_partition",
                     "setsystems.is_r_shattered"}
    generators = [(stem, fn) for stem, tree in trees.items() for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef)
                  and any(isinstance(node, (ast.Yield, ast.YieldFrom)) for node in ast.walk(fn))]
    assert {f"{stem}.{fn.name}" for stem, fn in generators} == {
        "combinat.rgs_masks", "combinat.run_splits"}
    recursive = {f"{stem}.{fn.name}" for stem, fn in generators
                 if any(isinstance(node, ast.Call) and getattr(node.func, "id", None) == fn.name
                        for node in ast.walk(fn))}
    assert recursive == set()


def test_searches_normalize_their_subset_once(monkeypatch):
    # every candidate is built as point masks and walked as it is: the
    # index normalizer runs once per search, whatever the candidate count
    calls = []
    norm_group = partitions._norm_group

    def counted(ps, group):
        calls.append(group)
        return norm_group(ps, group)

    monkeypatch.setattr(partitions, "_norm_group", counted)
    seven = point_set(CounterRng("bench7").distinct_points(7, 2))
    assert good_radon_partition(seven, range(7), 2, 2) is None
    assert len(calls) == 1
    six = point_set(CounterRng("bench6").distinct_points(6, 2))
    calls.clear()
    assert good_tverberg_partition(six, range(6), 3, 1) is None
    assert len(calls) == 1


def _count_lps(monkeypatch):
    calls = []
    lp_feasible = geometry.lp_feasible

    def counted_lp(*args, **kwargs):
        calls.append(1)
        return lp_feasible(*args, **kwargs)

    monkeypatch.setattr(geometry, "lp_feasible", counted_lp)
    return calls


def test_exhausted_radon_search_solves_no_lp(monkeypatch):
    ps = point_set(CounterRng("bench7").distinct_points(7, 2))
    calls = _count_lps(monkeypatch)
    assert good_radon_partition(ps, range(7), 2, 2) is None
    assert not calls


def test_halfspace_traces_solve_no_lp(monkeypatch):
    ps = point_set(CounterRng("traces8").distinct_points(8, 2))
    calls = _count_lps(monkeypatch)
    assert len(halfspace_traces(ps)) > 2
    assert not calls


def test_good_partition_checker_stays_on_the_lp(monkeypatch):
    cert = good_radon_partition(SQUARE, range(4), 1, 1)
    assert cert is not None
    calls = _count_lps(monkeypatch)
    assert verify_good_partition(cert)
    assert calls


def test_one_meeting_answers_questions_of_any_arity(monkeypatch):
    # four segments through the origin, and two points off them
    ps = point_set([(-1, 0), (1, 0), (0, -1), (0, 1), (-1, -1), (1, 1),
                    (-1, 1), (1, -1), (5, 5), (6, 2)])
    a, b, c, d = 0b11, 0b1100, 0b110000, 0b11000000
    calls = _count_lps(monkeypatch)
    oracle = MeetOracle(ps)
    assert oracle.meets((a, b, c))
    # the origin is the only common point, so each segment is a support
    assert all(all(ws) for ws in oracle.intersection((a, b, c)).weights)
    assert len(calls) == 1
    assert oracle.meets((a | 1 << 8, c | 1 << 9))
    assert len(calls) == 1
    oracle = MeetOracle(ps)
    assert oracle.meets((a, b, c, d))
    assert len(calls) == 2
    # sorted by mask, these groups hold the supports in the order b, c, d, a
    assert oracle.meets((a | 1 << 9, b, c, d | 1 << 8))
    assert len(calls) == 2


@pytest.mark.parametrize("seed, most", [("pin8", 74), ("pin9", 63)])
def test_exhausted_tverberg_search_solves_no_more_lps(monkeypatch, seed, most):
    # most: the LPs solved when each meeting answered only its own arity
    ps = point_set(CounterRng(seed).distinct_points(8, 2))
    calls = _count_lps(monkeypatch)
    assert good_tverberg_partition(ps, range(8), 3, 2) is None
    assert len(calls) <= most


def test_good_partition_checker_solves_no_more_lps(monkeypatch):
    # 294: the LPs solved when each meeting answered only its own arity
    ps = point_set(CounterRng("vg2").distinct_points(11, 2))
    cert = good_radon_partition(ps, range(11), 2, 2)
    assert cert is not None
    calls = _count_lps(monkeypatch)
    assert verify_good_partition(cert)
    assert len(calls) <= 294


def test_table_free_cover_search_solves_no_more_lps(monkeypatch):
    # 12: the last part's extensions are asked until one meets; growing
    # them all before asking solves 14
    ps = point_set(CounterRng("lp2").distinct_points(9, 2))
    calls = _count_lps(monkeypatch)
    joint_cover_empty(ps, [(0, 3, 6), (1, 4, 7), (2, 5, 8)], [2, 2, 2])
    assert len(calls) <= 12


def test_grouping_walk_grows_each_prefix_once(monkeypatch):
    # ((0,3,5,7,9), (1,4,8), (2,6,10)) on the line 0..10 is a good partition
    # at s = 2, so the walk tries all 16 * 4 * 4 combinations; the pair
    # filter runs once per prefix of the first two parts, 16 + 16 * 4
    ps = point_set([[i] for i in range(11)])
    parts = [mask_of(p, 11) for p in ((0, 3, 5, 7, 9), (1, 4, 8), (2, 6, 10))]
    grown = []
    grow = partitions._grow_tuples

    def counted(oracle, tuples, cover):
        grown.append(cover)
        return grow(oracle, tuples, cover)

    monkeypatch.setattr(partitions, "_grow_tuples", counted)
    oracle = MeetOracle(ps, circuit_table(ps, range(11)))
    assert partitions._empty_cover(oracle, parts, (2, 2, 2), 10**6) == (None, 256, 256)
    assert len(grown) <= 16 + 16 * 4


def test_grouping_walk_over_a_thousand_parts_returns():
    # the walk is a loop, so a part count past the recursion limit does not
    # raise. Every pair meets and the whole tuple does not, so the tuple
    # grows through every part and only the last one decides
    class PairsMeet(MeetOracle):
        def meets(self, groups):
            return len(groups) == 2

    k = 1100
    ps = point_set([[i, i * i] for i in range(k)])
    parts = [1 << i for i in range(k)]
    combo, tried, closed_form = partitions._empty_cover(PairsMeet(ps), parts, (1,) * k, 10**6)
    assert combo == tuple((p,) for p in parts) and tried == closed_form == 1
