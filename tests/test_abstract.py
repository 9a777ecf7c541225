"""Abstract convexity spaces against frozen values, exhaustive axioms, the
partition-walking and pair-walking references, and the geometric oracle on
embedded line instances."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import (AbstractSeparation, _has_tverberg_partition, abstract_good_partition,
                        abstract_separable, geometric_space, hull, interval_space,
                        radon_number_ref, tverberg_number_ref, validate_space_ref)
from convexparts.abstract import (
    _has_good_partition,
    ConvexitySpace,
    convexity_space,
    halfspaces,
    is_separable,
    radon_number,
    tverberg_number,
    validate_space,
)
from convexparts.combinat import indices_of
from convexparts.errors import CapExceeded, InputError
from convexparts.geometry import point_set
from convexparts.partitions import good_radon_partition, st_separable
from convexparts.constructions import verify_periodic_line_cover
from convexparts.setsystems import vc_dim


def free_space(n):
    return convexity_space(n, [[i for i in range(n) if m >> i & 1]
                               for m in range(1 << n)])


def line(n):
    return point_set([[i] for i in range(n)])


PATH5 = interval_space(5)
FREE4 = free_space(4)
# triangle plus an interior point: the Radon crossing is a data point
TRI_CENTER = point_set([[0, 0], [3, 0], [0, 3], [1, 1]])


class TestSpaceConstruction:
    def test_normalizes_and_dedupes(self):
        sp = convexity_space(3, [[2, 0], [0, 2], [], [0, 1, 2]])
        assert sp.family == (0, 0b101, 0b111)
        assert tuple(map(indices_of, sp.family)) == ((), (0, 2), (0, 1, 2))

    def test_validation(self):
        with pytest.raises(InputError):
            convexity_space(0, [])
        with pytest.raises(InputError):
            convexity_space(2, [[2]])


class TestValidateSpace:
    def test_full_powerset_valid(self):
        assert validate_space(FREE4) == (True, None)

    def test_path_valid(self):
        assert validate_space(PATH5) == (True, None)

    def test_missing_empty(self):
        sp = convexity_space(3, [[0, 1, 2], [0]])
        assert validate_space(sp) == (False, ("missing-empty",))

    def test_missing_full(self):
        sp = convexity_space(3, [[], [0]])
        assert validate_space(sp) == (False, ("missing-full",))

    def test_intersection_gap_reported(self):
        sp = convexity_space(3, [[], [0, 1, 2], [0, 1], [1, 2]])
        assert validate_space(sp) == (False, ("intersection", (0, 1), (1, 2)))

    def test_large_free_family_checks_few_pairs(self):
        # 2^14 members, 134 million pairs; the generators are the 14
        # coatoms, so the check stays linear in the members
        assert validate_space(free_space(14)) == (True, None)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_the_pair_walk(self, data):
        sp = random_space(data)
        assert validate_space(sp) == validate_space_ref(sp)


class TestHull:
    def test_members_are_fixed(self):
        for member in map(indices_of, PATH5.family):
            assert hull(PATH5, member) == member

    def test_spanning_pair(self):
        assert hull(PATH5, [0, 4]) == (0, 1, 2, 3, 4)
        assert hull(PATH5, [1, 3]) == (1, 2, 3)

    def test_empty(self):
        assert hull(PATH5, []) == ()

    def test_exhaustive_closure_properties(self):
        for sp in (PATH5, FREE4, geometric_space(TRI_CENTER)):
            n = sp.n
            for mask in range(1 << n):
                s = tuple(i for i in range(n) if mask >> i & 1)
                h = hull(sp, s)
                assert set(s) <= set(h)
                assert hull(sp, h) == h
                # monotone against one-element extensions
                for extra in range(n):
                    if extra not in s:
                        assert set(h) <= set(hull(sp, s + (extra,)))


class TestRadonNumber:
    def test_paths(self):
        for n in (3, 5, 8):
            assert radon_number(interval_space(n)) == 3

    def test_free_space_unbounded(self):
        assert radon_number(FREE4) is None

    def test_interior_point_gives_four(self):
        assert radon_number(geometric_space(TRI_CENTER)) == 4

    def test_convex_position_unbounded(self):
        # hull-closed sets of convex-position points are the subsets
        # themselves, so disjoint parts never meet inside the ground set
        square = point_set([[0, 0], [1, 1], [1, 0], [0, 1]])
        assert radon_number(geometric_space(square)) is None

    def test_at_least_three_with_singleton_members(self):
        for sp in (PATH5, FREE4, geometric_space(TRI_CENTER)):
            r = radon_number(sp)
            assert r is None or r >= 3

    def test_cap(self):
        with pytest.raises(CapExceeded) as err:
            radon_number(interval_space(8), cap=10)
        # C(8, 2) bipartitions at k = 2 already pass the cap
        assert (err.value.cap_name, err.value.needed) == ("radon_checks", 28)
        with pytest.raises(CapExceeded) as err:
            radon_number(FREE4, cap=24)
        # 6 + 4 * 3 + 7 over k = 2, 3, 4
        assert (err.value.cap_name, err.value.needed) == ("radon_checks", 25)
        assert radon_number(FREE4, cap=25) is None


class TestTverbergNumber:
    def test_two_parts_is_radon(self):
        for sp in (PATH5, interval_space(8), FREE4, geometric_space(TRI_CENTER)):
            assert tverberg_number(sp, 2) == radon_number(sp)

    def test_path_three_parts(self):
        assert tverberg_number(interval_space(8), 3) == 5

    def test_free_space_unbounded(self):
        assert tverberg_number(FREE4, 3) is None

    def test_validation(self):
        with pytest.raises(InputError):
            tverberg_number(PATH5, 1)
        with pytest.raises(CapExceeded) as err:
            tverberg_number(interval_space(8), 3, cap=10)
        # C(8, 3) * S(3, 3) at k = 3
        assert (err.value.cap_name, err.value.needed) == ("tverberg_checks", 56)
        with pytest.raises(CapExceeded) as err:
            tverberg_number(interval_space(8), 2, cap=10)
        assert (err.value.cap_name, err.value.needed) == ("radon_checks", 28)
        with pytest.raises(CapExceeded) as err:
            tverberg_number(FREE4, 3, cap=9)
        # 4 * S(3, 3) + 1 * S(4, 3)
        assert (err.value.cap_name, err.value.needed) == ("tverberg_checks", 10)
        assert tverberg_number(FREE4, 3, cap=10) is None


def random_space(data, max_n=9):
    """A random family: as drawn, with or without the empty and full sets;
    intersection-closed; or closed with one proper meet of two members
    taken out, which leaves it open."""
    n = data.draw(st.integers(1, max_n))
    full = (1 << n) - 1
    kind = data.draw(st.sampled_from(["drawn", "closed", "punctured"]))
    fam = set(data.draw(st.lists(st.integers(0, full), min_size=n, max_size=24)))
    if kind != "drawn" or data.draw(st.booleans()):
        fam |= {0, full}
    if kind != "drawn":
        while True:
            extra = {a & b for a in fam for b in fam} - fam
            if not extra:
                break
            fam |= extra
    meets = sorted({a & b for a in fam for b in fam if a & b not in (a, b, 0)})
    if kind == "punctured" and meets:
        fam.discard(data.draw(st.sampled_from(meets)))
    return ConvexitySpace(n, tuple(sorted(fam)))


def _number_or_cap(fn, *args):
    try:
        return fn(*args)
    except CapExceeded as err:
        return err.cap_name, err.needed


class TestCaptureTests:
    """Radon and Tverberg numbers from capture tests against the scans that
    walk every partition of every subset."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data(), st.integers(2, 5))
    def test_matches_the_partition_walk(self, data, r):
        sp = random_space(data, max_n=8)
        assert (_number_or_cap(tverberg_number, sp, r, 5000)
                == _number_or_cap(tverberg_number_ref, sp, r, 5000))
        if r == 2:
            assert radon_number(sp) == radon_number_ref(sp)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data(), st.integers(2, 5))
    def test_each_subset_matches_the_partition_walk(self, data, r):
        # the numbers only see the last failing subset of a size; this
        # compares the verdict of every subset
        sp = random_space(data, max_n=7)
        for mask in range(1 << sp.n):
            sub = tuple(i for i in range(sp.n) if mask >> i & 1)
            if len(sub) >= r:
                assert (_has_good_partition(sp.capture_tests, mask, r)
                        == _has_tverberg_partition(sp, sub, r, {})), (sub, r)

    @pytest.mark.parametrize("space", [
        interval_space(1), interval_space(4), interval_space(7), FREE4,
        free_space(6), geometric_space(TRI_CENTER),
        # a square around four central points: 5, 7 and 8 for r = 2, 3, 4
        geometric_space(point_set([[0, 0], [8, 0], [0, 8], [8, 8], [4, 4],
                                   [3, 4], [4, 3], [5, 4]])),
        geometric_space(point_set([[0, 0, 0], [6, 0, 0], [0, 6, 0], [0, 0, 6],
                                   [1, 1, 1], [2, 1, 1], [1, 2, 1]])),
    ])
    def test_named_spaces_match_the_partition_walk(self, space):
        for r in range(2, 6):
            assert tverberg_number(space, r) == tverberg_number_ref(space, r)

    def test_tests_decide_hull_membership(self):
        for sp in (PATH5, FREE4, geometric_space(TRI_CENTER),
                   convexity_space(4, [[0, 1], [1, 2], [0, 1, 2, 3]])):
            for mask in range(1 << sp.n):
                h = hull(sp, [i for i in range(sp.n) if mask >> i & 1])
                for x, tests in enumerate(sp.capture_tests):
                    assert (x in h) == all(mask & t for t in tests)


class TestHalfspaces:
    def test_path_prefixes_and_suffixes(self):
        hs = halfspaces(PATH5)
        edges = set(hs.edge_indices())
        expected = {(), (0, 1, 2, 3, 4)}
        for j in range(4):
            expected.add(tuple(range(j + 1)))
            expected.add(tuple(range(j + 1, 5)))
        assert edges == expected
        assert len(hs) == 10

    def test_free_space_all_subsets(self):
        assert len(halfspaces(FREE4)) == 16

    def test_vc_bounded_by_radon(self):
        for sp in (PATH5, interval_space(8), geometric_space(TRI_CENTER)):
            r = radon_number(sp)
            assert vc_dim(halfspaces(sp)) <= r - 1

    def test_path_vc_exactly_two(self):
        assert vc_dim(halfspaces(interval_space(8))) == 2


class TestIsSeparable:
    def test_path(self):
        assert is_separable(PATH5) == (True, None)

    def test_free(self):
        assert is_separable(FREE4) == (True, None)

    def test_counterexample(self):
        sp = convexity_space(3, [[], [0, 1, 2], [0], [1]])
        assert validate_space(sp) == (True, None)
        assert is_separable(sp) == (False, ((0,), (1,)))

    def test_cap(self):
        with pytest.raises(CapExceeded):
            is_separable(interval_space(8), cap=5)


def _check_separation(space, a, b, sep, s, t):
    assert len(sep.a_members) <= s and len(sep.b_members) <= t
    members = set(map(indices_of, space.family))
    ua, ub = set(), set()
    for m in sep.a_members:
        assert m in members
        ua |= set(m)
    for m in sep.b_members:
        assert m in members
        ub |= set(m)
    assert set(a) <= ua or not a
    assert set(b) <= ub or not b
    assert not ua & ub


class TestAbstractSeparable:
    def test_outer_pair_split(self):
        sep = abstract_separable(PATH5, [0], [2, 4], 1, 1)
        assert sep is not None
        _check_separation(PATH5, [0], [2, 4], sep, 1, 1)

    def test_middle_not_separable(self):
        assert abstract_separable(PATH5, [2], [0, 4], 1, 1) is None

    def test_empty_side_trivial(self):
        assert abstract_separable(PATH5, [], [1, 2], 1, 1) == AbstractSeparation((), ())

    def test_witnesses_verify(self):
        for k in range(1, 5):
            for a in itertools.combinations(range(5), k):
                b = tuple(i for i in range(5) if i not in a)
                sep = abstract_separable(PATH5, a, b, 2, 1)
                if sep is not None:
                    _check_separation(PATH5, a, b, sep, 2, 1)

    def test_validation(self):
        with pytest.raises(InputError):
            abstract_separable(PATH5, [0, 1], [1, 2], 1, 1)
        with pytest.raises(InputError):
            abstract_separable(PATH5, [0], [1], 0, 1)
        with pytest.raises(CapExceeded):
            # inseparable pair, so the full union enumeration is reached
            abstract_separable(PATH5, [2], [0, 4], 1, 1, cap=3)


class TestAbstractGoodPartition:
    def test_middle_versus_outer(self):
        found = abstract_good_partition(PATH5, [0, 1, 2], 1, 1)
        assert found.partition == ((1,), (0, 2))
        assert (found.a_cover_count, found.b_cover_count) == (8, 3)
        assert found.checked_pairs == 24

    def test_free_space_never(self):
        assert abstract_good_partition(FREE4, range(4), 1, 1) is None
        assert abstract_good_partition(FREE4, range(4), 2, 2) is None

    def test_seven_path_two_piece_covers(self):
        sp = interval_space(7)
        found = abstract_good_partition(sp, range(7), 2, 1)
        assert found is not None
        a, b = found.partition
        # the geometric d = 1 oracle must agree the partition is good
        assert st_separable(line(7), a, b, 2, 1) is None

    def test_periodic_classes_match_line_verifier(self):
        sp = interval_space(7)
        evens, odds = (0, 2, 4, 6), (1, 3, 5)
        assert abstract_separable(sp, evens, odds, 2, 2) is None
        assert verify_periodic_line_cover(2, 2, 7).ok

    def test_validation(self):
        with pytest.raises(InputError):
            abstract_good_partition(PATH5, [0], 1, 1)


class TestGeometricSpace:
    def test_line_equals_interval_space(self):
        for n in (3, 5, 6):
            assert geometric_space(line(n)).family == interval_space(n).family

    def test_valid_on_corpus(self):
        square = point_set([[0, 0], [1, 1], [1, 0], [0, 1]])
        for ps in (line(5), square, TRI_CENTER):
            assert validate_space(geometric_space(ps)) == (True, None)

    def test_agreement_on_lines(self):
        for n, s, t in [(4, 1, 1), (5, 1, 1), (5, 2, 1), (6, 2, 2)]:
            sp = geometric_space(line(n))
            agp = abstract_good_partition(sp, range(n), s, t)
            grp = good_radon_partition(line(n), range(n), s, t)
            assert (agp is None) == (grp is None)
            if agp is not None:
                assert agp.partition == grp.partition

    def test_agreement_per_bipartition_line(self):
        sp = geometric_space(line(5))
        for k in range(1, 5):
            for a in itertools.combinations(range(5), k):
                b = tuple(i for i in range(5) if i not in a)
                for s, t in [(1, 1), (2, 1), (2, 2)]:
                    absd = abstract_separable(sp, a, b, s, t) is not None
                    geod = st_separable(line(5), a, b, s, t) is not None
                    assert absd == geod, (a, b, s, t)

    def test_planar_crossing_lost_by_abstraction(self):
        # the square's diagonals cross at a non-data point, so the finite
        # abstraction calls every bipartition separable even though the
        # geometric oracle finds a good one
        square = point_set([[0, 0], [1, 1], [1, 0], [0, 1]])
        assert good_radon_partition(square, range(4), 1, 1) is not None
        assert abstract_good_partition(geometric_space(square), range(4), 1, 1) is None

    def test_cap(self):
        with pytest.raises(CapExceeded):
            geometric_space(line(5), n_cap=4)


class TestRandomSpaces:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 6), st.sets(st.integers(0, 63), max_size=8))
    def test_intersection_closure_yields_valid_space(self, n, seeds):
        full = (1 << n) - 1
        fam = {0, full} | {m & full for m in seeds}
        while True:
            extra = {a & b for a in fam for b in fam} - fam
            if not extra:
                break
            fam |= extra
        sp = ConvexitySpace(n, tuple(sorted(fam)))
        assert validate_space(sp) == (True, None)
        for mask in range(1 << n):
            s = tuple(i for i in range(n) if mask >> i & 1)
            h = hull(sp, s)
            assert set(s) <= set(h)
            assert hull(sp, h) == h
