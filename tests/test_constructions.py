"""Constructed witnesses against frozen values and independent oracles.

The moment-curve adversary is cross-checked on a line against pure interval
arithmetic, the periodic-coloring verifier against the LP-based cover
search, and every lower-bound set against the partition searcher itself.
"""

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
import convexparts.constructions as constructions
import convexparts.geometry as geometry
from bruteforce import (all_tuples_empty_ref, moment_adversary_exhaustive_ref,
                        unions_of_intervals_meet, verify_moment_adversary)
from convexparts.constructions import (
    convex_position,
    halfspace_4coloring,
    moment_adversary_exhaustive,
    moment_adversary_instance,
    moment_curve,
    moment_curve_bits,
    periodic_coloring,
    translated_copies,
    tverberg_tight_instance,
    verify_periodic_line_cover,
)
from convexparts.combinat import indices_of, mask_of
from convexparts.errors import CapExceeded, InputError, InternalInvariantError
from convexparts.geometry import circuit_table, hulls_common_point, point_set
from convexparts.partitions import (
    MeetOracle,
    _any_tuple_meets,
    _grow_tuples,
    f_search,
    good_radon_partition,
    good_tverberg_partition,
    joint_cover_empty,
    st_separable,
    verify_empty_intersection,
)
from convexparts.ranges import halfspace_traces, intersect_close
from convexparts.rational import Rat, rat
from convexparts.rng import CounterRng
from convexparts.setsystems import vc_dim


def line(n):
    return point_set([[i] for i in range(n)])


class TestMomentCurve:
    def test_single_point(self):
        ps = moment_curve(1, 2)
        assert ps.points == ((Rat(1, 2), Rat(1, 4)),)

    def test_default_t_values(self):
        ps = moment_curve(3, 2)
        assert ps.points == (
            (Rat(1, 4), Rat(1, 16)),
            (Rat(1, 2), Rat(1, 4)),
            (Rat(3, 4), Rat(9, 16)),
        )

    def test_neighborly(self):
        # subsets of at most floor(d/2) points never meet the rest's hull
        for d in (2, 3):
            for n in (5, 8):
                ps = moment_curve(n, d)
                for size in range(1, d // 2 + 1):
                    for sub in itertools.combinations(range(n), size):
                        rest = [i for i in range(n) if i not in sub]
                        assert not hulls_common_point(ps, (sub, rest))

    def test_rng_draws_increasing_distinct(self):
        ps = moment_curve(6, 2, rng=CounterRng("mc"))
        ts = [p[0] for p in ps.points]
        assert all(a < b for a, b in zip(ts, ts[1:]))
        assert all(0 < t < 1 for t in ts)

    @pytest.mark.parametrize("n,d", [(1, 1), (3, 4), (7, 5), (15, 3), (16, 6)])
    def test_bit_bound_holds(self, n, d):
        for rng in (None, CounterRng("mc")):
            ps = moment_curve(n, d, rng=rng)
            bits = sum(int(v.numerator).bit_length() + int(v.denominator).bit_length()
                       for p in ps.points for v in p)
            assert bits <= moment_curve_bits(n, d, rng is not None)

    def test_validation(self):
        with pytest.raises(InputError):
            moment_curve(0, 2)
        with pytest.raises(InputError):
            moment_curve(2, 0)


class TestAdversaryInstance:
    def test_frozen_sizes(self):
        inst = moment_adversary_instance(1, 3, 4)
        assert (inst.m, inst.p, inst.n) == (2, 2, 4)
        inst = moment_adversary_instance(2, 3, 4)
        assert (inst.m, inst.p, inst.n) == (4, 2, 8)
        inst = moment_adversary_instance(1, 3, 2)
        assert (inst.m, inst.p, inst.n) == (1, 1, 1)

    def test_interval_index(self):
        inst = moment_adversary_instance(2, 3, 4)
        assert inst.interval_index == (0, 0, 0, 0, 1, 1, 1, 1)

    def test_validation(self):
        with pytest.raises(InputError):
            moment_adversary_instance(0, 3, 4)
        with pytest.raises(InputError):
            moment_adversary_instance(1, 2, 4)
        with pytest.raises(InputError):
            moment_adversary_instance(1, 3, 3)
        with pytest.raises(InputError):
            moment_adversary_instance(1, 3, 0)


class TestAdversaryCovers:
    def test_rainbow_frozen(self):
        inst = moment_adversary_instance(1, 3, 4)
        rep = verify_moment_adversary(inst, (0, 1, 2, 3))
        assert rep.chosen == (2, 0)
        assert rep.covers == (((0,),), ((1,),), ((2,),), ((3,),))

    def test_constant_coloring_empty_covers(self):
        inst = moment_adversary_instance(1, 3, 4)
        rep = verify_moment_adversary(inst, (0, 0, 0, 0))
        assert rep.ok
        assert rep.covers == (((0, 1, 2, 3),), (), (), ())
        # no nonempty cover tuple exists, so the certificate carries none
        assert rep.certificate.witnesses == ()
        assert verify_empty_intersection(rep.certificate)

    def test_degenerate_single_point(self):
        inst = moment_adversary_instance(1, 3, 2)
        for coloring in ((0,), (1,)):
            rep = verify_moment_adversary(inst, coloring)
            assert rep.ok

    def test_quotas_and_interval_caps(self):
        inst = moment_adversary_instance(2, 3, 4)
        coloring = (0, 0, 1, 1, 2, 2, 3, 3)
        chosen = verify_moment_adversary(inst, coloring).chosen
        quota = (inst.s - 1) // 2
        cap = inst.d // 2
        for color in range(inst.r):
            assert chosen.count(color) <= quota
        for q, color in enumerate(chosen):
            inside = [i for i in range(q * inst.m, (q + 1) * inst.m)
                      if coloring[i] == color]
            assert len(inside) <= cap

    def test_exhaustive_line_against_interval_oracle(self):
        # d = 1: hulls are closed intervals, so joint emptiness has an
        # arithmetic answer the LP route must agree with
        inst = moment_adversary_instance(1, 3, 4)
        oracle = MeetOracle(inst.points)
        for bits in itertools.product(range(4), repeat=4):
            rep = verify_moment_adversary(inst, bits, oracle)
            unions = []
            for cover in rep.covers:
                unions.append([
                    (min(inst.points.points[i][0] for i in g),
                     max(inst.points.points[i][0] for i in g))
                    for g in cover])
            assert rep.ok == (not unions_of_intervals_meet(unions))
            assert rep.ok
            assert verify_empty_intersection(rep.certificate)

    def test_exhaustive_sweep_small(self):
        rep = moment_adversary_exhaustive(1, 3, 4)
        assert rep.ok and rep.verified == rep.total == 256
        assert rep.max_groups <= 3
        rep = moment_adversary_exhaustive(1, 3, 2)
        assert rep.ok and rep.total == 2

    def test_sweep_asks_for_verdicts_only(self, monkeypatch):
        # certificates come from MeetOracle.intersection; the sweep keeps
        # none of them, so it must never ask for one
        def no_certificate(self, groups):
            raise AssertionError("the sweep asked for a certificate")

        monkeypatch.setattr(MeetOracle, "intersection", no_certificate)
        rep = moment_adversary_exhaustive(1, 3, 4)
        assert rep.ok and rep.verified == rep.total == 256

    @pytest.mark.parametrize("d, s, r", [(1, 3, 2), (1, 3, 4), (1, 5, 2), (1, 7, 2),
                                         (3, 7, 2), (3, 9, 2), (5, 7, 2), (2, 3, 4)])
    def test_sweep_matches_the_per_coloring_reference(self, d, s, r):
        # instances with r^n <= 4096, and the 4^8 colorings of the plane
        assert moment_adversary_exhaustive(d, s, r) == moment_adversary_exhaustive_ref(d, s, r)

    @pytest.mark.parametrize("k", [1, 16, 17, 300, 4097])
    def test_sweep_stops_at_the_same_coloring_as_the_reference(self, monkeypatch, k):
        # every coloring from the k-th on fails: in the reference by the
        # count of verdicts asked, in the sweep by its covers, named from the
        # k-th coloring to the last of its prefix's 16. The sweep decides a
        # prefix's colorings out of order, on a tree, so its two predicate
        # pieces fail them by path: on a failing coloring's path the filter
        # keeps one tuple of empty groups, which meet nothing, so whatever
        # shares the path below it is still decided by the real filter, and
        # at the path's leaf, given the last cover, the ask reports a
        # meeting. The
        # sweep must stop at the k-th coloring in lexicographic order with
        # the reference's counts. The k-th coloring is the first of its
        # prefix at k = 1, 17 and 4097, and the last at k = 16.
        ref_asked = []

        def failing_from_k(oracle, covers):
            ref_asked.append(tuple(covers))
            return len(ref_asked) < k

        monkeypatch.setattr(bruteforce, "all_tuples_empty_ref", failing_from_k)
        ref = moment_adversary_exhaustive_ref(1, 5, 4)
        inst = moment_adversary_instance(1, 5, 4)
        colorings = list(itertools.product(range(4), repeat=8))
        targets = [bruteforce._adversary(inst, c)[3] for c in colorings[k - 1:(k + 15) // 16 * 16]]
        assert targets[0] == ref_asked[-1]
        grow, any_meets = constructions._grow_tuples, constructions._any_tuple_meets
        path, failed = [], []

        def grow_on_path(oracle, tuples, cover):
            level = len(tuples[0])
            path[level:] = [cover]
            grown = grow(oracle, tuples, cover)
            if any(tuple(path) == t[:level + 1] for t in targets):
                return grown or [(0,) * (level + 1)]
            return grown

        def meets_on_path(oracle, tuples, cover):
            path[len(tuples[0]):] = [cover]
            if tuple(path) in targets:
                failed.append(tuple(path))
                return True
            return any_meets(oracle, tuples, cover)

        checked = []
        check = constructions._check_structure

        def recorded(inst, color, class_mask, picked_mask, groups):
            checked.append((color, class_mask, picked_mask))
            return check(inst, color, class_mask, picked_mask, groups)

        monkeypatch.setattr(constructions, "_grow_tuples", grow_on_path)
        monkeypatch.setattr(constructions, "_any_tuple_meets", meets_on_path)
        monkeypatch.setattr(constructions, "_check_structure", recorded)
        rep = moment_adversary_exhaustive(1, 5, 4)
        assert len(ref_asked) == k
        # the tree reached every failing coloring of the prefix
        assert sorted(failed) == sorted(targets)
        # each cover of the k colorings the reference built is checked once,
        # and no other
        built = set()
        for coloring in colorings[:k]:
            chosen = bruteforce._choose_interval_colors(inst, coloring)
            built.update((color,
                          sum(1 << i for i, c in enumerate(coloring) if c == color),
                          sum(1 << q for q, c in enumerate(chosen) if c == color))
                         for color in range(4))
        assert len(checked) == len(set(checked)) and set(checked) == built
        assert (rep.ok, rep.first_failure, rep.verified, rep.max_groups) \
            == (ref.ok, ref.first_failure, ref.verified, ref.max_groups)
        assert not rep.ok and rep.verified == k - 1
        assert rep.first_failure == colorings[k - 1]

    @pytest.mark.parametrize("d, s, r, checks", [(1, 5, 4, 1812), (2, 3, 4, 1246)])
    def test_sweep_checks_each_cover_once_and_solves_no_lp(self, monkeypatch, d, s, r,
                                                           checks):
        # the tree shares the filter's work across a prefix's colorings; it
        # skips no check: every distinct (color, class, picks) cover of the
        # 65,536 colorings is checked once, and no question needs an LP
        calls, lps = [], []
        check, solve = constructions._check_structure, geometry.lp_feasible

        def recorded(inst, color, class_mask, picked_mask, groups):
            calls.append((color, class_mask, picked_mask))
            return check(inst, color, class_mask, picked_mask, groups)

        def counted(*args, **kwargs):
            lps.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(constructions, "_check_structure", recorded)
        monkeypatch.setattr(geometry, "lp_feasible", counted)
        rep = moment_adversary_exhaustive(d, s, r)
        assert rep.ok and rep.verified == rep.total == 65536
        assert len(calls) == len(set(calls)) == checks
        assert lps == []

    @pytest.mark.parametrize("d, s, r", [(1, 5, 4), (2, 3, 4)])
    def test_sweep_never_asks_for_a_certificate(self, monkeypatch, d, s, r):
        def no_certificate(self, groups):
            raise AssertionError("the sweep asked for a certificate")

        monkeypatch.setattr(MeetOracle, "intersection", no_certificate)
        assert moment_adversary_exhaustive(d, s, r).ok

    def test_sweep_and_single_coloring_share_the_checker(self, monkeypatch):
        # a color's cover depends only on its class and the intervals picked
        # for it; the sweep checks each (color, class, picks) cover once,
        # and those are exactly the covers the per-coloring reference builds
        calls = []
        check = constructions._check_structure

        def recorded(inst, color, class_mask, picked_mask, groups):
            calls.append((color, class_mask, picked_mask, groups))
            return check(inst, color, class_mask, picked_mask, groups)

        monkeypatch.setattr(constructions, "_check_structure", recorded)
        assert moment_adversary_exhaustive(1, 3, 4).verified == 256
        assert len(calls) == len(set(calls))
        inst = moment_adversary_instance(1, 3, 4)
        want = set()
        for coloring in itertools.product(range(4), repeat=4):
            chosen = bruteforce._choose_interval_colors(inst, coloring)
            covers = bruteforce._adversary_covers(inst, coloring, chosen)
            for color, cover in enumerate(covers):
                want.add((color,
                          sum(1 << i for i, c in enumerate(coloring) if c == color),
                          sum(1 << q for q, c in enumerate(chosen) if c == color),
                          tuple(mask_of(g, inst.n) for g in cover)))
        assert set(calls) == want
        # the single-coloring check goes through the same checker
        del calls[:]
        verify_moment_adversary(inst, (0, 1, 2, 3))
        assert calls == [(0, 1, 2, (1,)), (1, 2, 0, (2,)), (2, 4, 1, (4,)), (3, 8, 0, (8,))]

    def test_sweep_rejects_a_corrupt_cover(self, monkeypatch):
        # drop a point from one (class, picks) cover: the structural check
        # of the sweep must catch it the first time that cover is built
        build = constructions._cover

        def corrupt(inst, class_mask, picked_mask):
            groups = build(inst, class_mask, picked_mask)
            if (class_mask, picked_mask) == (0b0011, 0b10):
                return (0b0001,)
            return groups

        monkeypatch.setattr(constructions, "_cover", corrupt)
        with pytest.raises(InternalInvariantError, match="misses points"):
            moment_adversary_exhaustive(1, 3, 4)

    def test_checker_rejects_too_many_groups(self):
        inst = moment_adversary_instance(1, 3, 4)
        _, classes, picked, groups = bruteforce._adversary(inst, (0, 0, 0, 0))
        assert groups[0] == (0b1111,)
        constructions._check_structure(inst, 0, classes[0], picked[0], groups[0])
        split = (0b0001, 0b0010, 0b0100, 0b1000)
        with pytest.raises(InternalInvariantError, match="uses 4 groups"):
            constructions._check_structure(inst, 0, classes[0], picked[0], split)

    def test_checker_rejects_a_dropped_point(self):
        inst = moment_adversary_instance(1, 3, 4)
        _, classes, picked, groups = bruteforce._adversary(inst, (0, 0, 0, 0))
        with pytest.raises(InternalInvariantError, match="misses points"):
            constructions._check_structure(inst, 0, classes[0], picked[0], (0b0111,))

    def test_checker_rejects_a_large_piece_in_a_chosen_interval(self):
        # interval 0 is chosen for color 0, which has one point there
        inst = moment_adversary_instance(2, 3, 4)
        chosen, classes, picked, groups = bruteforce._adversary(
            inst, (0, 1, 1, 1, 2, 2, 3, 3))
        assert chosen == (0, 1) and groups[:2] == ((0b0001,), (0b1110,))
        constructions._check_structure(inst, 0, classes[0], picked[0], groups[0])
        # recolor point 1 to 0 and hand it to color 0's piece: the cover
        # still holds its class, but the piece has floor(d/2)+1 points
        with pytest.raises(InternalInvariantError, match="single-interval piece"):
            constructions._check_structure(inst, 0, classes[0] | 2, picked[0], (0b0011,))

    def test_planar_sample_colorings(self):
        # the full 4^8 sweep runs in the acceptance suite; spot-check a
        # stride sample here
        inst = moment_adversary_instance(2, 3, 4)
        oracle = MeetOracle(inst.points)
        for k in range(0, 4 ** 8, 257):
            coloring = tuple(k // 4 ** (7 - pos) % 4 for pos in range(8))
            rep = verify_moment_adversary(inst, coloring, oracle)
            assert rep.ok
            assert rep.max_groups <= 3

    def test_coloring_validation(self):
        inst = moment_adversary_instance(1, 3, 4)
        with pytest.raises(InputError):
            verify_moment_adversary(inst, (0, 1, 2))
        with pytest.raises(InputError):
            verify_moment_adversary(inst, (0, 1, 2, 4))
        with pytest.raises(InputError):
            verify_moment_adversary(inst, (0, 1, 2, -1))

    @pytest.mark.parametrize("d, s, r", [(2, 5, 4), (3, 7, 4), (1, 9, 6), (4, 5, 6)])
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_greedy_and_covers_match_the_reference(self, d, s, r, data):
        # instances far too large to sweep: one coloring at a time, the
        # greedy and the covers against the reference's own construction
        inst = moment_adversary_instance(d, s, r)
        coloring = tuple(data.draw(st.lists(st.integers(0, r - 1), min_size=inst.n,
                                            max_size=inst.n)))
        chosen, _, _, groups = bruteforce._adversary(inst, coloring)
        assert chosen == bruteforce._choose_interval_colors(inst, coloring)
        assert groups == tuple(tuple(mask_of(g, inst.n) for g in c)
                               for c in bruteforce._adversary_covers(inst, coloring, chosen))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=8, max_size=8))
    def test_random_colorings_verify(self, coloring):
        inst = moment_adversary_instance(2, 3, 4)
        rep = verify_moment_adversary(inst, tuple(coloring))
        assert rep.ok
        quota = (inst.s - 1) // 2
        for color in range(inst.r):
            assert rep.chosen.count(color) <= quota


class _Recording(MeetOracle):
    """A MeetOracle that records every question asked of it, in order."""

    def __init__(self, ps, table=None):
        super().__init__(ps, table)
        self.log = []

    def meets(self, groups):
        self.log.append(tuple(groups))
        return super().meets(groups)

    def whole(self, r):
        """The questions about r groups, in the order asked."""
        return [q for q in self.log if len(q) == r]


@functools.lru_cache(maxsize=None)
def _verdict_oracles(d, s):
    # the points of the (d, s, 4) instance, and per oracle kind, table-backed
    # or not, one oracle for the whole draw, as in the sweep, with a fresh
    # reference oracle beside it
    inst = moment_adversary_instance(d, s, 4)
    table = circuit_table(inst.points, range(inst.n))
    return inst, [(_Recording(inst.points, t), _Recording(inst.points, t))
                  for t in (table, None)]


@functools.lru_cache(maxsize=None)
def _hulls_meet(ps, groups):
    return bool(hulls_common_point(ps, groups))


def _tuple_meets(ps, groups):
    # the LP of the whole tuple, once no pair of it is disjoint: hulls only
    # shrink as more are intersected
    return all(_hulls_meet(ps, pair) for pair in itertools.combinations(groups, 2)) \
        and _hulls_meet(ps, groups)


def _fold(oracle, covers):
    # the grouping walk's two steps on one combination: the pair filter over
    # every cover but the last, then the last cover's ask
    tuples = functools.reduce(functools.partial(_grow_tuples, oracle), covers[:-1], [()])
    return not _any_tuple_meets(oracle, tuples, covers[-1])


class TestCoversEmpty:
    """The cross-tuple test of the grouping walk and the t42 sweep, folded
    over one combination, against the full-product reference and the LP on
    every cross tuple."""

    @pytest.mark.parametrize("d, s, r", [(1, 5, 4), (2, 3, 4), (1, 5, 2), (2, 3, 2),
                                         (1, 5, 3), (2, 3, 3)])
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_random_covers_match_the_tuple_predicate(self, d, s, r, data):
        # one to s random groups per cover, overlapping across covers, so
        # that some tuples have every pair meeting and reach the whole-tuple
        # question
        inst, oracles = _verdict_oracles(d, s)
        group = st.sets(st.integers(0, inst.n - 1), min_size=1, max_size=4).map(
            lambda g: tuple(sorted(g)))
        combo = tuple(tuple(data.draw(st.lists(group, min_size=1, max_size=s)))
                      for _ in range(r))
        covers = tuple(tuple(mask_of(g, inst.n) for g in cover) for cover in combo)
        truth = not any(_tuple_meets(inst.points, t) for t in itertools.product(*combo))
        for oracle, ref in oracles:
            del oracle.log[:], ref.log[:]
            assert _fold(oracle, covers) == all_tuples_empty_ref(ref, covers) \
                == truth
            if d == 1 and r > 2:
                # Helly on the line: intervals that meet pairwise share a
                # point, so no tuple is asked whole
                assert oracle.whole(r) == []
            else:
                # the same whole-tuple questions, in the same order
                assert oracle.whole(r) == ref.whole(r)

    @pytest.mark.parametrize("combo, empty", [
        # every pair of chords crosses; the three do not share a point
        ((((0, 4),), ((1, 5),), ((2, 6),)), True),
        # every pair of triangles meets, and so do all three
        ((((0, 3, 6),), ((1, 4, 7),), ((2, 5),)), False),
        # the first tuple whose pairs all meet is empty, a later one meets
        ((((0, 4), (0, 3, 6)), ((1, 5), (1, 4, 7)), ((2, 6), (2, 5))), False),
    ])
    def test_pairwise_meeting_covers_ask_the_whole_tuple(self, combo, empty):
        inst = moment_adversary_instance(2, 3, 4)
        table = circuit_table(inst.points, range(inst.n))
        oracle, ref = _Recording(inst.points, table), _Recording(inst.points, table)
        covers = tuple(tuple(mask_of(g, inst.n) for g in cover) for cover in combo)
        assert _fold(oracle, covers) == all_tuples_empty_ref(ref, covers) == empty
        assert oracle.whole(3) and oracle.whole(3) == ref.whole(3)
        assert any(_hulls_meet(inst.points, tuple(indices_of(g) for g in t))
                   for t in oracle.whole(3)) == (not empty)

    def test_an_empty_cover_asks_nothing(self):
        class Mute(MeetOracle):
            def meets(self, groups):
                raise AssertionError("the verdict asked the oracle")

        inst = moment_adversary_instance(1, 5, 4)
        covers = [(0b11,), (), (0b100, 0b1100000), (0b11000,)]
        assert _fold(Mute(inst.points), covers)


class TestPeriodicColoring:
    def test_frozen(self):
        assert periodic_coloring(5, 2) == (0, 1, 0, 1, 0)
        assert periodic_coloring(3, 3) == (0, 1, 2)
        assert periodic_coloring(7, 2) == (0, 1, 0, 1, 0, 1, 0)

    def test_validation(self):
        with pytest.raises(InputError):
            periodic_coloring(0, 2)
        with pytest.raises(InputError):
            periodic_coloring(3, 0)


class TestPeriodicLineCover:
    def test_r2_s1(self):
        rep = verify_periodic_line_cover(2, 1)
        assert rep.ok and rep.n == 5
        assert rep.choices_checked == 1
        assert rep.max_missed == 2 and rep.miss_bound == 2

    def test_r2_s2(self):
        rep = verify_periodic_line_cover(2, 2)
        assert rep.ok and rep.n == 7
        assert rep.choices_checked == 12
        assert rep.max_missed == 3 and rep.miss_bound == 3

    def test_below_bound_counterexample(self):
        rep = verify_periodic_line_cover(2, 1, 2)
        assert not rep.ok
        assert rep.failure == (((0, 0),), ((1, 1),))

    def test_all_desk_scale(self):
        for r in (2, 3):
            for s in (1, 2, 3):
                rep = verify_periodic_line_cover(r, s)
                assert rep.ok, (r, s)
                assert rep.max_missed <= rep.miss_bound

    def test_agrees_with_cover_search(self):
        # independent route: the LP-based grouping search over the same
        # classes must reach the same verdict
        cases = [(2, 1, 2), (2, 1, 4), (2, 1, 5), (2, 2, 4), (2, 2, 6),
                 (2, 2, 7), (3, 1, 6), (3, 1, 7), (3, 2, 8)]
        for r, s, n in cases:
            rep = verify_periodic_line_cover(r, s, n)
            parts = [range(c, n, r) for c in range(r)]
            found = joint_cover_empty(line(n), parts, [s] * r)
            assert rep.ok == (found is None), (r, s, n)

    def test_a_thousand_colors(self):
        # 1,000 classes are past the recursion limit, so the sweep must be
        # a loop over them
        assert verify_periodic_line_cover(1000, 1, cap=2 * 10**6).ok

    def test_validation(self):
        with pytest.raises(InputError):
            verify_periodic_line_cover(1, 1)
        with pytest.raises(InputError):
            verify_periodic_line_cover(2, 0)
        with pytest.raises(InputError):
            verify_periodic_line_cover(3, 1, 2)

    def test_run_splits_are_counted_before_listing(self):
        # 2 * 2^29 run splits; listing them would exhaust memory
        with pytest.raises(CapExceeded):
            verify_periodic_line_cover(2, 30, 60)
        # 2 * 16 run splits
        with pytest.raises(CapExceeded):
            verify_periodic_line_cover(2, 5, 10, cap=31)
        assert verify_periodic_line_cover(2, 5, 10, cap=32).n == 10


class TestConvexPosition:
    def test_frozen_five(self):
        ps = convex_position(5)
        assert ps.points == (
            (rat(1), rat(0)),
            (rat(0), rat(1)),
            (rat("-3/5"), rat("4/5")),
            (rat("-4/5"), rat("3/5")),
            (rat("-15/17"), rat("8/17")),
        )

    def test_all_extreme(self):
        for n in (3, 5, 7):
            ps = convex_position(n)
            for i in range(n):
                assert not hulls_common_point(ps, ([i], [j for j in range(n) if j != i]))

    def test_unit_circle(self):
        ps = convex_position(6, rng=CounterRng("circle"))
        assert len(set(ps.points)) == 6
        assert all(x * x + y * y == 1 for x, y in ps.points)

    def test_two_facet_traces_shatter_everything(self):
        # five circle points: every subset splits into at most two cyclic
        # runs, each cut off by one halfplane
        tf = intersect_close(halfspace_traces(convex_position(5)), 2)
        assert vc_dim(tf.to_set_system()) == 5

    def test_validation(self):
        with pytest.raises(InputError):
            convex_position(2)


class TestTverbergTight:
    def test_two_points(self):
        ps = tverberg_tight_instance(1, 2)
        assert len(ps.points) == 2 and len(set(ps.points)) == 2

    def test_triangle(self):
        ps = tverberg_tight_instance(2, 2)
        assert len(ps.points) == 3
        assert good_tverberg_partition(ps, range(3), 2, 1) is None

    def test_four_on_line(self):
        ps = tverberg_tight_instance(1, 3)
        assert len(ps.points) == 4
        assert good_tverberg_partition(ps, range(4), 3, 1) is None

    def test_budget_exhausted(self):
        with pytest.raises(CapExceeded):
            tverberg_tight_instance(1, 2, attempts=0)

    def test_validation(self):
        with pytest.raises(InputError):
            tverberg_tight_instance(3, 2)
        with pytest.raises(InputError):
            tverberg_tight_instance(1, 5)


class TestTranslatedCopies:
    def test_identity(self):
        ps = tverberg_tight_instance(1, 2)
        assert translated_copies(ps, 1) is ps

    def test_far_pairs_all_bipartitions_separable(self):
        base = tverberg_tight_instance(1, 2)
        ps = translated_copies(base, 2)
        assert len(ps.points) == 4
        full = range(4)
        for k in range(1, 4):
            for a in itertools.combinations(full, k):
                b = tuple(i for i in full if i not in a)
                if a > b:
                    continue
                assert st_separable(ps, a, b, 2, 2) is not None
        assert good_radon_partition(ps, full, 2, 2) is None

    def test_planar_copies_refuted(self):
        base = tverberg_tight_instance(2, 2)
        ps = translated_copies(base, 2)
        assert len(ps.points) == 6
        assert good_radon_partition(ps, range(6), 2, 2) is None

    def test_copy_hulls_disjoint(self):
        base = tverberg_tight_instance(2, 2)
        ps = translated_copies(base, 3)
        n0 = len(base.points)
        for a, b in itertools.combinations(range(3), 2):
            assert not hulls_common_point(ps, (range(a * n0, (a + 1) * n0),
                                               range(b * n0, (b + 1) * n0)))

    def test_validation(self):
        with pytest.raises(InputError):
            translated_copies(tverberg_tight_instance(1, 2), 0)


def _random_3d(seed, n):
    rng = CounterRng(seed)
    rows, seen = [], set()
    while len(rows) < n:
        p = tuple(rng.rat(64, 8) for _ in range(3))
        if p not in seen:
            seen.add(p)
            rows.append(p)
    return point_set(rows)


class TestHalfspace4Coloring:
    def test_tetrahedron_rainbow(self):
        ps = point_set([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert halfspace_4coloring(ps) == (0, 1, 2, 3)

    def test_random_eight_reverified(self):
        ps = _random_3d("hc:8", 8)
        coloring = halfspace_4coloring(ps)
        assert coloring is not None
        for mask in halfspace_traces(ps).traces:
            if mask.bit_count() >= 2:
                hit = {coloring[i] for i in range(8) if mask >> i & 1}
                assert len(hit) >= 2

    def test_nine_point_class_not_separable(self):
        # 4s+1 points at s = 2: the largest class has >= 3 points, so any
        # two-piece cover leaves a pair inside one halfspace away from the
        # rest, which the coloring forbids
        ps = _random_3d("smoke:3d", 9)
        coloring = halfspace_4coloring(ps)
        assert coloring is not None
        classes = [[i for i in range(9) if coloring[i] == c] for c in range(4)]
        big = max(classes, key=len)
        assert len(big) >= 3
        rest = [i for i in range(9) if i not in big]
        assert st_separable(ps, big, rest, 2, 1) is None

    def test_validation(self):
        with pytest.raises(InputError):
            halfspace_4coloring(point_set([[0, 0], [1, 1]]))


class TestFSearchSamplers:
    def test_radon_four_points_always_good(self):
        rep = f_search(2, 4, "random-rational", samples=4, seed="fs", s=1, t=1)
        assert rep.all_good and rep.sample_count == 4
        assert all(c is not None for c in rep.certificates)

    def test_convex_position_witness(self):
        rep = f_search(2, 5, "convex-position", samples=3, seed="fs", s=2, t=1)
        assert not rep.all_good
        assert rep.witness_index == 0
        assert rep.witness_transcript == 2 ** 5 - 2
        assert len(rep.witness.points) == 5

    def test_line_tverberg_witness_and_bound(self):
        rep = f_search(1, 4, "moment-curve", samples=3, seed="fs", r=3, s=1)
        assert not rep.all_good and rep.witness_transcript == 6
        rep = f_search(1, 5, "moment-curve", samples=3, seed="fs", r=3, s=1)
        assert rep.all_good
