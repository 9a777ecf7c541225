"""Shattering machinery against closed forms and brute-force recounts."""

import gc
import itertools
from math import comb

import pytest
from bruteforce import (check_r_shatter_ref, check_r_shatter_walk_ref, check_sauer_ref,
                        count_realizable_ref, count_realizable_walk_ref, counter_shuffle,
                        is_r_shattered_ref, is_r_shattered_walk_ref, is_realizable_ref,
                        min_f_counting_ref, r_vc_dim_walk_ref)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convexparts.combinat import indices_of, mask_of
from convexparts.errors import CapExceeded, InputError
from convexparts.rng import CounterRng
from convexparts.setsystems import (
    check_r_shatter,
    check_sauer,
    count_realizable,
    _Traces,
    is_r_shattered,
    is_shattered,
    min_f_counting,
    primal_shatter,
    r_shatter_bound,
    r_vc_dim,
    sauer_bound,
    set_system,
    vc_dim,
)


def realizable(sys, S, parts):
    """Whether the r-partition parts of S is realizable; an empty part is a
    wildcard slot."""
    blocks = [mask_of(p, sys.n) for p in parts if p]
    return _Traces(sys, mask_of(S, sys.n)).realizable(blocks, len(parts))


def power_set_system(n):
    return set_system(n, range(1 << n))


def interval_system(n):
    """Traces of single intervals on n collinear points: runs plus the empty set."""
    edges = [0]
    for i in range(n):
        for j in range(i, n):
            edges.append(mask_of(range(i, j + 1), n))
    return set_system(n, edges)


def random_system(rng, n, max_edges):
    count = rng.randint(1, max_edges)
    return set_system(n, [rng.randint(0, (1 << n) - 1) for _ in range(count)])


def test_power_set_shatters_everything():
    sys4 = power_set_system(4)
    assert vc_dim(sys4) == 4
    assert is_shattered(sys4, (0, 1, 2, 3))
    for r in (2, 3):
        assert count_realizable(sys4, (0, 1, 2, 3), r) == r**4
        assert is_r_shattered(sys4, (0, 1, 2, 3), r)
    assert r_vc_dim(sys4, 3) == 4


def test_single_full_edge_has_dimension_zero():
    sys1 = set_system(5, [(0, 1, 2, 3, 4)])
    assert vc_dim(sys1) == 0
    assert r_vc_dim(sys1, 3) == 0
    assert not is_r_shattered(sys1, (2,), 3)
    assert is_r_shattered(sys1, (), 3)


def test_interval_trace_shatter_profile():
    sys8 = interval_system(8)
    assert vc_dim(sys8) == 2
    # any 5 collinear points: empty trace + 5 singletons + C(5,2) runs
    assert primal_shatter(sys8, 5) == 16
    assert sauer_bound(5, 2) == 16
    profile = check_sauer(sys8)
    assert profile.dimension == 2
    assert profile.all_ok
    assert profile.rows[5].computed == profile.rows[5].bound == 16


def test_min_f_counting_worked_threshold():
    # d=1, r=2: f=5 fails (6^2 = 36 >= 2^5), f=6 is the first strict win (49 < 64)
    assert min_f_counting(1, 2) == 6
    for d, r in [(1, 2), (1, 3), (2, 2), (2, 4), (3, 3)]:
        f = min_f_counting(d, r)
        assert sauer_bound(f, d) ** r * (r - 1) ** f < r**f
        assert sauer_bound(f - 1, d) ** r * (r - 1) ** (f - 1) >= r ** (f - 1)


def test_realizability_needs_an_edge_per_part():
    sys = set_system(3, [(0,), (1,)])
    assert not realizable(sys, (0, 1, 2), [(0,), (1,), (2,)])
    assert realizable(sys, (0, 1), [(0,), (1,)])


def test_count_realizable_on_shattered_set_is_two_power():
    rng = CounterRng(31, "count-shattered")
    found = 0
    for _ in range(60):
        sys = random_system(rng, 5, 24)
        for size in (3, 2):
            for combo in itertools.combinations(range(5), size):
                if is_shattered(sys, combo):
                    assert count_realizable(sys, combo, 2) == 1 << size
                    found += 1
                    break
            else:
                continue
            break
    assert found >= 20


def test_count_realizable_matches_direct_enumeration():
    """Recount ordered assignments one by one, no class dedup."""
    rng = CounterRng(32, "count-direct")
    for _ in range(25):
        sys = random_system(rng, 5, 12)
        items = (0, 1, 3)
        r = 3
        direct = 0
        for labels in itertools.product(range(r), repeat=len(items)):
            parts = [[] for _ in range(r)]
            for item, lab in zip(items, labels):
                parts[lab].append(item)
            if realizable(sys, items, parts):
                direct += 1
        assert count_realizable(sys, items, r) == direct


def test_empty_base_counts_one_iff_edges_exist():
    assert count_realizable(set_system(3, [(0,)]), (), 4) == 1
    assert count_realizable(set_system(3, []), (), 4) == 0


def test_shattered_implies_two_shattered():
    rng = CounterRng(33, "shatter-implies")
    hits = 0
    for _ in range(80):
        sys = random_system(rng, 5, 28)
        for combo in itertools.combinations(range(5), 3):
            if is_shattered(sys, combo):
                assert is_r_shattered(sys, combo, 2)
                hits += 1
    assert hits > 10


def test_r_shattering_monotone_in_r():
    rng = CounterRng(34, "monotone-r")
    hits = 0
    for _ in range(60):
        sys = random_system(rng, 5, 20)
        for combo in itertools.combinations(range(5), 2):
            if is_r_shattered(sys, combo, 2):
                assert is_r_shattered(sys, combo, 3)
                assert is_r_shattered(sys, combo, 4)
                hits += 1
    assert hits > 5
    for _ in range(40):
        sys = random_system(rng, 6, 40)
        assert r_vc_dim(sys, 2) <= r_vc_dim(sys, 3) <= r_vc_dim(sys, 4)


def test_relabeling_invariance():
    rng = CounterRng(35, "relabel")
    for _ in range(20):
        sys = random_system(rng, 6, 20)
        perm = counter_shuffle(rng, range(6))
        remapped = set_system(
            6, [[perm[i] for i in range(6) if e >> i & 1] for e in sys.edges]
        )
        assert vc_dim(sys) == vc_dim(remapped)
        assert r_vc_dim(sys, 3) == r_vc_dim(remapped, 3)
        assert primal_shatter(sys, 3) == primal_shatter(remapped, 3)


def test_caps_raise():
    sys = power_set_system(6)
    with pytest.raises(CapExceeded):
        primal_shatter(sys, 3, cap=2)
    with pytest.raises(CapExceeded):
        count_realizable(sys, (0, 1, 2, 3, 4, 5), 4, cap=10)
    with pytest.raises(InputError):
        r_vc_dim(sys, 1)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(4, 7).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=24),
        )
    )
)
def test_sauer_bound_holds_on_random_systems(args):
    n, edges = args
    profile = check_sauer(set_system(n, edges))
    assert profile.all_ok


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(0, 31), min_size=1, max_size=16),
    st.integers(2, 3),
)
def test_r_shatter_bound_holds_on_random_systems(edges, r):
    profile = check_r_shatter(set_system(5, edges), r)
    assert profile.all_ok
    assert profile.kind == "rvc" and profile.r == r
    assert r_shatter_bound(3, 0, 2) == 1


@st.composite
def _shatter_cases(draw):
    """A system on n <= 7 points, r, an m_max, a subset S of the ground set
    and an r-partition of S given as one part label per point of S."""
    n = draw(st.integers(0, 7))
    edges = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=12))
    r = draw(st.integers(2, 4))
    m_max = draw(st.none() | st.integers(0, n))
    base = draw(st.integers(0, (1 << n) - 1))
    labels = draw(st.lists(st.integers(0, r - 1), min_size=7, max_size=7))
    return n, edges, r, m_max, base, labels


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_shatter_cases())
@example((5, [], 3, None, 0b10110, [0] * 7))          # no edges
@example((5, [0], 2, None, 0b11111, [0, 1] * 4))      # only the empty edge
@example((5, [31], 3, None, 0b00111, [0, 1, 2] * 3))  # only the full edge
@example((6, [0, 63, 5, 10, 48, 33], 2, 3, 0b101101, [1, 0] * 4))  # m_max < n
@example((6, [1, 2, 4, 8, 16, 32, 63], 4, 4, 0b111111, [0, 1, 2, 3] * 2))
def test_realizability_matches_the_rescanning_reference(case):
    n, edges, r, m_max, base, labels = case
    sys = set_system(n, edges)
    S = [i for i in range(n) if base >> i & 1]
    parts = [[] for _ in range(r)]
    for i, lab in zip(S, labels):
        parts[lab].append(i)
    # every row, rows m <= r_vc_dim too, against a recount over every subset
    assert check_r_shatter(sys, r, m_max=m_max) == check_r_shatter_ref(sys, r, m_max)
    assert count_realizable(sys, S, r) == count_realizable_ref(sys, S, r)
    assert is_r_shattered(sys, S, r) == is_r_shattered_ref(sys, S, r)
    assert realizable(sys, S, parts) == is_realizable_ref(sys, S, parts)


def test_caps_raise_in_the_recount_order():
    # rows 1..6 lie below t = 6, yet row 5 needs 4^5 orderings per subset
    with pytest.raises(CapExceeded) as err:
        check_r_shatter(power_set_system(6), 4, cap=1000)
    assert (err.value.cap_name, err.value.cap_value, err.value.needed) == (
        "count_realizable_orderings", 1000, 1024)
    # r_vc_dim asks first, on the whole 6-set: 1 + 31 + 90 + 65 classes
    with pytest.raises(CapExceeded) as err:
        check_r_shatter(power_set_system(6), 4, cap=100)
    assert (err.value.cap_name, err.value.cap_value, err.value.needed) == (
        "r_shatter_classes", 100, 187)
    # r_vc_dim checks 2^(n-1) or more classes on the n-set, never fewer
    # than the C(n, m) subsets of a row, so only n = 0 meets this cap first
    with pytest.raises(CapExceeded) as err:
        check_r_shatter(set_system(0, []), 2, cap=0)
    assert (err.value.cap_name, err.value.cap_value, err.value.needed) == (
        "r_shatter_subsets", 0, 1)



def test_every_cap_reports_a_need_past_it():
    # a cap fires only when the value it checked passes it; the orderings
    # cap checks r^max(|S|, 1) and once reported r^0 = 1 at a cap of 1
    rng = CounterRng(36, "cap-needs")
    systems = [set_system(0, []), set_system(0, [0])]
    systems += [random_system(rng, n, 12) for n in range(1, 5) for _ in range(3)]
    for sys in systems:
        for cap in range(70):
            for fn, args in ((check_sauer, ()), (check_r_shatter, (2,)),
                             (check_r_shatter, (3,)), (check_r_shatter, (4,))):
                try:
                    fn(sys, *args, cap=cap)
                except CapExceeded as err:
                    assert err.needed > err.cap_value, (sys, args, str(err))

def test_r_shatter_total_work_stops_at_the_cap():
    # each row passes its own caps here (at most C(10, 5) = 252 subsets and
    # 2^10 = 1024 orderings per subset), but the rows above t = r_vc_dim
    # test sum over m > t of C(10, m) * 2^(m-1) classes together
    rng = CounterRng(35, "total-work")
    sys = set_system(10, [rng.randint(0, 1023) for _ in range(30)])
    t = r_vc_dim(sys, 2)
    need = sum(comb(10, m) * 2 ** (m - 1) for m in range(t + 1, 11))
    assert need > 1024
    with pytest.raises(CapExceeded) as err:
        check_r_shatter(sys, 2, cap=1024)
    assert (err.value.cap_name, err.value.cap_value) == (
        "r_shatter_classes_total", 1024)
    assert 1024 < err.value.needed <= need


def test_many_wildcard_slots_stay_shallow():
    # every edge holds point 0, so no slot can miss it; the search has to
    # fail within the recursion limit however large r is
    sys = set_system(3, [(0,), (0, 1), (0, 2)])
    assert not is_r_shattered(sys, (0, 1, 2), 5000)
    assert r_vc_dim(sys, 5000) == 1
    assert not realizable(sys, (0,), [(0,)] + [()] * 4999)
    assert not realizable(set_system(3, [(1,), (2,)]), (1, 2), [(1, 2)] + [()] * 4999)
    assert realizable(set_system(3, [(1,), (2,)]), (1, 2), [(1,)] + [()] * 4998 + [(2,)])


def _outcome(fn, *args, **kwargs):
    """The answer, or the (cap name, cap, need) of the cap that stopped it."""
    try:
        return fn(*args, **kwargs)
    except CapExceeded as err:
        return err.cap_name, err.cap_value, err.needed


@st.composite
def _two_part_cases(draw):
    """A system on n <= 8 points, a cap, an m_max and a subset S."""
    n = draw(st.integers(0, 8))
    edges = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=40))
    cap = draw(st.sampled_from([1, 2, 8, 30, 100, 300, 10**6]))
    m_max = draw(st.none() | st.integers(0, n))
    base = draw(st.integers(0, (1 << n) - 1))
    return n, edges, cap, m_max, base


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_two_part_cases())
@example((0, [], 1, None, 0))                          # empty ground
@example((4, list(range(16)), 8, None, 0b1111))        # shattered ground at the cap
@example((4, list(range(16)), 7, 2, 0b0111))           # one class above the cap
@example((6, [0, 63, 7, 56, 5, 58], 10**6, None, 0b111111))  # complements only
@example((5, [0, 1, 2, 4, 8, 16], 30, 3, 0b10110))     # singletons and the empty edge
@example((4, [0, 1, 2, 4, 8, 3, 6, 12], 8, None, 0b0111))  # VC scan past the cap
def test_two_part_answers_match_the_class_walk(case):
    # r = 2 reads the trace set; the references walk every block class
    n, edges, cap, m_max, base = case
    sys = set_system(n, edges)
    S = indices_of(base)
    assert _outcome(r_vc_dim, sys, 2, cap=cap) == _outcome(r_vc_dim_walk_ref, sys, 2, cap=cap)
    assert (_outcome(check_r_shatter, sys, 2, m_max=m_max, cap=cap)
            == _outcome(check_r_shatter_walk_ref, sys, 2, m_max=m_max, cap=cap))
    assert (_outcome(count_realizable, sys, S, 2, cap=cap)
            == _outcome(count_realizable_walk_ref, sys, S, 2, cap=cap))
    assert (_outcome(is_r_shattered, sys, S, 2, cap=cap)
            == _outcome(is_r_shattered_walk_ref, sys, S, 2, cap=cap))


@st.composite
def _many_part_cases(draw):
    """A system on n <= 8 points, r in 3..5, a cap, an m_max and a subset S."""
    n, edges, cap, m_max, base = draw(_two_part_cases())
    return n, edges, draw(st.integers(3, 5)), cap, m_max, base


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_many_part_cases())
@example((0, [], 3, 1, None, 0))                       # empty ground
@example((4, list(range(16)), 3, 81, None, 0b1111))    # shattered ground at the cap
@example((4, list(range(16)), 3, 80, None, 0b1111))    # one ordering past the cap
@example((5, [0, 31], 4, 10**6, None, 0b11111))        # only the empty and full edges
@example((6, [1, 2, 4, 8, 16, 32, 63], 5, 10**6, 4, 0b110111))
@example((8, [m for m in range(256) if m & 3 != 3], 3, 10**6, None, 0b11111111))
def test_many_part_answers_match_the_class_walk(case):
    # r >= 3 counts ordered partitions as one bitset; the references walk
    # every block class and weigh each realizable one by its orderings
    n, edges, r, cap, m_max, base = case
    sys = set_system(n, edges)
    S = indices_of(base)
    assert (_outcome(count_realizable, sys, S, r, cap=cap)
            == _outcome(count_realizable_walk_ref, sys, S, r, cap=cap))
    assert (_outcome(check_r_shatter, sys, r, m_max=m_max, cap=cap)
            == _outcome(check_r_shatter_walk_ref, sys, r, m_max=m_max, cap=cap))


def test_counting_leaves_no_cycles():
    # big ints never trigger the cyclic collector, so bitsets held by a
    # reference cycle would outlive the call
    rng = CounterRng(37, "no-cycles")
    sys = random_system(rng, 9, 40)
    want = count_realizable_walk_ref(sys, range(9), 3)  # its DFS closure is a cycle
    gc.collect()
    gc.disable()
    try:
        assert count_realizable(sys, range(9), 3) == want
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_many_slots_count_without_recursion():
    # 1000^2 orderings meet the default cap; the slots are walked in a loop
    sys = set_system(3, [(0,), (1,), (0, 2), ()])
    assert count_realizable(sys, (0, 1), 1000) == count_realizable_walk_ref(sys, (0, 1), 1000)
    assert _outcome(count_realizable, sys, (0, 1), 1001) == (
        "count_realizable_orderings", 10**6, 1001**2)


def test_one_point_subsets_match_the_class_walk():
    # one point takes one slot and leaves r - 1 empty: r orderings when the
    # empty set and the point are both traces, else none
    for edges in ([], [()], [(0,)], [(0,), ()], [(0, 1)], [(1,), (0, 2)],
                  [(0,), (1,), ()], [(0, 1, 2), (2,)]):
        sys = set_system(3, edges)
        for i in range(3):
            for r in range(3, 7):
                assert count_realizable(sys, (i,), r) \
                    == count_realizable_walk_ref(sys, (i,), r), (edges, i, r)


def test_two_part_dimension_keeps_its_one_cap():
    # every subset of at most 2 of 10 points: 56 edges, so the scan starts
    # at level 5 and visits 252 + 210 + 120 + 45 subsets down to level 2,
    # more than the cap of 512 = 2^9 classes that r_vc_dim checks; vc_dim
    # under that cap stops before level 3
    sys = set_system(10, [c for k in range(3) for c in itertools.combinations(range(10), k)])
    assert _outcome(vc_dim, sys, cap=512) == ("vc_subsets", 512, 582)
    assert r_vc_dim(sys, 2, cap=512) == r_vc_dim_walk_ref(sys, 2, cap=512) == 2
    assert (_outcome(r_vc_dim, sys, 2, cap=511) == _outcome(r_vc_dim_walk_ref, sys, 2, cap=511)
            == ("r_shatter_classes", 511, 512))


def test_vc_subsets_cap_adds_levels_from_the_top():
    # 11 edges on 10 points: the scan starts at level 3 and finds only
    # singletons shattered, after C(10, 3) + C(10, 2) + C(10, 1) subsets
    sys = set_system(10, [()] + [(i,) for i in range(10)])
    assert vc_dim(sys, cap=175) == vc_dim(sys, cap=None) == 1
    assert _outcome(vc_dim, sys, cap=174) == ("vc_subsets", 174, 175)
    # a shattered top level stops the scan after its own C(10, 3) subsets
    cube = set_system(10, [indices_of(m) for m in range(8)])
    assert vc_dim(cube, cap=120) == 3
    assert _outcome(vc_dim, cube, cap=119) == ("vc_subsets", 119, 120)
    # check_sauer asks vc_dim under the same cap before its first row
    assert _outcome(check_sauer, sys, m_max=1, cap=174) == ("vc_subsets", 174, 175)


@st.composite
def _sauer_cases(draw):
    """A system on n <= 9 points, a cap and an m_max."""
    n = draw(st.integers(0, 9))
    edges = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=40))
    cap = draw(st.sampled_from([1, 2, 8, 30, 100, 300, 10**6]))
    m_max = draw(st.none() | st.integers(0, n))
    return n, edges, cap, m_max


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_sauer_cases())
@example((0, [], 1, None))                             # empty ground
@example((9, list(range(512)), 10**6, None))           # shattered ground: no row recounted
@example((9, list(range(512)), 100, None))             # row 4 of d = 9 past the cap
@example((9, [0] + [1 << i for i in range(9)], 200, None))  # d = 1: the rows above sum past it
@example((9, [0] + [1 << i for i in range(9)], 200, 2))     # d = 1: row 2 alone fits
def test_sauer_rows_match_the_recount(case):
    # rows up to the VC dimension are 2^m; the reference recounts each row
    n, edges, cap, m_max = case
    sys = set_system(n, edges)
    got = _outcome(check_sauer, sys, m_max=m_max, cap=cap)
    d = _outcome(vc_dim, sys, cap=cap)
    top = n if m_max is None else m_max
    total = sum(comb(n, m) for m in range(d + 1, top + 1)) if isinstance(d, int) else 0
    if total > cap:
        assert got[:2] == ("primal_shatter_total", cap) and cap < got[2] <= total
    else:
        assert got == _outcome(check_sauer_ref, sys, m_max=m_max, cap=cap)
    assert check_sauer(sys, m_max=m_max) == check_sauer_ref(sys, m_max=m_max)


# min_f_counting_ref over d = 0..6 (rows) and r = 2..20 (columns), recorded
# once: the reference recomputes every power for every f, which takes about
# 100 s over this grid on one core of a 2-CPU x86-64 host
MIN_F_GRID = {
    0: [1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
        1, 1, 1, 1, 1, 1, 1, 1, 1],
    1: [6, 24, 57, 105, 170, 252, 352, 471, 609, 767,
        946, 1144, 1364, 1605, 1868, 2153, 2459, 2788, 3140],
    2: [14, 55, 125, 228, 366, 541, 753, 1004, 1295, 1627,
        2002, 2419, 2879, 3383, 3933, 4527, 5167, 5854, 6587],
    3: [22, 86, 196, 355, 567, 836, 1162, 1547, 1994, 2503,
        3076, 3715, 4419, 5191, 6030, 6939, 7917, 8966, 10086],
    4: [30, 118, 267, 483, 771, 1134, 1574, 2095, 2698, 3386,
        4159, 5020, 5970, 7010, 8142, 9367, 10685, 12098, 13607],
    5: [39, 150, 339, 612, 975, 1433, 1989, 2645, 3406, 4272,
        5246, 6331, 7527, 8837, 10262, 11804, 13463, 15242, 17140],
    6: [48, 182, 411, 741, 1180, 1733, 2405, 3197, 4115, 5161,
        6337, 7645, 9089, 10669, 12388, 14247, 16248, 18393, 20683],
}


def test_min_f_counting_matches_the_reference_grid():
    assert {d: [min_f_counting(d, r) for r in range(2, 21)] for d in range(7)} == MIN_F_GRID
    # the grid's cheap entries, recomputed by the reference here
    for d, row in MIN_F_GRID.items():
        for r, f in enumerate(row, start=2):
            if f <= 1000:
                assert min_f_counting_ref(d, r) == f


def test_min_f_counting_cap_outcomes_match_the_reference():
    for d in range(4):
        for r in (2, 3, 5):
            for f_cap in range(0, 60):
                assert (_outcome(min_f_counting, d, r, f_cap=f_cap)
                        == _outcome(min_f_counting_ref, d, r, f_cap=f_cap))
