"""Shattering machinery against closed forms and brute-force recounts."""

import itertools

import pytest
from bruteforce import (check_r_shatter_ref, count_realizable_ref,
                        is_r_shattered_ref, is_realizable_ref)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convexparts.combinat import mask_of
from convexparts.errors import CapExceeded, InputError
from convexparts.rng import CounterRng
from convexparts.setsystems import (
    check_r_shatter,
    check_sauer,
    count_realizable,
    is_r_shattered,
    is_realizable,
    is_shattered,
    min_f_counting,
    primal_shatter,
    r_partition,
    r_shatter_bound,
    r_vc_dim,
    sauer_bound,
    set_system,
    vc_dim,
)


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


def test_r_partition_validation():
    with pytest.raises(InputError):
        r_partition((0, 1, 2), [(0, 1), (1, 2)])
    with pytest.raises(InputError):
        r_partition((0, 1, 2), [(0,), (1,)])
    part = r_partition((0, 1, 2), [(0, 2), (), (1,)])
    assert part.r == 3 and part.parts[1] == ()


def test_realizability_needs_an_edge_per_part():
    sys = set_system(3, [(0,), (1,)])
    assert not is_realizable(sys, r_partition((0, 1, 2), [(0,), (1,), (2,)]))
    assert is_realizable(sys, r_partition((0, 1), [(0,), (1,)]))


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
            if is_realizable(sys, r_partition(items, parts)):
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
        perm = rng.shuffle(list(range(6)))
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
    partition = r_partition(S, parts)
    assert is_realizable(sys, partition) == is_realizable_ref(sys, partition)


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


def test_many_wildcard_slots_stay_shallow():
    # every edge holds point 0, so no slot can miss it; the search has to
    # fail within the recursion limit however large r is
    sys = set_system(3, [(0,), (0, 1), (0, 2)])
    assert not is_r_shattered(sys, (0, 1, 2), 5000)
    assert r_vc_dim(sys, 5000) == 1
    assert not is_realizable(sys, r_partition((0,), [(0,)] + [()] * 4999))
    assert not is_realizable(set_system(3, [(1,), (2,)]),
                             r_partition((1, 2), [(1, 2)] + [()] * 4999))
    assert is_realizable(set_system(3, [(1,), (2,)]),
                         r_partition((1, 2), [(1,)] + [()] * 4998 + [(2,)]))
