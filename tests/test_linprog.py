"""Feasibility kernel: frozen cases, oracle agreement, certificate integrity,
and the integer rows and kernel against the Rat-arithmetic reference."""

import itertools

import pytest
from bruteforce import (fm_feasible, fraction_check_farkas, fraction_lp_feasible,
                        fraction_normalize_rows, fraction_phase1)
from hypothesis import given, settings
from hypothesis import strategies as st

from convexparts import linprog
from convexparts.errors import InputError, InternalInvariantError
from convexparts.geometry import hull_meet_constraints, point_set
from convexparts.linprog import check_farkas, lp_feasible, normalize
from convexparts.rational import Rat
from convexparts.rng import CounterRng


def test_unit_box_feasible_at_origin():
    out = lp_feasible([((1,), ">=", 0), ((1,), "<=", 1)])
    assert out.feasible
    assert out.solution == (Rat(0),)


def test_contradictory_pair_farkas():
    cons = [((1,), ">=", 1), ((1,), "<=", 0)]
    out = lp_feasible(cons)
    assert not out.feasible
    # 1*(x >= 1) + 1*(-x >= 0) sums to 0 >= 1
    assert out.farkas == (Rat(1), Rat(1))
    assert check_farkas(cons, out.farkas)


def test_equality_pins_value():
    out = lp_feasible([((2,), "==", 1)])
    assert out.feasible
    assert out.solution == (Rat(1, 2),)


def test_normalize_expands_equalities_in_order():
    assert normalize([((1, 0), "==", 3), ((0, 1), "<=", 2)]) == ([
        ((1, 0), 3),
        ((-1, 0), -3),
        ((0, -1), -2),
    ], 1)
    # every row times L = lcm(2, 3), in the same order with the same signs
    assert normalize([((1, 0), "==", 3), ((0, Rat(1, 2)), "<=", Rat(2, 3))]) == ([
        ((6, 0), 18),
        ((-6, 0), -18),
        ((0, -3), -4),
    ], 6)


def test_nonneg_mode_shrinks_the_feasible_set():
    cons = [((1, 1), "<=", -1)]
    assert lp_feasible(cons).feasible
    out = lp_feasible(cons, nonneg=True)
    assert not out.feasible
    assert check_farkas(cons, out.farkas, nonneg=True)


def test_zero_width_rows_and_explicit_nvars():
    assert lp_feasible([], nvars=3).solution == (Rat(0),) * 3
    with pytest.raises(InputError):
        lp_feasible([])
    with pytest.raises(InputError):
        lp_feasible([((1,), ">=", 0), ((1, 2), ">=", 0)])


def test_unknown_relation_is_an_input_error():
    with pytest.raises(InputError, match="unknown relation '<'"):
        lp_feasible([((1,), ">=", 0), ((1,), "<", 1)])


def _random_system(rng, nvars, ncons, nonneg_prob=False):
    rels = [">=", "<=", "=="]
    cons = []
    for _ in range(ncons):
        coeffs = [rng.randint(-4, 4) for _ in range(nvars)]
        cons.append((tuple(coeffs), rels[rng.randint(0, 2)], Rat(rng.randint(-6, 6), 2)))
    return cons


@pytest.mark.parametrize("nonneg", [False, True])
def test_matches_fourier_motzkin_on_random_systems(nonneg):
    rng = CounterRng(20260816, f"lp-oracle-{nonneg}")
    agree = 0
    for _ in range(120):
        nvars = rng.randint(1, 3)
        cons = _random_system(rng, nvars, rng.randint(2, 6))
        out = lp_feasible(cons, nvars=nvars, nonneg=nonneg)
        assert out.feasible == fm_feasible(cons, nvars, nonneg=nonneg)
        if out.feasible:
            _assert_solution_ok(cons, out.solution, nonneg)
        else:
            assert check_farkas(cons, out.farkas, nonneg=nonneg)
        agree += 1
    assert agree == 120


def _assert_solution_ok(cons, x, nonneg):
    if nonneg:
        assert all(v >= 0 for v in x)
    for coeffs, rel, rhs in cons:
        val = sum(c * v for c, v in zip(coeffs, x))
        if rel == ">=":
            assert val >= rhs
        elif rel == "<=":
            assert val <= rhs
        else:
            assert val == rhs


def test_outcome_invariant_under_constraint_shuffles():
    rng = CounterRng(7, "lp-shuffle")
    for _ in range(40):
        nvars = rng.randint(1, 3)
        cons = _random_system(rng, nvars, rng.randint(2, 6))
        base = lp_feasible(cons, nvars=nvars)
        for _ in range(3):
            shuffled = rng.shuffle(cons)
            out = lp_feasible(shuffled, nvars=nvars)
            assert out.feasible == base.feasible
            if base.feasible:
                assert out.solution == base.solution
            else:
                assert check_farkas(shuffled, out.farkas)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(st.integers(-3, 3), min_size=2, max_size=2),
            st.sampled_from([">=", "<=", "=="]),
            st.integers(-4, 4),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_every_outcome_carries_a_checkable_witness(raw):
    cons = [(tuple(a), rel, b) for a, rel, b in raw]
    out = lp_feasible(cons, nvars=2)
    if out.feasible:
        _assert_solution_ok(cons, out.solution, nonneg=False)
        assert fm_feasible(cons, 2)
    else:
        assert check_farkas(cons, out.farkas)
        assert not fm_feasible(cons, 2)


# --- the integer kernel against the Rat-arithmetic reference ---------------

_DENS = st.sampled_from([1, 2, 3, 7, 2**20 - 1, 2**20])
# small values make tied ratios and repeated rows likely; the wide ones mix
# denominators up to 2^20 so that the common scale L is large
_VALUES = st.one_of(st.sampled_from([0, 0, 1, -1, 2]).map(Rat),
                    st.builds(Rat, st.integers(-6, 6), _DENS))


@st.composite
def _phase1_inputs(draw):
    nvars = draw(st.integers(1, 4))
    zero_cols = draw(st.sets(st.integers(0, nvars - 1), max_size=nvars - 1))
    cons = []
    for _ in range(draw(st.integers(1, 6))):
        coeffs = [Rat(0) if j in zero_cols else draw(_VALUES) for j in range(nvars)]
        cons.append((tuple(coeffs), draw(st.sampled_from([">=", "<=", "=="])), draw(_VALUES)))
    if draw(st.booleans()):
        cons.append(draw(st.sampled_from(cons)))
    return cons, nvars, draw(st.booleans())


def _assert_kernel_matches_reference(cons, nvars, nonneg):
    rows, _ = normalize(cons)
    ok, nums, div = linprog._phase1(sorted(rows), nvars, nonneg)
    ref = fraction_phase1(sorted(fraction_normalize_rows(cons)), nvars, nonneg)
    assert (ok, [Rat(v, div) for v in nums]) == ref


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_phase1_inputs())
def test_integer_kernel_returns_the_reference_vector(case):
    _assert_kernel_matches_reference(*case)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_phase1_inputs())
def test_lp_feasible_returns_the_reference_outcome(case):
    assert lp_feasible(*case) == fraction_lp_feasible(*case)


_COLLINEAR = point_set([(Rat(t, 3), 2 * Rat(t, 3) + 1) for t in (0, 5, 1, 4, 2, 3)])
_COPLANAR = point_set([(x, y, x + 2 * y - 1) for x, y in
                       [(0, 0), (3, 1), (1, 4), (Rat(1, 2), Rat(2, 7)), (2, 2),
                        (Rat(5, 3), 0)]])


def _hull_systems(ps):
    n = len(ps.points)
    for k in range(1, n):
        for a in itertools.combinations(range(n), k):
            rest = [i for i in range(n) if i not in a]
            for b in (tuple(rest), tuple(rest[:1]), tuple(rest[-2:])):
                yield hull_meet_constraints(ps, (a, b))


@pytest.mark.parametrize("ps", [_COLLINEAR, _COPLANAR], ids=["collinear", "coplanar"])
def test_integer_kernel_on_degenerate_hull_systems(ps):
    for cons, nvar in _hull_systems(ps):
        _assert_kernel_matches_reference(cons, nvar, True)


@pytest.mark.parametrize("ps", [_COLLINEAR, _COPLANAR], ids=["collinear", "coplanar"])
def test_lp_feasible_on_degenerate_hull_systems(ps):
    outcomes = set()
    for cons, nvar in _hull_systems(ps):
        out = lp_feasible(cons, nvars=nvar, nonneg=True)
        assert out == fraction_lp_feasible(cons, nvar, nonneg=True)
        outcomes.add(out.feasible)
    assert outcomes == {True, False}


def _tampered(y):
    """The vector itself and the tampered copies a re-check must judge alike."""
    yield y
    k = next((i for i, v in enumerate(y) if v), 0)
    yield y[:k] + (-y[k],) + y[k + 1:]
    yield y[:k] + (y[k] + Rat(1, 7),) + y[k + 1:]
    yield y[:-1]
    yield y + (Rat(0),)
    yield (Rat(0),) * len(y)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_phase1_inputs(), st.lists(_VALUES, min_size=1, max_size=14))
def test_check_farkas_gives_the_reference_verdict(case, vector):
    cons, nvars, nonneg = case
    out = lp_feasible(cons, nvars=nvars, nonneg=nonneg)
    nrows = len(fraction_normalize_rows(cons))
    candidates = [tuple(vector), tuple(abs(v) for v in vector)[:nrows]]
    if not out.feasible:
        candidates.append(out.farkas)
    for y in candidates:
        for z in _tampered(y):
            assert check_farkas(cons, z, nonneg) == fraction_check_farkas(cons, z, nonneg)


# --- the re-checks read the input rows, not the tableau ---------------------

_SQUARE = point_set([(0, 0), (4, 0), (0, 4), (4, 4), (1, 1)])


def _patched_phase1(monkeypatch, tamper):
    real = linprog._phase1

    def phase1(rows, nvars, nonneg):
        ok, nums, div = real(rows, nvars, nonneg)
        return ok, tamper(list(nums)), div

    monkeypatch.setattr(linprog, "_phase1", phase1)


def _bump_first_nonzero(nums):
    k = next(i for i, v in enumerate(nums) if v)
    nums[k] += 1
    return nums


def test_a_point_off_by_one_numerator_is_refused(monkeypatch):
    cons, nvar = hull_meet_constraints(_SQUARE, ((0, 3), (1, 2)))
    assert lp_feasible(cons, nvars=nvar, nonneg=True).feasible
    _patched_phase1(monkeypatch, _bump_first_nonzero)
    with pytest.raises(InternalInvariantError, match="simplex returned a non-solution"):
        lp_feasible(cons, nvars=nvar, nonneg=True)


@pytest.mark.parametrize("cons, nonneg", [
    ([((1,), ">=", 1), ((1,), "<=", 0)], False),
    (hull_meet_constraints(_SQUARE, ((0, 1), (2, 3)))[0], True),
], ids=["contradictory-pair", "disjoint-hulls"])
def test_a_perturbed_farkas_vector_is_refused(monkeypatch, cons, nonneg):
    assert not lp_feasible(cons, nonneg=nonneg).feasible

    def tamper(y):
        # the contradictory pair's rows cancel only at equal weights; a
        # negated weight breaks y >= 0
        if nonneg:
            k = next(i for i, v in enumerate(y) if v)
            y[k] = -y[k]
            return y
        return _bump_first_nonzero(y)

    _patched_phase1(monkeypatch, tamper)
    with pytest.raises(InternalInvariantError, match="Farkas vector failed re-check"):
        lp_feasible(cons, nonneg=nonneg)


@pytest.mark.parametrize("groups", [((0, 3), (1, 2)), ((0, 1), (2, 3))],
                         ids=["meeting", "disjoint"])
def test_one_rat_per_returned_coordinate(monkeypatch, groups):
    cons, nvar = hull_meet_constraints(_SQUARE, groups)
    built = []
    real = linprog.Rat

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(linprog, "Rat", counted)
    out = lp_feasible(cons, nvars=nvar, nonneg=True)
    assert len(built) == len(out.solution if out.feasible else out.farkas)
