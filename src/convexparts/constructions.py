"""Explicit witnesses for partition bounds, with built-in re-verification.

Generators here produce the point sets behind the lower and upper bounds
tested elsewhere: moment-curve instances, planar convex position, periodic
colorings on a line, tight Tverberg instances, and far-apart translated
copies. Each verifier re-derives its claim from kernel predicates (exact
hull emptiness, interval arithmetic on a line) instead of trusting the
construction.

The moment-curve adversary: points z_i = (t_i, ..., t_i^d) split into p
consecutive intervals of m points each. Against any r-coloring it picks one
color per interval, greedily left to right, taking the lowest color that
appears at most floor(d/2) times inside the interval and has been picked
fewer than floor((s-1)/2) times overall. The covers it then assembles have
jointly empty intersection: a counting argument keeps the greedy from
stalling, and floor(d/2)-neighborliness makes each single-interval piece
avoid the other covers. Both facts are checked per run, never assumed.

A color's finished cover depends only on its class and the intervals the
greedy picked for it: its points in each picked interval, plus one group per
maximal run of intervals not picked for it. _eligible lists the colors an
interval's local coloring allows, _pick makes the greedy pick among them
from the colors' pick counts, _cover builds one color's cover as point masks
from its class and picks, and _check_structure checks that cover; the
single-coloring path built from these lives with the test references. The
sweep over every coloring walks the colorings one interval at a time, depth
first, carrying only each prefix's class and pick masks and pick counts. At
the last interval it decides the prefix's r^m colorings together, on a tree
keyed by each color's cover slot in turn, with the grouping walk's two
steps: an inner node grows its parent's tuples by its color's cover
(_grow_tuples), a node left with none decides every coloring below it, and a
leaf asks _any_tuple_meets of them and the last color's cover. Then it
checks and counts the prefix's colorings in order, up to the first that
failed, so each distinct (color, class, picks) cover is built and checked
once. Every question goes to one MeetOracle, in one process, whose pair
questions are answered from the instance's circuit table and kept in the
oracle's memo.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .combinat import check_total, run_splits
from .errors import CapExceeded, InputError, InternalInvariantError
from .geometry import PointSet, circuit_table, point_set
from .partitions import MeetOracle, _any_tuple_meets, _grow_tuples, good_tverberg_partition
from .rational import Rat


def moment_curve(n: int, d: int, rng=None) -> PointSet:
    """n points (t, t^2, ..., t^d) at strictly increasing t in (0, 1).

    Default parameters are t_i = i/(n+1); a generator draws distinct random
    t instead.
    """
    if n < 1 or d < 1:
        raise InputError("need n >= 1 and d >= 1")
    if rng is None:
        ts = [Rat(i, n + 1) for i in range(1, n + 1)]
    else:
        seen = set()
        while len(seen) < n:
            seen.add(Rat(rng.randint(1, (1 << 30) - 1), 1 << 30))
        ts = sorted(seen)
    return point_set([[t ** k for k in range(1, d + 1)] for t in ts])


def moment_curve_bits(n: int, d: int, random_t: bool = False) -> int:
    """A bound on the numerator plus denominator bits of moment_curve(n, d),
    without building it: coordinate k of a point is t^k, so it takes at most
    k times the bits of t's numerator and denominator, which are at most
    those of n+1 for t = i/(n+1), and 30 and 31 for a random t."""
    per_t = 61 if random_t else 2 * (n + 1).bit_length()
    return n * (d * (d + 1) // 2) * per_t


@dataclass(frozen=True)
class MomentAdversaryInstance:
    """Moment-curve points grouped into p consecutive intervals of m each.

    Point i belongs to interval i // m. The sizes m = (floor(d/2)+1)r/2 and
    p = floor((s-1)/2)r/2 are exactly what the greedy color choice needs to
    never stall.
    """

    d: int
    s: int
    r: int
    m: int
    p: int
    n: int
    points: PointSet
    interval_index: tuple


def moment_adversary_size(d: int, s: int, r: int) -> tuple:
    """(m, p) of the adversary instance, after the parameter checks; odd r
    is rejected (the odd case follows from r-1 by never using the last
    color)."""
    if d < 1:
        raise InputError("dimension must be at least 1")
    if s < 3:
        raise InputError("need s >= 3")
    if r < 2 or r % 2:
        raise InputError("r must be even and at least 2")
    return (d // 2 + 1) * r // 2, (s - 1) // 2 * r // 2


def moment_adversary_instance(d: int, s: int, r: int) -> MomentAdversaryInstance:
    """Instance sized for the adversary (see moment_adversary_size)."""
    m, p = moment_adversary_size(d, s, r)
    n = m * p
    return MomentAdversaryInstance(d, s, r, m, p, n, moment_curve(n, d),
                                   tuple(i // m for i in range(n)))


def _split_interval(inst: MomentAdversaryInstance, q: int, local) -> tuple:
    """Interval q's points of each color as a mask; local holds the colors
    of the interval's m points in order."""
    start = q * inst.m
    return tuple(sum(1 << (start + k) for k, c in enumerate(local) if c == color)
                 for color in range(inst.r))


def _eligible(inst: MomentAdversaryInstance, masks) -> tuple:
    """The colors with at most floor(d/2) points among one interval's masks,
    in increasing order."""
    return tuple(c for c, mask in enumerate(masks) if mask.bit_count() <= inst.d // 2)


def _pick(inst: MomentAdversaryInstance, eligible, counts) -> int:
    """The greedy's pick for one interval: the first of its eligible colors
    chosen fewer than floor((s-1)/2) times before, counts holding each
    color's picks so far. Counting keeps this defined: at least r/2 colors
    are eligible, while fewer than r/2 can be at quota.
    """
    quota = (inst.s - 1) // 2
    for color in eligible:
        if counts[color] < quota:
            return color
    raise InternalInvariantError("no eligible color in an interval; the "
                                 "counting bound failed")


def _cover(inst: MomentAdversaryInstance, class_mask: int,
           picked_mask: int) -> tuple:
    """One color's cover as point masks, in interval order: its points
    inside each interval picked for it, plus one group per maximal run of
    intervals not picked for it.

    Pieces without any point of the color are dropped; a color with no
    points at all gets no groups, which is the empty set. The group count
    never exceeds 2*floor((s-1)/2)+1 <= s.
    """
    groups = []
    run = 0
    interval = (1 << inst.m) - 1
    for q in range(inst.p):
        mine = class_mask & interval << q * inst.m
        if picked_mask >> q & 1:
            groups += [g for g in (run, mine) if g]
            run = 0
        else:
            run |= mine
    return tuple(groups) + ((run,) if run else ())


def _check_structure(inst: MomentAdversaryInstance, color: int,
                     class_mask: int, picked_mask: int, groups) -> None:
    """The structural checks of one color's cover, single coloring or sweep.

    class_mask holds the color's points, read off the coloring, not off the
    groups, and picked_mask the intervals the greedy chose for the color.
    The cover, given as point masks, has at most s groups, covers exactly
    its color class, and its pieces inside one interval chosen for its color
    hold at most floor(d/2) points.
    """
    if len(groups) > inst.s:
        raise InternalInvariantError(
            f"cover {color} uses {len(groups)} groups, allowed {inst.s}")
    cap = inst.d // 2
    covered = 0
    too_large = False
    for g in groups:
        covered |= g
        # g lies in one interval iff no point lies past the interval of its
        # lowest point
        q = inst.interval_index[(g & -g).bit_length() - 1]
        too_large |= (g.bit_count() > cap and picked_mask >> q & 1 == 1
                      and not g >> (q + 1) * inst.m)
    if covered != class_mask:
        raise InternalInvariantError(f"cover {color} misses points of its color")
    if too_large:
        raise InternalInvariantError("single-interval piece too large")


def _slot_sets(indices) -> list:
    """Per color, the set of slot indices that the listed colorings use."""
    return [frozenset(column) for column in zip(*indices)]


@dataclass(frozen=True)
class AdversarySweepReport:
    """Aggregate of the adversary's checks over all r^n colorings."""

    ok: bool
    d: int
    s: int
    r: int
    n: int
    total: int
    verified: int
    max_groups: int
    first_failure: tuple | None


def moment_adversary_exhaustive(d: int, s: int, r: int) -> AdversarySweepReport:
    """Run the adversary against every coloring, lexicographic order.

    The walk goes one interval at a time, depth first. An interval's r^m
    local colorings are listed once, in lexicographic order, as per-color
    masks, so the concatenated local colorings come out in the order of
    itertools.product(range(r), repeat=n); each local coloring's eligible
    colors are listed with it. A prefix carries each color's class, picks
    (as masks) and pick count, and the greedy's pick for a local coloring
    depends on the counts alone, so the picks are listed once per counts
    tuple.

    A finished color's cover depends on its class and picks alone. At the
    last interval, each color keeps its covers per (color, prefix class,
    prefix picks), in slots keyed by the color's mask in the last interval
    and whether the last interval was picked for it. With the picks, each
    counts tuple lists every local coloring's slot per color, the set of
    slots each color's colorings use, and a tree of the local colorings
    keyed by color 0's slot, then color 1's, and so on; a leaf is the index
    of one local coloring.

    A prefix first fills, with _cover, each empty slot that its colorings
    use. Its colorings are then decided on the tree with the two steps of
    the grouping walk partitions._empty_cover (see the module docstring).
    Then the prefix's colorings are counted in order, up to the first that
    failed, and each cover the prefix filled goes through _check_structure
    if one of those colorings holds it. A prefix that does not fail checks
    every cover it filled, so each distinct (color, class, picks) cover is
    built and checked once, and the checks are exactly those of the
    per-coloring reference (1,812 over the 65,536 colorings at d, s, r =
    1, 5, 4). The slots hold at most r covers per coloring walked, whose
    r^n cap the caller checks. No verdict is kept across prefixes but
    the oracle's.

    Every question goes to one MeetOracle for the whole sweep, as a verdict
    only, with no certificate, and its memo keeps the pair verdicts across
    colorings. The oracle holds the circuit table of all n points, so pair
    questions solve no LP; its sum over k of C(n, k) subsets, like the r^m
    local colorings, is below r^n. Stops at the first failing coloring.
    """
    inst = moment_adversary_instance(d, s, r)
    oracle = MeetOracle(inst.points, circuit_table(inst.points, range(inst.n)))
    local = [_split_interval(inst, 0, c)
             for c in itertools.product(range(r), repeat=inst.m)]
    eligible = [_eligible(inst, masks) for masks in local]
    last = inst.p - 1
    by_counts = {}  # counts -> (picks, slot indices, tree, slot sets per color)
    slots = [{} for _ in range(r)]  # per color: (prefix class, picks) -> {slot: cover}
    verified = max_groups = 0
    failure = None

    def greedy(counts) -> tuple:
        out = by_counts.get(counts)
        if out is None:
            picks = [_pick(inst, e, counts) for e in eligible]
            indices = [tuple(mask << 1 | (c == pick) for c, mask in enumerate(masks))
                       for masks, pick in zip(local, picks)]
            tree = {}
            for j, idx in enumerate(indices):
                node = tree
                for i in idx[:-1]:
                    node = node.setdefault(i, {})
                node[idx[-1]] = j
            out = by_counts[counts] = picks, indices, tree, _slot_sets(indices)
        return out

    def decide(c, tuples, node, covers, failing) -> None:
        # grow tuples by color c's cover at each child of node, a child left
        # with none being decided; a leaf asks the last color's cover
        for i, child in node.items():
            if c + 1 == r:
                if _any_tuple_meets(oracle, tuples, covers[c][i]):
                    failing.append(child)
            else:
                grown = _grow_tuples(oracle, tuples, covers[c][i])
                if grown:
                    decide(c + 1, grown, child, covers, failing)

    def walk(q, classes, picked, counts) -> bool:
        # True once a coloring below this prefix fails
        nonlocal verified, max_groups, failure
        picks, indices, tree, needed = greedy(counts)
        shift = q * inst.m
        if q < last:
            for masks, pick in zip(local, picks):
                if walk(q + 1, tuple([a | b << shift for a, b in zip(classes, masks)]),
                        picked[:pick] + (picked[pick] | 1 << q,) + picked[pick + 1:],
                        counts[:pick] + (counts[pick] + 1,) + counts[pick + 1:]):
                    return True
            return False
        covers, fresh = [], []
        for c, key in enumerate(zip(classes, picked)):
            store = slots[c].setdefault(key, {})
            for i in needed[c].difference(store):
                masks = classes[c] | (i >> 1) << shift, picked[c] | (i & 1) << q
                store[i] = _cover(inst, *masks)
                fresh.append((c, i, masks))
            covers.append(store)
        failing = []
        decide(0, [()], tree, covers, failing)
        first = min(failing, default=None)
        if first is not None:
            used = _slot_sets(indices[:first + 1])
            fresh = [f for f in fresh if f[1] in used[f[0]]]
        for c, i, masks in fresh:
            groups = covers[c][i]
            _check_structure(inst, c, *masks, groups)
            max_groups = max(max_groups, len(groups))
        if first is None:
            verified += len(local)
            return False
        verified += first
        # the coloring, read back off the class masks
        full = [a | b << shift for a, b in zip(classes, local[first])]
        failure = tuple(next(c for c in range(r) if full[c] >> i & 1)
                        for i in range(inst.n))
        return True

    walk(0, (0,) * r, (0,) * r, (0,) * r)
    return AdversarySweepReport(failure is None, d, s, r, inst.n, r ** inst.n,
                                verified, max_groups, failure)


def periodic_coloring(n: int, r: int) -> tuple:
    """Color point i with i mod r."""
    if n < 1 or r < 1:
        raise InputError("need n >= 1 and r >= 1")
    return tuple(i % r for i in range(n))


@dataclass(frozen=True)
class PeriodicCoverReport:
    """Exhaustive evidence that no choice of interval covers, one per color
    class, pulls the periodic coloring apart."""

    ok: bool
    r: int
    s: int
    n: int
    coloring: tuple
    choices_checked: int
    max_missed: int
    miss_bound: int
    failure: tuple | None


def periodic_cover_size(r: int, s: int, n: int | None = None) -> int:
    """The point count of verify_periodic_line_cover, after the parameter
    checks: n, by default r(r-1)(s+1)+1, the least count making ok hold."""
    if r < 2 or s < 1:
        raise InputError("need r >= 2 and s >= 1")
    return r * (r - 1) * (s + 1) + 1 if n is None else n


def verify_periodic_line_cover(r: int, s: int, n: int | None = None,
                               cap: int = 10**6) -> PeriodicCoverReport:
    """Color 0..n-1 periodically with r colors, then sweep every way to
    cover each class by at most s intervals with endpoints at class points.

    ok means every choice of covers has a common point. Minimal covers
    dominate: any union of at most s intervals containing a class contains
    one whose intervals span runs of consecutive class points, so checking
    those suffices. Also audits the gap count: a single cover leaves at
    most s+1 gaps, and consecutive points of one class have exactly r-1
    points strictly between them, so one cover misses at most (s+1)(r-1)
    points. n defaults as in periodic_cover_size. A class of k points has
    sum over j <= s of C(k-1, j-1) run splits, all listed before the sweep;
    CapExceeded is raised when their total over the classes passes cap.
    """
    n = periodic_cover_size(r, s, n)
    if n < r:
        raise InputError("need at least one point of each color")
    coloring = periodic_coloring(n, r)
    classes = [tuple(range(c, n, r)) for c in range(r)]
    check_total("t999_run_splits",
                (comb(len(cls) - 1, j - 1) for cls in classes
                 for j in range(1, min(len(cls), s) + 1)), cap)
    miss_bound = (s + 1) * (r - 1)
    max_missed = 0
    class_covers = []
    for cls in classes:
        covers = []
        for splits in run_splits(len(cls), s):
            cover = tuple((cls[a], cls[b - 1]) for a, b in splits)
            covered = sum(hi - lo + 1 for lo, hi in cover)
            max_missed = max(max_missed, n - covered)
            covers.append(cover)
        class_covers.append(covers)
    if max_missed > miss_bound:
        raise InternalInvariantError(
            f"a cover misses {max_missed} points, gap bound {miss_bound}")

    checked = 0
    failure = None

    def meet(current, cover):
        out = []
        i = j = 0
        while i < len(current) and j < len(cover):
            lo = max(current[i][0], cover[j][0])
            hi = min(current[i][1], cover[j][1])
            if lo <= hi:
                out.append((lo, hi))
            if current[i][1] < cover[j][1]:
                i += 1
            else:
                j += 1
        return out

    # a loop over a stack of classes, no recursion: common[ci] is the
    # intersection of the path's covers before class ci
    path, common, walks = [], [[(0, n - 1)]], [iter(class_covers[0])]
    while walks:
        ci = len(walks) - 1
        cover = next(walks[ci], None)
        if cover is None:
            walks.pop()
            continue
        path[ci:] = [cover]
        nxt = meet(common[ci], cover)
        if not nxt:
            # every completion fails; report the lexicographically first
            failure = tuple(path + [cs[0] for cs in class_covers[ci + 1:]])
            break
        if ci + 1 == r:
            checked += 1
        else:
            common[ci + 1:] = [nxt]
            walks.append(iter(class_covers[ci + 1]))
    return PeriodicCoverReport(failure is None, r, s, n, coloring, checked,
                               max_missed, miss_bound, failure)


def convex_position(n: int, rng=None) -> PointSet:
    """n rational points in strictly convex position on the unit circle.

    Uses ((1-u^2)/(1+u^2), 2u/(1+u^2)) at distinct rationals u; the map is
    injective, so distinct u give distinct circle points. Default u = 0..n-1.
    """
    if n < 3:
        raise InputError("need at least three points")
    if rng is None:
        us = [Rat(i) for i in range(n)]
    else:
        seen = set()
        while len(seen) < n:
            seen.add(rng.rat(10**4, 64))
        us = sorted(seen)
    rows = []
    for u in us:
        den = 1 + u * u
        rows.append(((1 - u * u) / den, 2 * u / den))
    return point_set(rows)


def tverberg_tight_instance(d: int, r: int, seed="tight", attempts: int = 64) -> PointSet:
    """(r-1)(d+1) random rational points admitting no r-partition whose
    hulls share a point, retried until the exhaustive search confirms it."""
    from .rng import CounterRng

    if not 1 <= d <= 2:
        raise InputError("supported dimensions are 1 and 2")
    if not 2 <= r <= 4:
        raise InputError("supported r is 2..4")
    n = (r - 1) * (d + 1)
    for attempt in range(attempts):
        ps = point_set(CounterRng(f"{seed}:{attempt}").distinct_points(n, d))
        if good_tverberg_partition(ps, range(n), r, 1) is None:
            return ps
    raise CapExceeded("tight_instance_attempts", attempts, attempts + 1)


def translated_copies(ps: PointSet, s: int) -> PointSet:
    """s copies of the set translated along the first axis, far enough
    apart that the copies' hulls are pairwise disjoint, as one MeetOracle
    checks pair by pair. Copy k holds indices k*n .. (k+1)*n-1 in order."""
    if s < 1:
        raise InputError("need at least one copy")
    if s == 1:
        return ps
    xs = [p[0] for p in ps.points]
    step = max(xs) - min(xs) + 1
    rows = []
    for k in range(s):
        shift = k * step
        for p in ps.points:
            rows.append((p[0] + shift,) + tuple(p[1:]))
    out = point_set(rows)
    n0 = len(ps.points)
    blocks = [((1 << n0) - 1) << (k * n0) for k in range(s)]
    oracle = MeetOracle(out)
    for a, b in itertools.combinations(range(s), 2):
        if oracle.meets((blocks[a], blocks[b])):
            raise InternalInvariantError(f"copies {a} and {b} not separated")
    return out


def halfspace_4coloring(ps: PointSet):
    """4-coloring with no monochromatic halfspace trace of two or more
    points, found by backtracking in lexicographic color order.

    Such a coloring exists for every finite set in 3-space. None means the
    search is exhausted, which for valid input would refute that fact, so
    it is logged prominently rather than raised.
    """
    import logging

    from .ranges import halfspace_traces

    if ps.dim != 3:
        raise InputError("the four-coloring argument lives in dimension 3")
    n = len(ps.points)
    masks = [m for m in halfspace_traces(ps).traces if m.bit_count() >= 2]
    # a not-monochromatic constraint can only fire once its last point is
    # colored, so index masks by their highest point
    finish_at = [[] for _ in range(n)]
    for m in masks:
        finish_at[m.bit_length() - 1].append(m)
    colors = [-1] * n

    def ok_at(v):
        for m in finish_at[v]:
            first = colors[(m & -m).bit_length() - 1]
            w = m
            while w:
                b = w & -w
                if colors[b.bit_length() - 1] != first:
                    break
                w ^= b
            else:
                return False
        return True

    def search(v):
        if v == n:
            return True
        for c in range(4):
            colors[v] = c
            if ok_at(v) and search(v + 1):
                return True
        colors[v] = -1
        return False

    if search(0):
        return tuple(colors)
    logging.getLogger(__name__).warning(
        "4-coloring search exhausted for %d points without a valid coloring; "
        "this should be impossible for points in 3-space", n)
    return None
