"""Finite abstract convexity spaces: an intersection-closed family over a
small ground set standing in for the convex sets.

The hull of a subset is the intersection of every family member containing
it, so hulls exist, are monotone, and land back in the family. Halfspaces
are the members with a member complement.

Radon and Tverberg numbers come from capture tests, not from walking the
partitions of each subset. An element x lies in the hull of P iff P fits
inside no member that avoids x, that is, iff P meets the complement of
every maximal member avoiding x (the capture tests of x, built once per
space). This is the definition of the hull read element by element, so it
is exact for any family, closed or not. Hulls are monotone, so a subset
has an r-partition whose hulls share an element iff, for some x, r
disjoint parts of it each meet every capture test of x; leftover points
join any part. The scan checks every k-subset for k = r, r+1, ... and
stops at the first k where all pass; per subset and per x the search is a
pruned r-colouring of the points the tests touch. The `radon_checks` and
`tverberg_checks` caps count the exact r-partitions of every k-subset, and
bound this search too: for one subset and one x it visits at most
(r+1)(k+1) prefixes per exact r-partition of the subset.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, reduce
from math import comb
from operator import and_

from .combinat import check_total, indices_of, mask_of, stirling2
from .errors import CapExceeded, InputError
from .setsystems import SetSystem, set_system


@dataclass(frozen=True)
class ConvexitySpace:
    """Ground set 0..n-1 with an explicit family of subsets as bitmasks."""

    n: int
    family: tuple

    @cached_property
    def capture_tests(self) -> tuple:
        """Per ground element x, the complements of the maximal members
        that avoid x: x lies in the hull of P iff P meets every one."""
        full = (1 << self.n) - 1
        by_size = sorted(self.family, key=int.bit_count, reverse=True)
        tests = []
        for x in range(self.n):
            rest = [m for m in by_size if not m >> x & 1]
            maximal = []
            while rest:
                # the largest member left is under none kept so far
                big = rest[0]
                maximal.append(full ^ big)
                rest = [m for m in rest if m | big != big]
            tests.append(tuple(maximal))
        return tuple(tests)


def convexity_space(n: int, family) -> ConvexitySpace:
    """Normalize a family of index subsets; axioms are checked separately
    by validate_space, so invalid families can be represented and reported."""
    if n < 1:
        raise InputError("ground set needs at least one element")
    masks = sorted({mask_of(member, n) for member in family})
    return ConvexitySpace(n, tuple(masks))


def validate_space(space: ConvexitySpace):
    """(True, None) when the two axioms hold, else (False, violation).

    Violations: ("missing-empty",), ("missing-full",), or
    ("intersection", member_a, member_b) naming the first pair, in mask
    order, whose intersection is outside the family.

    A family holding the full set is closed iff every member meets every
    generator inside the family, for any generators whose intersections
    give every member (a meet of two members is then a chain of meets with
    generators). Members are taken largest first, and one is a generator
    unless the generators above it already meet exactly in it, so the
    check costs a few set differences per member instead of a walk over
    every pair. Pairs are walked only to name the first violation.
    """
    members = set(space.family)
    full = (1 << space.n) - 1
    if 0 not in members:
        return False, ("missing-empty",)
    if full not in members:
        return False, ("missing-full",)
    generators = []
    for m in sorted(space.family, key=int.bit_count, reverse=True):
        if reduce(and_, [g for g in generators if m | g == g], full) != m:
            generators.append(m)
    if any({a & g for g in generators} - members for a in members):
        for a, b in itertools.combinations(space.family, 2):
            if a & b not in members:
                return False, ("intersection", indices_of(a), indices_of(b))
    return True, None


def _radon_work(n: int, k: int) -> int:
    # ordered bipartitions of a k-set halve to unordered nonempty ones
    return comb(n, k) * (2 ** (k - 1) - 1)


def radon_number(space: ConvexitySpace, cap: int = 10**6):
    """Least k such that every k-subset splits into two parts with meeting
    hulls, or None when no k up to the ground size works.

    The property is monotone in k (a partition of a subset extends by
    placing extra points anywhere; hulls only grow), so the scan returns
    the first k that works.
    """
    check_total("radon_checks",
                (_radon_work(space.n, k) for k in range(2, space.n + 1)), cap)
    return _least_partitionable(space, 2)


def tverberg_number(space: ConvexitySpace, r: int, cap: int = 10**6):
    """Least k such that every k-subset has an r-partition (exactly r
    nonempty parts) whose hulls share an element, or None."""
    if r < 2:
        raise InputError("need at least two parts")
    if r == 2:
        return radon_number(space, cap)
    check_total("tverberg_checks",
                (comb(space.n, k) * stirling2(k, r) for k in range(r, space.n + 1)),
                cap)
    return _least_partitionable(space, r)


def _least_partitionable(space: ConvexitySpace, r: int):
    tests = space.capture_tests
    bits = [1 << i for i in range(space.n)]
    for k in range(r, space.n + 1):
        if all(_has_good_partition(tests, sum(sub), r)
               for sub in itertools.combinations(bits, k)):
            return k
    return None


def _has_good_partition(tests, sub: int, r: int) -> bool:
    """Whether the points of mask sub split into exactly r parts whose
    hulls share an element: for some x, r disjoint parts each meeting
    every capture test of x inside sub (leftover points join any part)."""
    for x_tests in tests:
        restricted = {t & sub for t in x_tests}
        if (all(t.bit_count() >= r for t in restricted)
                and _splits(sub, restricted, r)):
            return True
    return False


def _splits(sub: int, tests, r: int) -> bool:
    """Whether r disjoint parts of sub each meet every test, for tests of
    at least r points each.

    A point lying in every test is a good part on its own, and setting it
    aside costs a good split at most the one part that holds it, so such
    points are taken as parts first. The rest is a depth-first colouring,
    in RGS order, of the points lying in some test with the parts still
    missing, such that every test meets every colour. A prefix is dropped
    when some test has fewer uncoloured points than colours it still
    misses; as every test misses the colours not yet opened, each prefix
    walked still completes to exactly r nonempty parts.
    """
    common = sub
    cover = 0
    for t in tests:
        common &= t
        cover |= t
    r -= common.bit_count()
    if r <= 1:
        return True
    cover &= ~common
    tests = [t & ~common for t in tests]
    parts = [0] * r

    def rec(left, used):
        for t in tests:
            missing = 0
            for part in parts:
                if not part & t:
                    missing += 1
            if missing > (t & left).bit_count():
                return False
        if not left:
            return True
        bit = left & -left
        left ^= bit
        for c in range(used + 1 if used < r else r):
            parts[c] |= bit
            if rec(left, used + (c == used)):
                return True
            parts[c] ^= bit
        return False

    return rec(cover, 0)


def halfspaces(space: ConvexitySpace) -> SetSystem:
    """Members whose complement is also a member, as a set system."""
    members = set(space.family)
    full = (1 << space.n) - 1
    edges = [m for m in space.family if (full ^ m) in members]
    return set_system(space.n, [indices_of(m) for m in edges])


def check_member_pairs(space: ConvexitySpace, cap: int) -> None:
    """Raise CapExceeded("member_pairs") when the family has more than cap
    pairs of members, the bound on any walk over member pairs."""
    pairs = comb(len(space.family), 2)
    if pairs > cap:
        raise CapExceeded("member_pairs", cap, pairs)


def is_separable(space: ConvexitySpace, cap: int = 10**6):
    """(True, None) when every disjoint member pair is split by a halfspace,
    else (False, (first_member, second_member)) in mask order."""
    check_member_pairs(space, cap)
    members = set(space.family)
    full = (1 << space.n) - 1
    halves = [m for m in space.family if (full ^ m) in members]
    for a, b in itertools.combinations(space.family, 2):
        if a & b:
            continue
        if not any(h & a == a and h & b == 0 for h in halves):
            return False, (indices_of(a), indices_of(b))
    return True, None
