"""Finite abstract convexity spaces: an intersection-closed family over a
small ground set standing in for the convex sets.

The hull of a subset is the intersection of every family member containing
it, so hulls exist, are monotone, and land back in the family. Radon and
Tverberg numbers are computed by exhaustive scan, halfspaces are the
members with a member complement, and (s,t)-separability of a bipartition
is decided against unions of family members. The block-hull reduction that
powers the geometric searcher is used here only to find witnesses early;
the verdict that none exists always comes from full union enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .combinat import (check_total, indices_of, mask_of, rgs_partitions,
                       rgs_partitions_exact, stirling2)
from .errors import CapExceeded, InputError
from .setsystems import SetSystem, set_system


@dataclass(frozen=True)
class ConvexitySpace:
    """Ground set 0..n-1 with an explicit family of subsets as bitmasks."""

    n: int
    family: tuple

    @property
    def member_sets(self) -> tuple:
        """Family members as sorted index tuples, in mask order."""
        return tuple(indices_of(m) for m in self.family)


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
    """
    members = set(space.family)
    full = (1 << space.n) - 1
    if 0 not in members:
        return False, ("missing-empty",)
    if full not in members:
        return False, ("missing-full",)
    for a, b in itertools.combinations(space.family, 2):
        if a & b not in members:
            return False, ("intersection", indices_of(a), indices_of(b))
    return True, None


def hull(space: ConvexitySpace, subset) -> tuple:
    """Smallest family member containing the subset, as sorted indices."""
    return indices_of(_hull_mask(space, mask_of(subset, space.n)))


def _hull_mask(space: ConvexitySpace, mask: int) -> int:
    out = (1 << space.n) - 1
    for member in space.family:
        if member & mask == mask:
            out &= member
    return out


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
    hulls = {}
    for k in range(2, space.n + 1):
        if all(_has_radon_partition(space, sub, hulls)
               for sub in itertools.combinations(range(space.n), k)):
            return k
    return None


def _has_radon_partition(space, sub, hulls) -> bool:
    for asize in range(1, len(sub) // 2 + 1):
        for a in itertools.combinations(sub, asize):
            b = tuple(i for i in sub if i not in a)
            if asize == len(b) and a > b:
                continue
            ha = hulls.get(a)
            if ha is None:
                ha = hulls[a] = _hull_mask(space, mask_of(a, space.n))
            hb = hulls.get(b)
            if hb is None:
                hb = hulls[b] = _hull_mask(space, mask_of(b, space.n))
            if ha & hb:
                return True
    return False


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
    hulls = {}
    for k in range(r, space.n + 1):
        if all(_has_tverberg_partition(space, sub, r, hulls)
               for sub in itertools.combinations(range(space.n), k)):
            return k
    return None


def _has_tverberg_partition(space, sub, r, hulls) -> bool:
    for parts in rgs_partitions_exact(sub, r):
        common = (1 << space.n) - 1
        for part in parts:
            h = hulls.get(part)
            if h is None:
                h = hulls[part] = _hull_mask(space, mask_of(part, space.n))
            common &= h
            if not common:
                break
        if common:
            return True
    return False


def halfspaces(space: ConvexitySpace) -> SetSystem:
    """Members whose complement is also a member, as a set system."""
    members = set(space.family)
    full = (1 << space.n) - 1
    edges = [m for m in space.family if (full ^ m) in members]
    return set_system(space.n, [indices_of(m) for m in edges])


def is_separable(space: ConvexitySpace, cap: int = 10**6):
    """(True, None) when every disjoint member pair is split by a halfspace,
    else (False, (first_member, second_member)) in mask order."""
    pairs = comb(len(space.family), 2)
    if pairs > cap:
        raise CapExceeded("member_pairs", cap, pairs)
    members = set(space.family)
    full = (1 << space.n) - 1
    halves = [m for m in space.family if (full ^ m) in members]
    for a, b in itertools.combinations(space.family, 2):
        if a & b:
            continue
        if not any(h & a == a and h & b == 0 for h in halves):
            return False, (indices_of(a), indices_of(b))
    return True, None


@dataclass(frozen=True)
class AbstractSeparation:
    """Disjoint unions of family members covering the two sides."""

    a_members: tuple   # member index tuples whose union holds side A
    b_members: tuple


@dataclass(frozen=True)
class AbstractGoodPartition:
    """A bipartition whose every cover pair intersects, with the exhaustion
    counts of the union enumeration that proved it."""

    partition: tuple
    s: int
    t: int
    a_cover_count: int
    b_cover_count: int
    checked_pairs: int


def abstract_separable(space: ConvexitySpace, a, b, s: int, t: int,
                       cap: int = 10**6):
    """A pair of disjoint unions (at most s members over A, t over B), or
    None when every cover pair intersects.

    Witnesses are searched first among unions of block hulls, mirroring the
    geometric reduction; the None verdict always comes from enumerating all
    member unions, which is the ground truth here. An empty side is covered
    by the empty union, so it is separable from anything outright.
    """
    if s < 1 or t < 1:
        raise InputError("cover sizes must be at least 1")
    a_mask = mask_of(a, space.n)
    b_mask = mask_of(b, space.n)
    if a_mask & b_mask:
        raise InputError("sides overlap")
    if not a_mask or not b_mask:
        return AbstractSeparation((), ())
    a_idx = indices_of(a_mask)
    b_idx = indices_of(b_mask)
    # block-hull pruning pass
    for a_blocks in rgs_partitions(a_idx, s):
        ua = 0
        for block in a_blocks:
            ua |= _hull_mask(space, mask_of(block, space.n))
        if ua & b_mask:
            continue
        for b_blocks in rgs_partitions(b_idx, t):
            ub = 0
            for block in b_blocks:
                ub |= _hull_mask(space, mask_of(block, space.n))
            if not ua & ub:
                return AbstractSeparation(
                    tuple(hull(space, blk) for blk in a_blocks),
                    tuple(hull(space, blk) for blk in b_blocks))
    # ground truth: every union of members
    a_unions = _unions_covering(space, a_mask, s, cap)
    b_unions = _unions_covering(space, b_mask, t, cap)
    for ua, ma in a_unions.items():
        for ub, mb in b_unions.items():
            if not ua & ub:
                return AbstractSeparation(
                    tuple(indices_of(space.family[i]) for i in ma),
                    tuple(indices_of(space.family[i]) for i in mb))
    return None


def _unions_covering(space, mask, limit, cap):
    """Distinct unions of at most `limit` members containing mask, each with
    its first representative member tuple, in size-then-lex order."""
    count = len(space.family)
    check_total("family_unions", (comb(count, k) for k in range(1, limit + 1)), cap)
    out = {}
    for k in range(1, limit + 1):
        for members in itertools.combinations(range(count), k):
            u = 0
            for mi in members:
                u |= space.family[mi]
            if u & mask == mask and u not in out:
                out[u] = members
    return out


def abstract_good_partition(space: ConvexitySpace, subset, s: int, t: int,
                            cap: int = 10**6):
    """First bipartition (by size of A, then lexicographic) that no cover
    pair separates, or None when all bipartitions separate."""
    subset = indices_of(mask_of(subset, space.n))
    if len(subset) < 2:
        raise InputError("need at least two elements to bipartition")
    for size in range(1, len(subset)):
        for a in itertools.combinations(subset, size):
            b = tuple(i for i in subset if i not in a)
            if abstract_separable(space, a, b, s, t, cap) is None:
                a_unions = _unions_covering(space, mask_of(a, space.n), s, cap)
                b_unions = _unions_covering(space, mask_of(b, space.n), t, cap)
                return AbstractGoodPartition(
                    (a, b), s, t, len(a_unions), len(b_unions),
                    len(a_unions) * len(b_unions))
    return None


def interval_space(n: int) -> ConvexitySpace:
    """Index intervals [i..j] plus the empty set: the convexity of a path."""
    if n < 1:
        raise InputError("path needs at least one vertex")
    family = [()]
    for i in range(n):
        for j in range(i, n):
            family.append(range(i, j + 1))
    return convexity_space(n, family)


def geometric_space(ps, n_cap: int = 12) -> ConvexitySpace:
    """Hull-closed subsets of a point set: S with CH(S) picking up no
    further points. Intersection-closed by hull monotonicity.

    A point j outside S lies in CH(S) iff some circuit has C+ = {j} and
    C- inside S, so the closed sets are the masks that no circuit with a
    single point on one side lies across, read off the circuit table with
    no LP. n_cap also bounds the table: its sum over k of C(n, k) subsets
    is below 2^n.
    """
    from .geometry import circuit_table, uncrossed_masks

    n = len(ps.points)
    if n > n_cap:
        raise CapExceeded("geometric_space_points", n_cap, n)
    # signed lists both orientations; (C, {j}) lies across S iff C is inside
    # S and j is not, that is, iff j is a point of CH(S) outside S
    signed = [(p, m) for p, m in circuit_table(ps, range(n)).signed
              if m.bit_count() == 1]
    return convexity_space(n, [indices_of(s) for s in uncrossed_masks(n, signed)])
