"""Decision oracles and searchers for partitions against unions of convex sets.

Separability of a bipartition (A into <= s convex sets avoiding B's <= t
convex sets) and its r-fold analogue (covers with empty joint intersection)
reduce to finitely many hull-disjointness questions once each side is grouped:
a grouping works iff every cross tuple of hulls fails to meet. One grouping
walk (_empty_cover) serves every search and the good-partition checker: a
loop over a stack of parts in restricted-growth order, in which each part's
grouping grows its prefix's tuples once with _grow_tuples (the pair filter)
and the last part asks _any_tuple_meets. The t42 sweep in constructions
takes the same two steps on its tree of colorings. The walk stops past cap
combinations tried (separation_groupings), whatever their closed form, and
certificates re-verify from kernel predicates alone.

Parts and groups are point masks from the candidate down. The Radon search
takes A as a combination of the subset's point bits and B as the rest, the
Tverberg search takes the blocks of combinat.rgs_masks, and the grouping
walk takes each part's groupings from rgs_masks too. Parts that come from
a caller are checked once, by _part_masks (st_separability_report,
joint_cover_empty, verify_good_partition); a search checks its bounds once
and builds only valid parts, so the walk itself checks nothing. Masks
become sorted index tuples only where an LP is solved or a certificate is
built, so certificates and documents name index tuples.

Every question goes to one MeetOracle per search, whose memo is the only
pair or tuple memo. A search that enumerates the bipartitions or partitions
of its whole ground builds the ground's circuit table
(geometry.circuit_table) first, so its oracle answers every pair question
with no LP. On the line the walk asks no tuple of three or more groups at
all: by Helly's theorem in R^1, intervals that meet pairwise share a
point. A question of any arity is first tried on the known meetings, the
table's circuits and the supports of the LPs that met (Caratheodory):
meeting is monotone, so groups that hold a meeting's members, one each,
meet too. Every "disjoint" comes from the table or from the LP of exactly
the asked groups, so every verdict is exact. Separators are built only for
the grouping a search returns, and Farkas vectors in certificates come from
the LP of exactly the groups they name. Callers that may ask a single
question (separate, build-separation) and the certificate checker
verify_good_partition keep an oracle without a table.

Every certificate has one shape: it holds its PointSet once, as ps, and
names groups as sorted index tuples, a cover being a tuple of them. Its
checker verify_X(cert) takes it alone; only verify_good_partition also
takes a cap, because it re-runs the walk. serialize has one writer and
one reader per schema.

The constructive half replaces each cover by a union of polytopes, and
every facet is read off the Farkas vector of a meeting question
(geometry.farkas_separator), so no LP is built for separation alone.
Cross-pair separators give polytopes with at most t facets; each comes from
the pair's answer in the search's oracle, which holds it already unless the
oracle has a circuit table. The r-fold construction is sequential: each
separation target is an intersection of earlier polytopes with later hulls,
kept in mixed halfspace/hull form. A target that is nonempty gets one facet
per group: the Farkas vector that refutes a common point of the group's
hull with the target separates them with a unit gap, so no facet or vertex
enumeration of the target is needed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod

from .combinat import (binomial, check_total, indices_of, mask_of, partitions_le_count,
                       rgs_masks, stirling2)
from .errors import CapExceeded, InputError, InternalInvariantError, PreconditionFailed
from .geometry import (
    HullIntersection,
    Hyperplane,
    PointSet,
    _norm_group,
    circuit_table,
    closed_cells_constraints,
    closed_cells_meet,
    farkas_separator,
    hulls_common_point,
    point_set,
    strict_separator,
    verify_hulls_empty,
)
from .linprog import check_farkas


@dataclass(frozen=True)
class SeparationCertificate:
    """Grouping plus one strict separator per cross pair.

    hyperplanes[i][j] keeps a_groups[i] at side >= 1 and b_groups[j] at
    side <= -1; row hyperplanes[i] is the facet list of K_i, the closed cell
    containing a_groups[i] and excluding every B point.
    """

    ps: PointSet
    a_groups: tuple
    b_groups: tuple
    hyperplanes: tuple   # [i][j] -> Hyperplane


@dataclass(frozen=True)
class TupleWitness:
    """Emptiness evidence for one cross tuple of hull pieces.

    classes lists the cover positions whose chosen groups already have empty
    common intersection; the Farkas vector certifies that sub-system, which
    is enough because intersecting more sets cannot create a point.
    """

    choice: tuple    # group index selected in each cover
    classes: tuple   # cover positions the certificate talks about
    farkas: tuple


@dataclass(frozen=True)
class EmptyIntersectionCertificate:
    ps: PointSet
    covers: tuple       # per class, its hull pieces as sorted index tuples
    witnesses: tuple    # TupleWitness for every cross choice


@dataclass(frozen=True)
class GoodPartitionCertificate:
    """A partition all of whose grouping candidates were enumerated and rejected."""

    ps: PointSet
    kind: str
    partition: tuple
    enumerated: int
    closed_form: int
    params: dict


@dataclass(frozen=True)
class PolyhedralSeparation:
    """Per-cover polytope unions with jointly empty intersection.

    unions[i][k] is the facet list of the k-th polytope covering group k of
    cover i; emptiness pairs every cross choice of pieces with the Farkas
    vector of its closed-cell system.
    """

    ps: PointSet
    covers: tuple       # as in EmptyIntersectionCertificate
    unions: tuple
    emptiness: tuple

    @property
    def facet_counts(self) -> tuple:
        return tuple(tuple(len(piece) for piece in union) for union in self.unions)


class MeetOracle:
    """Do the hulls of these groups share a point? One point set, asked often.

    Built once per search. Groups are point masks; a question is keyed by
    its masks in sorted order, and _verdicts, the one pair and tuple memo
    of a search, holds every answer under that key. Only _solve turns masks
    into index tuples, sorted as index tuples, which is the group order of
    the LP solved for the key, so a Farkas vector taken from here is the one
    hulls_common_point(ps, groups) gives for those sorted tuples.

    _by_low, the one meeting index, lists each member of a known meeting
    (point sets whose hulls share a point) with the meeting's other
    members, under the bit of its lowest point. The meetings are the signed
    circuits (C+, C-) of table, a geometry.CircuitTable of ps, and the
    supports of each LP that met (its points of nonzero weight, one set per
    group). A question is answered, in this order:

    - from the exact memo, when the same groups were asked before;
    - "meets" when the first group holds a member of one meeting and each
      other group one of its other members: every member's hull holds the
      meeting's point and hulls only grow, so this holds at any arity;
    - for a pair inside table's ground, "disjoint" unless the groups
      overlap, as disjoint hulls that meet have a circuit across them;
    - by solving the LP, whose meeting then joins the index.

    intersection() always solves the LP, table or not. Nothing here
    outlives the oracle: no cache is kept across searches.
    """

    def __init__(self, ps: PointSet, table=None):
        self.ps = ps
        self._ground = 0 if table is None else table.ground
        self._verdicts = {}  # sorted masks -> bool: inferred, from the ground, or solved
        self._solved = {}    # sorted masks -> HullIntersection
        self._by_low = {}    # lowest point bit -> [(member, other members)]
        for plus, minus in () if table is None else table.signed:
            self._by_low.setdefault(plus & -plus, []).append((plus, (minus,)))

    def meets(self, groups) -> bool:
        """Whether the hulls of the point masks share a point."""
        key = tuple(sorted(groups))
        verdict = self._verdicts.get(key)
        if verdict is None:
            if self._inferred(key):
                verdict = True
            elif len(key) == 2 and not (key[0] | key[1]) & ~self._ground:
                verdict = bool(key[0] & key[1])
            else:
                verdict = bool(self._solve(key))
            self._verdicts[key] = verdict
        return verdict

    def intersection(self, groups) -> HullIntersection:
        """The exact common-point answer, point or Farkas vector, for the
        point masks as sorted index tuples."""
        key = tuple(sorted(groups))
        out = self._solved.get(key)
        return self._solve(key) if out is None else out

    def _inferred(self, key) -> bool:
        """The rule, read from the buckets of the first group's points only.
        Explicit loops: all(any(...)) is slower."""
        bits = first = key[0]
        rest, by_low = key[1:], self._by_low
        while bits:
            low = bits & -bits
            bits ^= low
            for member, others in by_low.get(low, ()):
                if member & first != member:
                    continue
                for group in rest:
                    for other in others:
                        if other & group == other:
                            break
                    else:
                        break
                else:
                    return True
        return False

    def _solve(self, key) -> HullIntersection:
        out = hulls_common_point(self.ps, sorted(map(indices_of, key)))
        if out:
            members = tuple(sum(1 << i for i, w in zip(g, ws) if w)
                            for g, ws in zip(out.groups, out.weights))
            for k, member in enumerate(members):
                self._by_low.setdefault(member & -member, []).append(
                    (member, members[:k] + members[k + 1:]))
        self._solved[key] = out
        self._verdicts[key] = bool(out)
        return out


def build_K_polyhedra(ps: PointSet, a_groups, b_groups, oracle=None) -> tuple:
    """One polytope per A-group: intersect its separators from every B-group.

    K_i has at most len(b_groups) facets, contains a_groups[i] with unit
    margin, and every B point sits at side <= -1 of at least one facet.
    oracle, a MeetOracle of ps, lends the answers a search already has:
    each separator is read off the pair's Farkas vector.
    """
    a_groups = tuple(_norm_group(ps, g) for g in a_groups)
    b_groups = tuple(_norm_group(ps, g) for g in b_groups)
    if not a_groups or not b_groups:
        raise InputError("both sides need at least one group")
    oracle = _oracle_for(ps, oracle)
    n = len(ps.points)
    ks = []
    for ga in a_groups:
        facets = []
        for gb in b_groups:
            meet = oracle.intersection((mask_of(ga, n), mask_of(gb, n)))
            if meet:
                raise PreconditionFailed(f"hulls of {ga} and {gb} share a point",
                                         witness=meet.point)
            facets.append(strict_separator(ps, gb, ga, meet))
        ks.append(tuple(facets))
    for ga, facets in zip(a_groups, ks):
        for i in ga:
            if any(h.side(ps.points[i]) < 1 for h in facets):
                raise InternalInvariantError("A-group escapes its own polytope")
    for facets in ks:
        for gb in b_groups:
            for i in gb:
                if all(h.side(ps.points[i]) > -1 for h in facets):
                    raise InternalInvariantError("B point not excluded from a polytope")
    return tuple(ks)


def _oracle_for(ps, oracle):
    if oracle is None:
        return MeetOracle(ps)
    if oracle.ps is not ps and oracle.ps != ps:
        raise InputError("oracle built for another point set")
    return oracle


def st_separable(ps: PointSet, a, b, s: int, t: int):
    """Certificate that A splits into <= s and B into <= t groups with all
    cross hulls disjoint, or None when no grouping pair works."""
    return st_separability_report(ps, a, b, s, t)[0]


def st_separability_report(ps: PointSet, a, b, s: int, t: int,
                           cap: int = 10**6):
    """(certificate or None, groupings enumerated, closed-form grouping count).

    The search itself only asks whether hulls meet; separators are built
    for the grouping it returns, not for the ones it passes over."""
    oracle = MeetOracle(ps)
    parts, s_list = _part_masks(ps, (a, b), (s, t))
    grouping, tried, closed_form = _empty_cover(oracle, parts, s_list, cap)
    if grouping is None:
        return None, tried, closed_form
    a_groups, b_groups = (tuple(map(indices_of, side)) for side in grouping)
    ks = build_K_polyhedra(ps, a_groups, b_groups, oracle=oracle)
    return SeparationCertificate(ps, a_groups, b_groups, ks), tried, closed_form


def verify_separation(cert: SeparationCertificate) -> bool:
    """Re-check a separation certificate from scratch."""
    ps = cert.ps
    if not cert.a_groups or not cert.b_groups or \
            len(cert.hyperplanes) != len(cert.a_groups):
        return False
    for row in cert.hyperplanes:
        if len(row) != len(cert.b_groups):
            return False
    for i, ga in enumerate(cert.a_groups):
        for j, gb in enumerate(cert.b_groups):
            hp = cert.hyperplanes[i][j]
            if len(hp.normal) != ps.dim or any(hp.side(ps.points[k]) < 1 for k in ga):
                return False
            if any(hp.side(ps.points[k]) > -1 for k in gb):
                return False
    return True


def joint_cover_empty(ps: PointSet, parts, s_list, cap: int = 10**6):
    """A cover of each part by <= s_i hulls such that every cross tuple of
    hulls has empty intersection, or None when every grouping combination
    leaves some tuple meeting."""
    oracle = MeetOracle(ps)
    parts, s_list = _part_masks(ps, parts, s_list)
    combo = _empty_cover(oracle, parts, s_list, cap)[0]
    if combo is None:
        return None
    covers = tuple(tuple(map(indices_of, groups)) for groups in combo)
    return EmptyIntersectionCertificate(ps, covers, _tuple_witnesses(oracle, combo))


def _part_masks(ps, parts, s_list):
    """(parts as point masks, s_list as a tuple) once the parts are checked
    to be two or more nonempty disjoint index groups of ps, with one group
    bound of at least 1 each: the one check the grouping walk relies on."""
    parts = [_norm_group(ps, p) for p in parts]
    if len(parts) < 2:
        raise InputError("need at least two parts")
    if len(set().union(*parts)) < sum(map(len, parts)):
        raise InputError("parts overlap")
    s_list = tuple(s_list)
    if len(s_list) != len(parts):
        raise InputError("one group bound per part required")
    if min(s_list) < 1:
        raise InputError("group counts must be at least 1")
    return [sum(1 << i for i in p) for p in parts], s_list


def _empty_cover(oracle, parts, s_list, cap):
    """(first combination of groupings, one per part into <= s_i groups, in
    restricted-growth product order, whose cross tuples all miss, or None;
    combinations tried; closed-form count). Parts and groups are point
    masks, taken as _part_masks or a search leaves them: nothing is checked
    here. One loop, no recursion: walks[k] is part k's rgs_masks walk under
    the prefix, and tuples[k] the prefix's cross tuples whose pairs all
    meet, grown once and shared by every completion. A prefix left with none
    is good whatever follows, so its first completion (each later part as
    one group) is the answer and one try; each last-part grouping is one."""
    closed_form = prod(map(partitions_le_count, map(int.bit_count, parts), s_list))
    bits = [[1 << i for i in indices_of(p)] for p in parts]
    last = len(parts) - 1
    combo, tuples, tried = [], [[()]], 0
    walks = [rgs_masks(bits[0], s_list[0])]
    while walks:
        k = len(walks) - 1
        groups = next(walks[k], None)
        if groups is None:
            walks.pop()
            continue
        combo[k:] = [groups]
        grown = _grow_tuples(oracle, tuples[k], groups) if k < last else None
        if grown:
            tuples[k + 1:] = [grown]
            walks.append(rgs_masks(bits[k + 1], s_list[k + 1]))
            continue
        tried += 1
        if tried > cap:
            raise CapExceeded("separation_groupings", cap, closed_form)
        if k < last or not _any_tuple_meets(oracle, tuples[k], groups):
            return tuple(combo) + tuple((p,) for p in parts[k + 1:]), tried, closed_form
    return None, tried, closed_form


def _grow_tuples(oracle, tuples, cover) -> list:
    """Each tuple extended by each group of cover that meets every group
    already in it, in product order: an empty sub-intersection already
    refutes every longer tuple. Pair verdicts are read from the oracle's
    memo first, under its sorted key. An empty cover leaves no tuple."""
    verdicts = oracle._verdicts
    grown = []
    for t in tuples:
        for y in cover:
            for x in t:
                key = (x, y) if x < y else (y, x)
                meets = verdicts.get(key)
                if meets is None:
                    meets = oracle.meets(key)
                if not meets:
                    break
            else:
                grown.append(t + (y,))
    return grown


def _any_tuple_meets(oracle, tuples, cover) -> bool:
    """Whether some tuple extended by some group of the last cover meets, in
    product order, stopping at the first. Its new pairs (x, y) are asked of
    the oracle as they are, so at r = 2 this is the product of pair
    questions; three or more groups are asked whole only off the line, as
    by Helly's theorem in R^1 intervals that meet pairwise share a point."""
    for t in tuples:
        for y in cover:
            for x in t:
                if not oracle.meets((x, y)):
                    break
            else:
                if len(t) < 2 or oracle.ps.dim == 1 or oracle.meets(t + (y,)):
                    return True
    return False


def _tuple_witnesses(oracle, combo):
    """Witness list covering every cross tuple of the point-mask covers, or
    None at the first tuple whose hulls meet. The witness names the first
    disjoint pair, else the whole tuple, with the Farkas vector of its
    exact LP."""
    witnesses = []
    everyone = tuple(range(len(combo)))
    pairs = tuple(itertools.combinations(everyone, 2))
    for choice in itertools.product(*[range(len(g)) for g in combo]):
        groups = tuple(combo[i][k] for i, k in enumerate(choice))
        for i, j in pairs:
            if not oracle.meets((groups[i], groups[j])):
                classes, sub = (i, j), (groups[i], groups[j])
                break
        else:
            if oracle.meets(groups):
                return None
            classes, sub = everyone, groups
        witnesses.append(TupleWitness(choice, classes, oracle.intersection(sub).farkas))
    return tuple(witnesses)


def verify_empty_intersection(cert: EmptyIntersectionCertificate) -> bool:
    """Re-check an empty-intersection certificate from scratch."""
    ps = cert.ps
    expected = set(itertools.product(*map(range, map(len, cert.covers))))
    seen = set()
    for w in cert.witnesses:
        if w.choice in seen or w.choice not in expected:
            return False
        seen.add(w.choice)
        # a negative class would index a real cover from the end
        if len(set(w.classes)) != len(w.classes) or len(w.classes) < 2 or \
                not all(0 <= c < len(cert.covers) for c in w.classes):
            return False
        groups = [cert.covers[c][w.choice[c]] for c in w.classes]
        # ordering must match the solved system: MeetOracle sorts index tuples
        groups = tuple(sorted(groups))
        if not verify_hulls_empty(ps, groups, w.farkas):
            return False
    return seen == expected


def good_radon_partition(ps: PointSet, subset, s: int, t: int,
                         cap: int = 10**6):
    """First bipartition (by size of A, then lexicographic) that no grouping
    pair separates, as a certificate, or None when all bipartitions separate.

    One MeetOracle serves every candidate, so verdicts carry over from one
    bipartition to the next, and it holds the circuit table of subset, so
    it solves no LP. The table needs no cap of its own: its sum over k of
    C(m, k) subsets is below the 2^m - 2 bipartitions the search walks.
    The 2^m - 2 bipartitions are checked against cap under the name
    radon_bipartitions before any is walked, and each bipartition's
    grouping walk stops past cap grouping pairs tried."""
    subset = _norm_group(ps, subset)
    count = _candidate_count("radon", len(subset), (s, t))
    if count > cap:
        raise CapExceeded("radon_bipartitions", cap, count)
    if len(subset) < 2:
        raise InputError("need at least two points to bipartition")
    if s < 1 or t < 1:
        raise InputError("group counts must be at least 1")
    oracle = MeetOracle(ps, circuit_table(ps, subset))
    bits = [1 << i for i in subset]
    full = sum(bits)
    for size in range(1, len(subset)):
        for combo in itertools.combinations(bits, size):
            a = sum(combo)
            cert = _candidate_good(oracle, "radon", (a, full ^ a), (s, t), cap)
            if cert is not None:
                return cert
    return None


def good_tverberg_partition(ps: PointSet, subset, r: int, s_list,
                            cap: int = 10**6):
    """First r-partition (restricted-growth order, then block-to-part
    assignment order) admitting no empty-intersection cover, or None.

    One MeetOracle with the circuit table of subset serves every
    candidate, as in good_radon_partition, so only tuple questions of
    three or more groups solve LPs. The partition count does not bound the
    table when r is near m (S(m, m-1) = C(m, 2)), so its subsets, the sum
    of C(m, k) for k = 2..min(m, d+2), are checked against cap under the
    name circuit_table before it is built. Each candidate's grouping walk
    stops past cap combinations tried."""
    subset = _norm_group(ps, subset)
    if r < 2:
        raise InputError("need at least two parts")
    if len(subset) < r:
        raise InputError("not enough points for the requested parts")
    if isinstance(s_list, int):
        s_list = [s_list] * r
    s_list = tuple(s_list)
    if len(s_list) != r:
        raise InputError("one group bound per part required")
    if any(s < 1 for s in s_list):
        raise InputError("group counts must be at least 1")
    uniform = len(set(s_list)) == 1
    nparts = _candidate_count("tverberg", len(subset), s_list)
    if nparts > cap:
        raise CapExceeded("tverberg_partitions", cap, nparts)
    sizes = range(2, min(len(subset), ps.dim + 2) + 1)
    check_total("circuit_table", (binomial(len(subset), k) for k in sizes), cap)
    oracle = MeetOracle(ps, circuit_table(ps, subset))
    for blocks in rgs_masks([1 << i for i in subset], r, r):
        # blocks are disjoint and nonempty, so their permutations are distinct
        for parts in (blocks,) if uniform else itertools.permutations(blocks):
            cert = _candidate_good(oracle, "tverberg", parts, s_list, cap)
            if cert is not None:
                return cert
    return None


def _candidate_count(kind, m, s_list) -> int:
    """The candidates a search over m points walks: 2^m - 2 bipartitions for
    radon, S(m, r) partitions for tverberg, times r! if the bounds differ."""
    if kind == "radon":
        return (1 << m) - 2
    r = len(s_list)
    count = stirling2(m, r)
    return count if len(set(s_list)) == 1 else count * prod(range(1, r + 1))


def _candidate_good(oracle, kind, parts, s_list, cap):
    """The good-partition certificate of parts, point masks, or None when
    some grouping combination leaves every cross tuple empty."""
    combo, tried, closed_form = _empty_cover(oracle, parts, s_list, cap)
    if combo is not None:
        return None
    params = {"s": s_list[0], "t": s_list[1]} if kind == "radon" \
        else {"s_list": tuple(s_list)}
    return GoodPartitionCertificate(oracle.ps, kind, tuple(map(indices_of, parts)),
                                    tried, closed_form, params)


def verify_good_partition(cert: GoodPartitionCertificate, cap: int = 10**6) -> bool:
    """Re-run the exhaustion for the certified partition of every point,
    under the same grouping cap as the searches; every field, counts
    included, must equal the re-derived certificate. The checker's oracle
    has no circuit table: it decides on the LP path."""
    ps, params = cert.ps, cert.params
    if cert.kind == "radon" and set(params) == {"s", "t"} and len(cert.partition) == 2:
        s_list = (params["s"], params["t"])
    elif cert.kind == "tverberg" and set(params) == {"s_list"}:
        s_list = params["s_list"]
    else:
        return False
    if sorted(i for part in cert.partition for i in part) != list(range(len(ps.points))):
        return False
    parts, s_list = _part_masks(ps, cert.partition, s_list)
    return _candidate_good(MeetOracle(ps), cert.kind, parts, s_list, cap) == cert


def _target_meets(ps, groups, halfspaces) -> bool:
    """Whether the hulls of the groups and the closed halfspaces share a point."""
    if groups:
        return bool(hulls_common_point(ps, groups, halfspaces))
    if not halfspaces:
        raise InternalInvariantError("separation target is the whole space")
    return closed_cells_meet([halfspaces]).feasible


def _target_separator(ps, group, groups, halfspaces) -> Hyperplane:
    """Hyperplane with group at side >= 1 and the nonempty target (the hulls
    of groups within the halfspaces) at side <= -1: the target's meeting
    question with group placed first has a Farkas vector, and
    farkas_separator reads the hyperplane off it."""
    meet = hulls_common_point(ps, (group,) + groups, halfspaces)
    if meet:
        raise InternalInvariantError("separation target meets the group hull")
    hp = farkas_separator(ps, meet)
    if any(hp.side(ps.points[i]) < 1 for i in group):
        raise InternalInvariantError("separator misses its own group")
    # recheck: no target point on the nonnegative side
    if _target_meets(ps, groups, halfspaces + (hp,)):
        raise InternalInvariantError("separator leaks target points")
    return hp


def build_r_separation(certificate: EmptyIntersectionCertificate,
                       cap: int = 10**6) -> PolyhedralSeparation:
    """Replace each cover of a verified empty-intersection certificate by a
    union of polytopes, built one cover at a time.

    Cover i is separated from every cross product of pieces already built
    (j < i) and hulls still pending (j > i); each nonempty such target
    contributes one facet, so piece facet counts never exceed the product of
    the other covers' group counts.
    """
    ps, covers = certificate.ps, certificate.covers
    if len(covers) < 2:
        raise InputError("need at least two covers")
    if not verify_empty_intersection(certificate):
        raise PreconditionFailed("empty-intersection certificate does not verify")
    r = len(covers)
    work = prod(max(1, len(c)) for c in covers)
    if work > cap:
        raise CapExceeded("separation_tuples", cap, work)
    built = []
    for i in range(r):
        # (halfspaces, hull groups) per item: built pieces, then pending hulls
        factors = [[(piece, ()) for piece in built[j]] for j in range(i)] + \
                  [[((), (g,)) for g in covers[j]] for j in range(i + 1, r)]
        targets = []
        for pick in itertools.product(*factors):
            halfspaces = tuple(h for cell, _ in pick for h in cell)
            groups = tuple(g for _, gs in pick for g in gs)
            if _target_meets(ps, groups, halfspaces):
                targets.append((groups, halfspaces))
        built.append([tuple(_target_separator(ps, grp, *target) for target in targets)
                      for grp in covers[i]])
    emptiness = []
    for choice in itertools.product(*[range(len(p)) for p in built]):
        pick = tuple(built[i][k] for i, k in enumerate(choice))
        if all(not piece for piece in pick):
            raise InternalInvariantError("facet-free cross tuple cannot be empty")
        out = closed_cells_meet(pick)
        if out.feasible:
            raise InternalInvariantError("constructed pieces still meet")
        emptiness.append((choice, out.farkas))
    unions = tuple(tuple(pieces) for pieces in built)
    return PolyhedralSeparation(ps, covers, unions, tuple(emptiness))


def verify_r_separation(sep: PolyhedralSeparation) -> bool:
    """Re-check containment and facet bounds from scratch, and joint
    emptiness from the certificate: one Farkas vector per cross choice of
    pieces, in product order, refuting the closed-cell system of exactly
    that choice. No LP is solved. A cover with no group is rejected: it
    leaves no cross choice to refute, so it would claim nothing."""
    ps = sep.ps
    if len(sep.unions) != len(sep.covers) or not all(sep.covers):
        return False
    counts = list(map(len, sep.covers))
    bounds = [prod(counts[:i] + counts[i + 1:]) for i in range(len(counts))]
    for cov, union, bound in zip(sep.covers, sep.unions, bounds):
        if len(union) != len(cov):
            return False
        for grp, piece in zip(cov, union):
            if len(piece) > bound or any(len(h.normal) != ps.dim for h in piece):
                return False
            for idx in grp:
                if any(h.side(ps.points[idx]) < 1 for h in piece):
                    return False
    choices = list(itertools.product(*[range(len(u)) for u in sep.unions]))
    if len(sep.emptiness) != len(choices):
        return False
    for choice, (claimed, farkas) in zip(choices, sep.emptiness):
        pick = [sep.unions[i][k] for i, k in enumerate(choice)]
        if tuple(claimed) != choice or not any(pick):
            return False
        if not check_farkas(closed_cells_constraints(pick)[0], farkas):
            return False
    return True


@dataclass(frozen=True)
class FSearchReport:
    """Outcome of running the partition searcher over sampled point sets."""

    mode: str
    params: dict
    samples: tuple        # the point sets searched, in order
    certificates: tuple   # per sample: GoodPartitionCertificate or None
    witness_index: int | None
    witness_transcript: int | None

    @property
    def sample_count(self) -> int:
        return len(self.samples)

    @property
    def witness(self) -> PointSet | None:
        return None if self.witness_index is None else self.samples[self.witness_index]

    @property
    def all_good(self) -> bool:
        return self.witness_index is None


def f_search(d: int, n: int, sampler: str, samples: int = 10, seed: str = "fsearch",
             s: int | None = None, t: int | None = None, r: int | None = None,
             s_list=None, points: PointSet | None = None,
             cap: int = 10**6) -> FSearchReport:
    """Run the bipartition or r-partition searcher over sampled n-point sets.

    Stops at the first sample on which every partition is refuted: such a set
    witnesses that n points do not suffice, and the report carries the number
    of partitions the exhaustion examined.
    """
    radon_mode = t is not None
    if radon_mode and (s is None or r is not None):
        raise InputError("bipartition mode takes s and t only")
    if not radon_mode:
        if r is None:
            raise InputError("give either t or r")
        if s_list is None:
            if s is None:
                raise InputError("r-partition mode needs s or s_list")
            s_list = [s] * r
    if n < 2:
        raise InputError("need at least two points")
    mode, bounds = ("radon", (s, t)) if radon_mode else ("tverberg", s_list)
    if radon_mode and _candidate_count(mode, n, bounds) > cap:
        raise CapExceeded("radon_bipartitions", cap, _candidate_count(mode, n, bounds))
    sampled = _sample_sets(d, n, sampler, samples, seed, points, cap)
    params = {"d": d, "n": n, "s": s, "t": t, "r": r,
              "s_list": None if s_list is None else tuple(s_list),
              "sampler": sampler, "seed": seed}
    certs = []
    for k, ps in enumerate(sampled):
        everything = range(n)
        if radon_mode:
            cert = good_radon_partition(ps, everything, s, t, cap=cap)
        else:
            cert = good_tverberg_partition(ps, everything, r, s_list, cap=cap)
        certs.append(cert)
        if cert is None:
            return FSearchReport(mode, params, tuple(sampled[:k + 1]), tuple(certs), k,
                                 _candidate_count(mode, n, bounds))
    return FSearchReport(mode, params, tuple(sampled), tuple(certs), None, None)


def _sample_sets(d, n, sampler, samples, seed, points, cap):
    from .constructions import convex_position, moment_curve, moment_curve_bits
    from .rng import CounterRng

    if sampler == "file":
        if points is None:
            raise InputError("file sampler needs a point set")
        if len(points.points) != n or points.dim != d:
            raise InputError("supplied points do not match d and n")
        return [points]
    if d < 1:
        raise InputError("sampled points need d >= 1")
    if samples < 1:
        raise InputError("need at least one sample")
    if samples * n * d > cap:
        raise CapExceeded("fsearch_sample_coordinates", cap, samples * n * d)
    if sampler == "moment-curve" and samples * moment_curve_bits(n, d, True) > cap:
        raise CapExceeded("fsearch_sample_bits", cap,
                          samples * moment_curve_bits(n, d, True))
    out = []
    for k in range(samples):
        rng = CounterRng(f"{seed}:{k}")
        if sampler == "random-rational":
            out.append(point_set(rng.distinct_points(n, d)))
        elif sampler == "convex-position":
            if d != 2:
                raise InputError("convex-position sampling is planar")
            out.append(convex_position(n, rng=rng))
        elif sampler == "moment-curve":
            out.append(moment_curve(n, d, rng=rng))
        else:
            raise InputError(f"unknown sampler {sampler!r}")
    return out
