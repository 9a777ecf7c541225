"""Decision oracles and searchers for partitions against unions of convex sets.

Separability of a bipartition (A into <= s convex sets avoiding B's <= t
convex sets) and its r-fold analogue (covers with empty joint intersection)
reduce to finitely many hull-disjointness questions once each side is grouped:
a grouping works iff every cross tuple of hulls fails to meet. Searchers
exhaust groupings in restricted-growth order and return certificates that
re-verify from kernel predicates alone.

Every such question goes to one MeetOracle per search, which answers most
of them without an LP. Its inference rests on two facts. Meeting is
monotone: if subgroups of the asked groups meet, so do the groups, and a
meeting pair is already witnessed by the points with nonzero weight in a
basic solution of its d+2 equality rows (Caratheodory). Disjointness is
certified by a Farkas vector, which refutes every system whose points pass
its column test, not only the one it was solved for. Every verdict is
therefore exact. Separators are built only for the grouping a search
returns, and Farkas vectors in certificates come from the LP of exactly
the groups they name.

The constructive half replaces each cover by a union of polytopes. Cross-pair
separators give polytopes with at most t facets. The r-fold construction is
sequential; each separation target is an intersection of earlier polytopes
with later hulls, kept in mixed halfspace/hull form, and the separating
hyperplane is found jointly with multipliers that bound the target side of
the inner optimum, so no facet or vertex enumeration of the target is needed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod

from .combinat import partitions_le_count, rgs_partitions, rgs_partitions_exact, stirling2
from .errors import CapExceeded, InputError, InternalInvariantError, PreconditionFailed
from .geometry import (
    HullIntersection,
    Hyperplane,
    PointSet,
    _norm_group,
    closed_cells_meet,
    farkas_shadows,
    hulls_common_point,
    make_hyperplane,
    point_set,
    strict_separator,
    verify_hulls_empty,
)
from .linprog import REL_EQ, REL_GE, lp_feasible
from .parallel import pmap
from .rational import ONE, ZERO


@dataclass(frozen=True)
class SConvexCover:
    """A point subset presented as at most s hull pieces."""

    ground: PointSet
    groups: tuple   # tuple of sorted index tuples, each nonempty

    @property
    def covered(self) -> tuple:
        return tuple(sorted(set(itertools.chain.from_iterable(self.groups))))


def s_convex_cover(ps: PointSet, groups, s: int | None = None) -> SConvexCover:
    norm = tuple(_norm_group(ps, g) for g in groups)
    if not norm:
        raise InputError("cover needs at least one group")
    if s is not None and len(norm) > s:
        raise InputError(f"cover uses {len(norm)} groups, allowed {s}")
    return SConvexCover(ps, norm)


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
    covers: tuple       # one SConvexCover per class
    witnesses: tuple    # TupleWitness for every cross choice


@dataclass(frozen=True)
class GoodPartitionCertificate:
    """A partition all of whose grouping candidates were enumerated and rejected."""

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

    covers: tuple
    unions: tuple
    emptiness: tuple

    @property
    def facet_counts(self) -> tuple:
        return tuple(tuple(len(piece) for piece in union) for union in self.unions)


class MeetOracle:
    """Do the hulls of these groups share a point? One point set, asked often.

    Built once per search. groups are sorted index tuples, as covers and
    rgs_partitions hold them; a question is keyed by the groups in sorted
    order, which is also the group order of the LP solved for it, so a
    Farkas vector taken from here is the one hulls_common_point(ps, key)
    gives. Each question is answered, in this order:

    - from the exact memo, when the same groups were asked before;
    - from an earlier meeting: the points with nonzero weight in its
      solution (at most d+2 for a pair: a basic solution of d+2 equality
      rows) already share a point, and hulls only grow, so any groups that
      contain them, one support per group, meet too;
    - from an earlier certificate of disjointness: farkas_shadows names,
      per position, every point whose column the same Farkas vector still
      refutes, so any groups inside those masks are disjoint too;
    - by solving the LP, whose answer then serves the later questions.

    Questions of different arity never inform each other. Nothing here
    outlives the oracle: no cache is kept across searches.
    """

    def __init__(self, ps: PointSet):
        self.ps = ps
        self._verdicts = {}  # key -> bool, solved or inferred
        self._solved = {}    # key -> HullIntersection
        self._meeting = {}   # arity -> packed supports, every group order
        self._apart = {}     # arity -> packed shadows, every group order

    def meets(self, groups) -> bool:
        """Whether the hulls of the groups share a point."""
        key = tuple(sorted(groups))
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = self._infer(key)
            if verdict is None:
                verdict = bool(self._solve(key))
            self._verdicts[key] = verdict
        return verdict

    def intersection(self, groups) -> HullIntersection:
        """The exact common-point answer, point or Farkas vector, for the
        groups in sorted order."""
        key = tuple(sorted(groups))
        out = self._solved.get(key)
        return self._solve(key) if out is None else out

    def _pack(self, masks) -> int:
        n = len(self.ps.points)
        return sum(m << (k * n) for k, m in enumerate(masks))

    def _infer(self, key):
        packed = self._pack(sum(1 << i for i in g) for g in key)
        outside = ~packed
        if any(not support & outside for support in self._meeting.get(len(key), ())):
            return True
        if any(not packed & ~shadow for shadow in self._apart.get(len(key), ())):
            return False
        return None

    def _solve(self, key) -> HullIntersection:
        out = hulls_common_point(self.ps, key)
        if out:
            masks = [sum(1 << i for i, w in zip(g, ws) if w)
                     for g, ws in zip(out.groups, out.weights)]
            table = self._meeting
        else:
            masks = farkas_shadows(self.ps, out.groups, out.farkas)
            table = self._apart
        table.setdefault(len(key), []).extend(
            {self._pack(order) for order in itertools.permutations(masks)})
        self._solved[key] = out
        self._verdicts[key] = bool(out)
        return out


def build_K_polyhedra(ps: PointSet, a_groups, b_groups, oracle=None) -> tuple:
    """One polytope per A-group: intersect its separators from every B-group.

    K_i has at most len(b_groups) facets, contains a_groups[i] with unit
    margin, and every B point sits at side <= -1 of at least one facet.
    oracle, a MeetOracle of ps, lends the disjointness verdicts a search
    already has.
    """
    a_groups = tuple(_norm_group(ps, g) for g in a_groups)
    b_groups = tuple(_norm_group(ps, g) for g in b_groups)
    if not a_groups or not b_groups:
        raise InputError("both sides need at least one group")
    oracle = _oracle_for(ps, oracle)
    ks = []
    for ga in a_groups:
        facets = []
        for gb in b_groups:
            if oracle.meets((ga, gb)):
                raise PreconditionFailed(
                    f"hulls of {ga} and {gb} share a point",
                    witness=oracle.intersection((ga, gb)).point)
            facets.append(_oriented_separator(ps, ga, gb))
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


def _oriented_separator(ps, positive, negative) -> Hyperplane:
    hp = strict_separator(ps, negative, positive)
    if hp is None:
        raise InternalInvariantError("disjoint hulls without a separator")
    return hp


def st_separable(ps: PointSet, a, b, s: int, t: int):
    """Certificate that A splits into <= s and B into <= t groups with all
    cross hulls disjoint, or None when no grouping pair works."""
    return st_separability_report(ps, a, b, s, t)[0]


def st_separability_report(ps: PointSet, a, b, s: int, t: int):
    """(certificate or None, groupings enumerated, closed-form grouping count).

    The search itself only asks whether hulls meet; separators are built
    for the grouping it returns, not for the ones it passes over."""
    oracle = MeetOracle(ps)
    grouping, tried, closed_form = _separating_grouping(oracle, a, b, s, t)
    if grouping is None:
        return None, tried, closed_form
    ks = build_K_polyhedra(ps, *grouping, oracle=oracle)
    return SeparationCertificate(ps, *grouping, ks), tried, closed_form


def _separating_grouping(oracle, a, b, s, t):
    """(first (a_groups, b_groups) in restricted-growth order whose cross
    hulls are all disjoint, or None; groupings tried; closed-form count)."""
    a = _norm_group(oracle.ps, a)
    b = _norm_group(oracle.ps, b)
    if set(a) & set(b):
        raise InputError("sides overlap")
    if s < 1 or t < 1:
        raise InputError("group counts must be at least 1")
    closed_form = partitions_le_count(len(a), s) * partitions_le_count(len(b), t)
    tried = 0
    for a_groups in rgs_partitions(a, s):
        for b_groups in rgs_partitions(b, t):
            tried += 1
            if not any(oracle.meets((ga, gb)) for ga in a_groups for gb in b_groups):
                return (a_groups, b_groups), tried, closed_form
    return None, tried, closed_form


def verify_separation(cert: SeparationCertificate) -> bool:
    """Re-check a separation certificate from scratch."""
    ps = cert.ps
    if len(cert.hyperplanes) != len(cert.a_groups):
        return False
    for row in cert.hyperplanes:
        if len(row) != len(cert.b_groups):
            return False
    for i, ga in enumerate(cert.a_groups):
        for j, gb in enumerate(cert.b_groups):
            hp = cert.hyperplanes[i][j]
            if any(hp.side(ps.points[k]) < 1 for k in ga):
                return False
            if any(hp.side(ps.points[k]) > -1 for k in gb):
                return False
    return True


def joint_cover_empty(ps: PointSet, parts, s_list, cap: int = 10**6):
    """A cover of each part by <= s_i hulls such that every cross tuple of
    hulls has empty intersection, or None when every grouping combination
    leaves some tuple meeting."""
    oracle = MeetOracle(ps)
    for combo in itertools.product(*_cover_groupings(ps, parts, s_list, cap)):
        if _all_tuples_empty(oracle, combo):
            covers = tuple(SConvexCover(ps, groups) for groups in combo)
            return EmptyIntersectionCertificate(
                ps, covers, _tuple_witnesses(oracle, combo))
    return None


def _cover_groupings(ps, parts, s_list, cap):
    """Per part, its groupings into <= s_i groups, after the input checks."""
    parts = [_norm_group(ps, p) for p in parts]
    if len(parts) < 2:
        raise InputError("need at least two parts")
    seen = set()
    for p in parts:
        if seen & set(p):
            raise InputError("parts overlap")
        seen |= set(p)
    s_list = list(s_list)
    if len(s_list) != len(parts):
        raise InputError("one group bound per part required")
    if any(s < 1 for s in s_list):
        raise InputError("group counts must be at least 1")
    total = prod(partitions_le_count(len(p), s) for p, s in zip(parts, s_list))
    if total > cap:
        raise CapExceeded("cover_groupings", cap, total)
    return [list(rgs_partitions(p, s)) for p, s in zip(parts, s_list)]


def _all_tuples_empty(oracle, combo) -> bool:
    """Whether every cross tuple of hulls misses. Pairs are asked before the
    full tuple: an empty sub-intersection already refutes the whole tuple."""
    return not any(
        all(oracle.meets(pair) for pair in itertools.combinations(groups, 2))
        and oracle.meets(groups)
        for groups in itertools.product(*combo))


def _tuple_witnesses(oracle, combo):
    """Witness list covering every cross tuple, or None at the first tuple
    whose hulls meet. The witness names the first disjoint pair, else the
    whole tuple, with the Farkas vector of its exact LP."""
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


def covers_jointly_empty(ps: PointSet, covers, oracle=None):
    """Per-tuple emptiness certificate for covers fixed in advance, or None
    when some cross tuple of hulls meets.

    Unlike joint_cover_empty there is no grouping search: the covers are the
    candidate. A cover with no groups is the empty set, so the certificate
    then carries no tuples. oracle, a MeetOracle of ps, may be shared across
    calls; sweeps over many covers of one set reuse verdicts that way.
    """
    covers = tuple(covers)
    if len(covers) < 2:
        raise InputError("need at least two covers")
    for c in covers:
        if c.ground != ps:
            raise InputError("cover ground disagrees with the point set")
    oracle = _oracle_for(ps, oracle)
    witnesses = _tuple_witnesses(oracle, tuple(c.groups for c in covers))
    if witnesses is None:
        return None
    return EmptyIntersectionCertificate(ps, covers, witnesses)


def verify_empty_intersection(cert: EmptyIntersectionCertificate) -> bool:
    """Re-check an empty-intersection certificate from scratch."""
    ps = cert.ps
    expected = set(itertools.product(*[range(len(c.groups)) for c in cert.covers]))
    seen = set()
    for w in cert.witnesses:
        if w.choice in seen or w.choice not in expected:
            return False
        seen.add(w.choice)
        if len(set(w.classes)) != len(w.classes) or len(w.classes) < 2:
            return False
        try:
            groups = [cert.covers[c].groups[w.choice[c]] for c in w.classes]
        except IndexError:
            return False
        # ordering must match the solved system: MeetOracle sorts
        groups = tuple(sorted(groups))
        if not verify_hulls_empty(ps, groups, w.farkas):
            return False
    return seen == expected


def good_radon_partition(ps: PointSet, subset, s: int, t: int, jobs: int = 1):
    """First bipartition (by size of A, then lexicographic) that no grouping
    pair separates, as a certificate, or None when all bipartitions separate.

    One MeetOracle serves every candidate; at jobs > 1 each pickled
    candidate carries its own, still empty, copy."""
    subset = _norm_group(ps, subset)
    if len(subset) < 2:
        raise InputError("need at least two points to bipartition")
    if s < 1 or t < 1:
        raise InputError("group counts must be at least 1")
    oracle = MeetOracle(ps)
    candidates = []
    members = set(subset)
    for size in range(1, len(subset)):
        for a in itertools.combinations(subset, size):
            b = tuple(sorted(members - set(a)))
            candidates.append((oracle, a, b, s, t))
    return _first_hit(_radon_candidate_good, candidates, jobs)


def _radon_candidate_good(args):
    oracle, a, b, s, t = args
    grouping, tried, closed_form = _separating_grouping(oracle, a, b, s, t)
    if grouping is not None:
        return None
    return GoodPartitionCertificate(
        "radon", (a, b), tried, closed_form, {"s": s, "t": t})


def good_tverberg_partition(ps: PointSet, subset, r: int, s_list,
                            cap: int = 10**6, jobs: int = 1):
    """First r-partition (restricted-growth order, then block-to-part
    assignment order) admitting no empty-intersection cover, or None.

    One MeetOracle serves every candidate, as in good_radon_partition."""
    subset = _norm_group(ps, subset)
    if r < 2:
        raise InputError("need at least two parts")
    if len(subset) < r:
        raise InputError("not enough points for the requested parts")
    if isinstance(s_list, int):
        s_list = [s_list] * r
    s_list = list(s_list)
    if len(s_list) != r:
        raise InputError("one group bound per part required")
    if any(s < 1 for s in s_list):
        raise InputError("group counts must be at least 1")
    uniform = len(set(s_list)) == 1
    nparts = stirling2(len(subset), r)
    if not uniform:
        nparts *= prod(range(1, r + 1))
    if nparts > cap:
        raise CapExceeded("tverberg_partitions", cap, nparts)
    oracle = MeetOracle(ps)
    candidates = []
    for blocks in rgs_partitions_exact(subset, r):
        if uniform:
            assignments = [blocks]
        else:
            assignments = []
            seen = set()
            for perm in itertools.permutations(blocks):
                if perm not in seen:
                    seen.add(perm)
                    assignments.append(perm)
        for parts in assignments:
            candidates.append((oracle, parts, tuple(s_list), cap))
    return _first_hit(_tverberg_candidate_good, candidates, jobs)


def _tverberg_candidate_good(args):
    oracle, parts, s_list, cap = args
    groupings = _cover_groupings(oracle.ps, parts, s_list, cap)
    if any(_all_tuples_empty(oracle, combo) for combo in itertools.product(*groupings)):
        return None
    closed_form = prod(partitions_le_count(len(p), s) for p, s in zip(parts, s_list))
    return GoodPartitionCertificate(
        "tverberg", parts, closed_form, closed_form, {"s_list": tuple(s_list)})


def verify_good_partition(ps: PointSet, cert: GoodPartitionCertificate) -> bool:
    """Re-run the exhaustion for the certified partition; every field,
    counts included, must equal the re-derived certificate."""
    params = cert.params
    oracle = MeetOracle(ps)
    if cert.kind == "radon" and set(params) == {"s", "t"} and len(cert.partition) == 2:
        derived = _radon_candidate_good((oracle, *cert.partition, params["s"], params["t"]))
    elif cert.kind == "tverberg" and set(params) == {"s_list"}:
        derived = _tverberg_candidate_good((oracle, cert.partition, params["s_list"], 10**6))
    else:
        return False
    return derived == cert


def _first_hit(fn, candidates, jobs):
    """Earliest non-None result in candidate order, or None."""
    return next(filter(None, pmap(fn, candidates, jobs, bool)), None)


def _target_system(ps, halfspaces, hull_groups):
    """Rows over (y, weights) for one separation target: a polyhedron given
    by halfspace rows intersected with the hulls of the listed groups.

    Returns (ineq, eq, nvars) with rows as (coeffs, rhs); ineq rows mean
    coeffs . z >= rhs and include the weight nonnegativity units.
    """
    d = ps.dim
    sizes = [len(g) for g in hull_groups]
    offsets = list(itertools.accumulate([d] + sizes))
    nvars = d + sum(sizes)
    ineq, eq = [], []
    for h in halfspaces:
        row = list(h.normal) + [ZERO] * (nvars - d)
        ineq.append((tuple(row), h.offset))
    for g, grp in enumerate(hull_groups):
        for c in range(d):
            row = [ZERO] * nvars
            row[c] = ONE
            for k, idx in enumerate(grp):
                row[offsets[g] + k] = -ps.points[idx][c]
            eq.append((tuple(row), ZERO))
        row = [ZERO] * nvars
        for k in range(len(grp)):
            row[offsets[g] + k] = ONE
        eq.append((tuple(row), ONE))
        for k in range(len(grp)):
            row = [ZERO] * nvars
            row[offsets[g] + k] = ONE
            ineq.append((tuple(row), ZERO))
    return ineq, eq, nvars


def _target_nonempty(ineq, eq, nvars) -> bool:
    cons = [(c, REL_GE, b) for c, b in ineq] + [(c, REL_EQ, b) for c, b in eq]
    if not cons:
        return True
    return lp_feasible(cons, nvars=nvars).feasible


def _robust_separator(ps, x_group, ineq, eq, nvars_z) -> Hyperplane:
    """Hyperplane with x_group at side >= 1 and the whole target at side <= -1.

    The target side is enforced through multipliers (u, v) that are dual
    feasible for maximizing w . y over the target, so the bound
    w . y <= -(g.u + e.v) <= b - 1 holds on every target point. Solved as one
    LP in (w, b, u, v); feasibility is guaranteed whenever the hull of
    x_group misses the nonempty target.
    """
    if not ineq and not eq:
        raise InternalInvariantError("separation target is the whole space")
    d = ps.dim
    nu, ne = len(ineq), len(eq)
    nvars = d + 1 + nu + ne
    cons = []
    for i in x_group:
        row = list(ps.points[i]) + [-ONE] + [ZERO] * (nu + ne)
        cons.append((tuple(row), REL_GE, ONE))
    for col in range(nvars_z):
        row = [ZERO] * nvars
        if col < d:
            row[col] = ONE
        for k, (coeffs, _) in enumerate(ineq):
            row[d + 1 + k] = coeffs[col]
        for k, (coeffs, _) in enumerate(eq):
            row[d + 1 + nu + k] = coeffs[col]
        cons.append((tuple(row), REL_EQ, ZERO))
    value = [ZERO] * nvars
    value[d] = ONE
    for k, (_, rhs) in enumerate(ineq):
        value[d + 1 + k] = rhs
    for k, (_, rhs) in enumerate(eq):
        value[d + 1 + nu + k] = rhs
    cons.append((tuple(value), REL_GE, ONE))
    for k in range(nu):
        row = [ZERO] * nvars
        row[d + 1 + k] = ONE
        cons.append((tuple(row), REL_GE, ZERO))
    out = lp_feasible(cons, nvars=nvars)
    if not out.feasible:
        raise InternalInvariantError("separation target meets the group hull")
    hp = make_hyperplane(out.solution[:d], out.solution[d])
    if any(hp.side(ps.points[i]) < 1 for i in x_group):
        raise InternalInvariantError("separator misses its own group")
    # primal recheck: no target point on the nonnegative side
    probe = [(c, REL_GE, b) for c, b in ineq] + [(c, REL_EQ, b) for c, b in eq]
    probe.append((tuple(hp.normal) + (ZERO,) * (nvars_z - d), REL_GE, hp.offset))
    if lp_feasible(probe, nvars=nvars_z).feasible:
        raise InternalInvariantError("separator leaks target points")
    return hp


def build_r_separation(ps: PointSet, covers, certificate: EmptyIntersectionCertificate,
                       cap: int = 10**6) -> PolyhedralSeparation:
    """Replace each cover by a union of polytopes, built one cover at a time.

    Cover i is separated from every cross product of pieces already built
    (j < i) and hulls still pending (j > i); each nonempty such target
    contributes one facet, so piece facet counts never exceed the product of
    the other covers' group counts.
    """
    covers = tuple(covers)
    if len(covers) < 2:
        raise InputError("need at least two covers")
    for cov in covers:
        if cov.ground is not ps and cov.ground != ps:
            raise InputError("cover ground set mismatch")
    if certificate is None or certificate.covers != covers \
            or not verify_empty_intersection(certificate):
        raise PreconditionFailed("empty-intersection certificate does not verify")
    r = len(covers)
    work = prod(max(1, len(c.groups)) for c in covers)
    if work > cap:
        raise CapExceeded("separation_tuples", cap, work)
    built = []
    for i in range(r):
        factors = [built[j] for j in range(i)] + \
                  [[("hull", g) for g in covers[j].groups] for j in range(i + 1, r)]
        pieces = []
        for grp in covers[i].groups:
            facets = []
            for pick in itertools.product(*factors):
                halfspaces = []
                hull_groups = []
                for item in pick:
                    if isinstance(item, tuple) and item and item[0] == "hull":
                        hull_groups.append(item[1])
                    else:
                        halfspaces.extend(item)
                ineq, eq, nvars_z = _target_system(ps, halfspaces, hull_groups)
                if not _target_nonempty(ineq, eq, nvars_z):
                    continue
                facets.append(_robust_separator(ps, grp, ineq, eq, nvars_z))
            pieces.append(tuple(facets))
        built.append(pieces)
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
    return PolyhedralSeparation(covers, unions, tuple(emptiness))


def verify_r_separation(ps: PointSet, sep: PolyhedralSeparation) -> bool:
    """Re-check containment, joint emptiness, and facet bounds from scratch."""
    counts = [len(c.groups) for c in sep.covers]
    bounds = [prod(counts[:i] + counts[i + 1:]) for i in range(len(counts))]
    for cov, union, bound in zip(sep.covers, sep.unions, bounds):
        if len(union) != len(cov.groups):
            return False
        for grp, piece in zip(cov.groups, union):
            if len(piece) > bound:
                return False
            for idx in grp:
                if any(h.side(ps.points[idx]) < 1 for h in piece):
                    return False
    for pick in itertools.product(*sep.unions):
        if closed_cells_meet(pick).feasible:
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
             s_list=None, points: PointSet | None = None, cap: int = 10**6,
             jobs: int = 1) -> FSearchReport:
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
    if radon_mode and (1 << n) - 2 > cap:
        raise CapExceeded("radon_bipartitions", cap, (1 << n) - 2)
    sampled = _sample_sets(d, n, sampler, samples, seed, points, cap)
    mode = "radon" if radon_mode else "tverberg"
    params = {"d": d, "n": n, "s": s, "t": t, "r": r,
              "s_list": None if s_list is None else tuple(s_list),
              "sampler": sampler, "seed": seed}
    certs = []
    for k, ps in enumerate(sampled):
        everything = range(n)
        if radon_mode:
            cert = good_radon_partition(ps, everything, s, t, jobs=jobs)
            transcript = (1 << n) - 2
        else:
            cert = good_tverberg_partition(ps, everything, r, s_list, cap=cap, jobs=jobs)
            transcript = stirling2(n, r)
            if len(set(s_list)) != 1:
                transcript *= prod(range(1, r + 1))
        certs.append(cert)
        if cert is None:
            return FSearchReport(mode, params, tuple(sampled[:k + 1]),
                                 tuple(certs), k, transcript)
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
