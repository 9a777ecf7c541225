"""Decision oracles and searchers for partitions against unions of convex sets.

Separability of a bipartition (A into <= s convex sets avoiding B's <= t
convex sets) and its r-fold analogue (covers with empty joint intersection)
reduce to finitely many hull-disjointness questions once each side is grouped:
a grouping works iff every cross tuple of hulls fails to meet. Searchers
exhaust groupings in restricted-growth order and return certificates that
re-verify from kernel predicates alone.

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
    Hyperplane,
    PointSet,
    _norm_group,
    closed_cells_meet,
    hulls_common_point,
    make_hyperplane,
    point_set,
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


def _pair_verdict(ps, memo, g1, g2):
    key = (g1, g2) if g1 <= g2 else (g2, g1)
    hit = memo.get(key)
    if hit is None:
        hit = hulls_common_point(ps, key)
        memo[key] = hit
    return hit


def build_K_polyhedra(ps: PointSet, a_groups, b_groups) -> tuple:
    """One polytope per A-group: intersect its separators from every B-group.

    K_i has at most len(b_groups) facets, contains a_groups[i] with unit
    margin, and every B point sits at side <= -1 of at least one facet.
    """
    a_groups = tuple(_norm_group(ps, g) for g in a_groups)
    b_groups = tuple(_norm_group(ps, g) for g in b_groups)
    if not a_groups or not b_groups:
        raise InputError("both sides need at least one group")
    ks = []
    for ga in a_groups:
        facets = []
        for gb in b_groups:
            meet = hulls_common_point(ps, (ga, gb))
            if meet:
                raise PreconditionFailed(
                    f"hulls of {ga} and {gb} share a point", witness=meet.point)
            hp = _oriented_separator(ps, ga, gb)
            facets.append(hp)
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


def _oriented_separator(ps, positive, negative) -> Hyperplane:
    from .geometry import strict_separator

    hp = strict_separator(ps, negative, positive)
    if hp is None:
        raise InternalInvariantError("disjoint hulls without a separator")
    return hp


def st_separable(ps: PointSet, a, b, s: int, t: int):
    """Certificate that A splits into <= s and B into <= t groups with all
    cross hulls disjoint, or None when no grouping pair works."""
    return st_separability_report(ps, a, b, s, t)[0]


def st_separability_report(ps: PointSet, a, b, s: int, t: int):
    """(certificate or None, groupings enumerated, closed-form grouping count)."""
    a = _norm_group(ps, a)
    b = _norm_group(ps, b)
    if set(a) & set(b):
        raise InputError("sides overlap")
    if s < 1 or t < 1:
        raise InputError("group counts must be at least 1")
    closed_form = partitions_le_count(len(a), s) * partitions_le_count(len(b), t)
    tried = 0
    memo = {}
    for a_groups in rgs_partitions(a, s):
        for b_groups in rgs_partitions(b, t):
            tried += 1
            if all(not _pair_verdict(ps, memo, ga, gb)
                   for ga in a_groups for gb in b_groups):
                ks = build_K_polyhedra(ps, a_groups, b_groups)
                cert = SeparationCertificate(ps, a_groups, b_groups, ks)
                return cert, tried, closed_form
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
    pair_memo, tuple_memo = {}, {}
    groupings = [list(rgs_partitions(p, s)) for p, s in zip(parts, s_list)]
    for combo in itertools.product(*groupings):
        witnesses = _all_tuples_empty(ps, combo, pair_memo, tuple_memo)
        if witnesses is not None:
            covers = tuple(SConvexCover(ps, groups) for groups in combo)
            return EmptyIntersectionCertificate(ps, covers, witnesses)
    return None


def _all_tuples_empty(ps, combo, pair_memo, tuple_memo):
    """Witness list covering every cross tuple, or None at the first tuple
    whose hulls meet. Pairs are consulted before the full tuple: an empty
    sub-intersection already refutes the whole tuple."""
    witnesses = []
    r = len(combo)
    for choice in itertools.product(*[range(len(g)) for g in combo]):
        groups = tuple(combo[i][choice[i]] for i in range(r))
        witness = None
        for i, j in itertools.combinations(range(r), 2):
            verdict = _pair_verdict(ps, pair_memo, groups[i], groups[j])
            if not verdict:
                witness = TupleWitness(choice, (i, j), verdict.farkas)
                break
        if witness is None:
            key = tuple(sorted(groups))
            verdict = tuple_memo.get(key)
            if verdict is None:
                verdict = hulls_common_point(ps, key)
                tuple_memo[key] = verdict
            if verdict:
                return None
            witness = TupleWitness(choice, tuple(range(r)), verdict.farkas)
        witnesses.append(witness)
    return tuple(witnesses)


def covers_jointly_empty(ps: PointSet, covers, pair_memo=None, tuple_memo=None):
    """Per-tuple emptiness certificate for covers fixed in advance, or None
    when some cross tuple of hulls meets.

    Unlike joint_cover_empty there is no grouping search: the covers are the
    candidate. A cover with no groups is the empty set, so the certificate
    then carries no tuples. The memo dicts may be shared across calls that
    use the same ground point set; sweeps over many covers of one set reuse
    verdicts that way.
    """
    covers = tuple(covers)
    if len(covers) < 2:
        raise InputError("need at least two covers")
    for c in covers:
        if c.ground != ps:
            raise InputError("cover ground disagrees with the point set")
    pair_memo = {} if pair_memo is None else pair_memo
    tuple_memo = {} if tuple_memo is None else tuple_memo
    combo = tuple(c.groups for c in covers)
    witnesses = _all_tuples_empty(ps, combo, pair_memo, tuple_memo)
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
        # ordering must match the solved system: hulls_common_point sorts
        groups = tuple(sorted(groups))
        if not verify_hulls_empty(ps, groups, w.farkas):
            return False
    return seen == expected


def good_radon_partition(ps: PointSet, subset, s: int, t: int, jobs: int = 1):
    """First bipartition (by size of A, then lexicographic) that no grouping
    pair separates, as a certificate, or None when all bipartitions separate."""
    subset = _norm_group(ps, subset)
    if len(subset) < 2:
        raise InputError("need at least two points to bipartition")
    if s < 1 or t < 1:
        raise InputError("group counts must be at least 1")
    candidates = []
    members = set(subset)
    for size in range(1, len(subset)):
        for a in itertools.combinations(subset, size):
            b = tuple(sorted(members - set(a)))
            candidates.append((ps, a, b, s, t))
    return _first_hit(_radon_candidate_good, candidates, jobs)


def _radon_candidate_good(args):
    ps, a, b, s, t = args
    cert, tried, closed_form = st_separability_report(ps, a, b, s, t)
    if cert is not None:
        return None
    return GoodPartitionCertificate(
        "radon", (a, b), tried, closed_form, {"s": s, "t": t})


def good_tverberg_partition(ps: PointSet, subset, r: int, s_list,
                            cap: int = 10**6, jobs: int = 1):
    """First r-partition (restricted-growth order, then block-to-part
    assignment order) admitting no empty-intersection cover, or None."""
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
            candidates.append((ps, parts, tuple(s_list), cap))
    return _first_hit(_tverberg_candidate_good, candidates, jobs)


def _tverberg_candidate_good(args):
    ps, parts, s_list, cap = args
    if joint_cover_empty(ps, parts, s_list, cap=cap) is not None:
        return None
    closed_form = prod(partitions_le_count(len(p), s) for p, s in zip(parts, s_list))
    return GoodPartitionCertificate(
        "tverberg", parts, closed_form, closed_form, {"s_list": tuple(s_list)})


def verify_good_partition(ps: PointSet, cert: GoodPartitionCertificate) -> bool:
    """Re-run the exhaustion for the certified partition; every field,
    counts included, must equal the re-derived certificate."""
    params = cert.params
    if cert.kind == "radon" and set(params) == {"s", "t"} and len(cert.partition) == 2:
        derived = _radon_candidate_good((ps, *cert.partition, params["s"], params["t"]))
    elif cert.kind == "tverberg" and set(params) == {"s_list"}:
        derived = _tverberg_candidate_good((ps, cert.partition, params["s_list"], 10**6))
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
    sampled = _sample_sets(d, n, sampler, samples, seed, points)
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


def _sample_sets(d, n, sampler, samples, seed, points):
    from .constructions import convex_position, moment_curve
    from .rng import CounterRng

    if sampler == "file":
        if points is None:
            raise InputError("file sampler needs a point set")
        if len(points.points) != n or points.dim != d:
            raise InputError("supplied points do not match d and n")
        return [points]
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
