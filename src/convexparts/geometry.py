"""Exact convex-hull primitives: common points, separators, circuits.

Points are tuples of exact rationals; a PointSet fixes the ambient dimension.
The hull predicates reduce to linprog.lp_feasible, so each of their answers
comes with either an exact witness or a re-checkable Farkas certificate.
Two LP systems are built here: hull_meet_constraints (do some hulls and
halfspaces share a point?) and closed_cells_constraints (do some closed
cells share a point?). Separators need no system of their own. By Farkas'
lemma, the vector that refutes a common point of one group's hull with the
rest already holds a hyperplane between them, and farkas_separator reads it
off.

The circuit table lets partitions.MeetOracle answer "do these two hulls
meet?" without an LP. A circuit is a minimal affinely dependent subset; its
dependence is unique up to scale, and its sign split C+ | C- is a minimal
Radon partition. By the conformal decomposition of a dependence into
circuits (Rockafellar 1969; Bjorner, Las Vergnas, Sturmfels, White and
Ziegler, Oriented Matroids, 1993), the hulls of disjoint index sets X and Y
meet iff some circuit has C+ inside X and C- inside Y, or the reverse. A
circuit has at most d+2 points, and a subset is one iff its lifted
(d+1) x k matrix has a one-dimensional kernel with full support.
circuit_table finds them in one depth-first walk over the subsets, in
which each subset extends its prefix's integer elimination by one pivot.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm

from .errors import InputError, InternalInvariantError
from .linprog import REL_EQ, REL_GE, _pivot, check_farkas, lp_feasible
from .rational import ONE, ZERO, Rat, rat


@dataclass(frozen=True)
class PointSet:
    dim: int
    points: tuple
    labels: tuple | None = None

    def __len__(self) -> int:
        return len(self.points)


def point_set(rows, labels=None) -> PointSet:
    pts = tuple(tuple(rat(c) for c in row) for row in rows)
    if not pts:
        raise InputError("a point set needs at least one point")
    dims = {len(p) for p in pts}
    if len(dims) != 1:
        raise InputError(f"points of mixed dimension {sorted(dims)}")
    dim = dims.pop()
    if dim < 1:
        raise InputError("points need at least one coordinate")
    if labels is not None:
        labels = tuple(str(s) for s in labels)
        if len(labels) != len(pts):
            raise InputError("label count disagrees with point count")
    return PointSet(dim, pts, labels)


@dataclass(frozen=True)
class Hyperplane:
    """Oriented hyperplane; its positive side is {x : normal.x > offset}."""

    normal: tuple
    offset: object

    def side(self, point):
        return sum((n * x for n, x in zip(self.normal, point)), ZERO) - self.offset


def make_hyperplane(normal, offset) -> Hyperplane:
    normal = tuple(rat(c) for c in normal)
    if all(c == 0 for c in normal):
        raise InputError("hyperplane normal must be nonzero")
    return Hyperplane(normal, rat(offset))


def _norm_group(ps: PointSet, group) -> tuple:
    idx = tuple(sorted(set(int(i) for i in group)))
    if not idx:
        raise InputError("empty index group")
    if idx[0] < 0 or idx[-1] >= len(ps.points):
        raise InputError(f"index out of range in group {idx}")
    return idx


@dataclass(frozen=True)
class HullIntersection:
    """Outcome of a common-point query over several hulls and halfspaces.

    Exactly one of (point, weights) and farkas is set. weights[g] aligns with
    the g-th normalized group; farkas indexes the normalized rows of
    hull_meet_constraints(ps, groups, halfspaces).
    """

    groups: tuple
    point: tuple | None
    weights: tuple | None
    farkas: tuple | None
    halfspaces: tuple = ()

    def __bool__(self) -> bool:
        return self.point is not None


def hull_meet_constraints(ps: PointSet, groups, halfspaces=()):
    """The canonical common-point system over convex weights (variables >= 0).

    Variables are the concatenated weights per group. Rows: one weight-sum per
    group, then for each group after the first, per-coordinate agreement with
    the first group's combination, then one row per halfspace
    {x : normal.x >= offset}, read on the first group's combination.
    """
    nvar = sum(len(g) for g in groups)
    offsets = list(itertools.accumulate([0] + [len(g) for g in groups]))
    cons = []
    for g, grp in enumerate(groups):
        row = [ZERO] * nvar
        for k in range(len(grp)):
            row[offsets[g] + k] = ONE
        cons.append((tuple(row), REL_EQ, ONE))
    first = groups[0]
    for g in range(1, len(groups)):
        grp = groups[g]
        for c in range(ps.dim):
            row = [ZERO] * nvar
            for k, idx in enumerate(grp):
                row[offsets[g] + k] = ps.points[idx][c]
            for k, idx in enumerate(first):
                row[offsets[0] + k] -= ps.points[idx][c]
            cons.append((tuple(row), REL_EQ, ZERO))
    for h in halfspaces:
        row = [ZERO] * nvar
        for k, idx in enumerate(first):
            row[k] = sum((n * x for n, x in zip(h.normal, ps.points[idx])), ZERO)
        cons.append((tuple(row), REL_GE, h.offset))
    return cons, nvar


def farkas_separator(ps: PointSet, meet: HullIntersection) -> Hyperplane:
    """The hyperplane (2N, 2 alpha_0 - 1) of a disjointness certificate: the
    first group lies at side >= 1, and every common point of the other
    groups and the halfspaces at side <= -1.

    In the certificate meet.farkas, write alpha_g for the net multiplier on
    group g's weight-sum row, c_g for those on group g's agreement rows
    (g >= 1), u_h for the multiplier on halfspace h, and
    N = c_1 + ... + c_{r-1} - sum_h u_h normal_h. The certificate makes the
    column of every variable <= 0: alpha_0 - N.p for a point p of the first
    group, alpha_g + c_g.p for a point p of group g >= 1. Its value,
    alpha_0 + ... + alpha_{r-1} + sum_h u_h offset_h, is 1.

    So N.p >= alpha_0 on the first group's points. A common point y of the
    rest is a convex combination of each group g >= 1, so c_g.y <= -alpha_g,
    and satisfies u_h normal_h.y >= u_h offset_h; summed, N.y <= alpha_0 - 1
    since the value is 1 (Farkas' lemma read as a separation theorem). So N
    is nonzero whenever the rest has a common point. For two groups,
    (2c_1, alpha_0 - alpha_1) is the midpoint hyperplane of c_1.p >= alpha_0
    and c_1.q <= -alpha_1, scaled to the unit gap alpha_0 + alpha_1 = 1.
    """
    r, d = len(meet.groups), ps.dim
    y = meet.farkas
    neq = r + (r - 1) * d
    net = [y[2 * k] - y[2 * k + 1] for k in range(neq)]
    pulls = list(zip(y[2 * neq:], meet.halfspaces))
    normal = tuple(2 * (sum(net[r + k::d], ZERO)
                        - sum((u * h.normal[k] for u, h in pulls), ZERO))
                   for k in range(d))
    return Hyperplane(normal, 2 * net[0] - 1)


def hulls_common_point(ps: PointSet, groups, halfspaces=()) -> HullIntersection:
    """A point in the intersection of the groups' hulls and the halfspaces,
    or a Farkas witness that there is none."""
    ngroups = tuple(_norm_group(ps, g) for g in groups)
    if not ngroups:
        raise InputError("need at least one group")
    halfspaces = tuple(halfspaces)
    cons, nvar = hull_meet_constraints(ps, ngroups, halfspaces)
    out = lp_feasible(cons, nvars=nvar, nonneg=True)
    if not out.feasible:
        return HullIntersection(ngroups, None, None, out.farkas, halfspaces)
    sol = out.solution
    offsets = list(itertools.accumulate([0] + [len(g) for g in ngroups]))
    weights = tuple(
        tuple(sol[offsets[g] + k] for k in range(len(grp)))
        for g, grp in enumerate(ngroups)
    )
    point = _combine(ps, ngroups[0], weights[0])
    for g in range(1, len(ngroups)):
        if _combine(ps, ngroups[g], weights[g]) != point:
            raise InternalInvariantError("groups disagree on the common point")
    return HullIntersection(ngroups, point, weights, None, halfspaces)


def _combine(ps: PointSet, group, weights):
    acc = [ZERO] * ps.dim
    for idx, w in zip(group, weights):
        if w:
            for c in range(ps.dim):
                acc[c] += w * ps.points[idx][c]
    return tuple(acc)


def verify_hulls_empty(ps: PointSet, groups, farkas) -> bool:
    """Re-check an emptiness certificate against the canonical system."""
    ngroups = tuple(_norm_group(ps, g) for g in groups)
    cons, _ = hull_meet_constraints(ps, ngroups)
    return check_farkas(cons, farkas, nonneg=True)


def hull_disjoint(ps: PointSet, S, T) -> bool:
    return not hulls_common_point(ps, (S, T))


def strict_separator(ps: PointSet, S, T, meet=None) -> Hyperplane | None:
    """Hyperplane with S at side <= -1 and T at side >= 1, or None when the
    hulls of S and T meet.

    farkas_separator reads it off the Farkas vector of
    hulls_common_point(ps, (T, S)). meet, when given, is the answer for the
    two groups in either order (MeetOracle sorts them), and no LP is solved
    here. The unit gap costs no generality: any strict separator scales to it.
    """
    s_idx = _norm_group(ps, S)
    t_idx = _norm_group(ps, T)
    if meet is None:
        meet = hulls_common_point(ps, (t_idx, s_idx))
    if meet:
        return None
    hp = farkas_separator(ps, meet)
    if meet.groups[0] != t_idx:
        hp = Hyperplane(tuple(-c for c in hp.normal), -hp.offset)
    if any(hp.side(ps.points[i]) > -1 for i in s_idx) or \
            any(hp.side(ps.points[i]) < 1 for i in t_idx):
        raise InternalInvariantError("separator violates its own gap")
    return hp


def _lifted_rows(points) -> list:
    """The lifted (d+1) x k matrix of the points, in integers: each
    coordinate row times the lcm of its denominators, then a row of ones.
    Scaling a row keeps the kernel, so every dependence is unchanged."""
    rows = []
    for coords in zip(*(tuple(Rat(c) for c in p) for p in points)):
        scale = lcm(*(c.denominator for c in coords))
        rows.append([c.numerator * (scale // c.denominator) for c in coords])
    rows.append([1] * len(points))
    return rows


class CircuitTable:
    """The circuits of the points in a ground set, for hull-pair questions.

    circuits lists (indices, dependence) per circuit, the integer dependence
    of its points in index order, with no zero entry. signed lists the
    (C+, C-) bitmasks of every circuit in both orientations, which
    partitions.MeetOracle and uncrossed_masks read.
    """

    def __init__(self, ground: int, circuits: tuple):
        self.ground = ground
        self.circuits = circuits
        signed = []
        for idx, alpha in circuits:
            plus = sum(1 << i for i, a in zip(idx, alpha) if a > 0)
            minus = sum(1 << i for i, a in zip(idx, alpha) if a < 0)
            signed += [(plus, minus), (minus, plus)]
        self.signed = tuple(signed)


def circuit_table(ps: PointSet, ground) -> CircuitTable:
    """Every circuit among the points of ground, listed by size and then
    indices, from one depth-first walk over its subsets in lexicographic order.

    A node is an independent prefix. It holds the lifted columns of the
    later points, row-major, after the prefix's pivots (linprog._pivot, on
    the first row at or below the pivot count with a nonzero entry). If the
    next point's column is zero below the pivot rows, the subset's kernel
    is one-dimensional, with canonical vector (-its pivot-row entries, D):
    a circuit iff no entry is 0, and the walk does not descend. Otherwise
    it pivots and descends; independent sets have at most d+1 points.

    Exact: Gauss-Jordan treats columns left to right, and a pivot changes a
    column by its own entries and the pivot's row and column alone, so a
    prefix takes exactly the pivots of per-subset elimination. A dependent
    proper prefix gives every extension a dependence with a zero entry, so
    pruning loses no circuit. A pivot is taken at an independent prefix
    with a later point; adding the last point maps it to a distinct subset
    of 2 to d+2 points, so the sum over k of C(m, k) that callers bound
    before asking bounds the pivots too.
    """
    ground = _norm_group(ps, ground)
    lifted = _lifted_rows(ps.points)
    circuits = []

    def walk(prefix, later, tab, first, div):
        # tab's columns are the lifted columns of the points in later
        r = len(prefix)
        for c in range(first, len(later)):
            sel = next((i for i in range(r, len(tab)) if tab[i][c]), None)
            if sel is None:
                alpha = tuple(-tab[i][c] for i in range(r)) + (div,)
                if all(alpha):
                    circuits.append((prefix + (later[c],), alpha))
            elif c + 1 < len(later):
                sub = [row[c:] for row in tab]
                sub[r], sub[sel] = sub[sel], sub[r]
                walk(prefix + (later[c],), later[c:], sub, 1, _pivot(sub, r, 0, div))

    walk((), ground, [[row[i] for i in ground] for row in lifted], 0, 1)
    circuits.sort(key=lambda c: (len(c[0]), c[0]))
    return CircuitTable(sum(1 << i for i in ground), tuple(circuits))


def uncrossed_masks(n: int, signed) -> tuple:
    """Every mask S over points 0..n-1, in increasing order, that no listed
    (C+, C-) lies across: none has C+ inside S and C- outside it.

    Built one point at a time. Whatever lies across S also lies across its
    extensions, so a mask over 0..i survives iff its restriction to 0..i-1
    did and no listed pair whose last point is i lies across it.
    """
    last = [[] for _ in range(n)]
    for p, m in signed:
        last[(p | m).bit_length() - 1].append((p, m))
    masks = [0]
    for i, pairs in enumerate(last):
        masks = [s for base in masks for s in (base, base | 1 << i)
                 if not any(p & s == p and not m & s for p, m in pairs)]
    return tuple(sorted(masks))


def closed_cells_constraints(cells) -> tuple:
    """(constraints, dimension): one row {normal.x >= offset} per hyperplane
    of every cell, in order, over free variables."""
    cons = [(h.normal, REL_GE, h.offset) for cell in cells for h in cell]
    if not cons:
        raise InputError("no hyperplanes given")
    return cons, len(cons[-1][0])


def closed_cells_meet(cells) -> "LPOutcome":
    """Feasibility of the closed relaxations {normal.x >= offset} of all cells.

    Infeasibility (with its Farkas vector) certifies the open cells cannot
    meet either. Constructions in this package bake a unit gap into their
    hyperplanes, so the closed check is the right re-verification.
    """
    cons, dim = closed_cells_constraints(cells)
    return lp_feasible(cons, nvars=dim)
