"""Exact convex-hull primitives: common points, separators, affine dependences.

Points are tuples of exact rationals; a PointSet fixes the ambient dimension.
Every predicate here reduces to linprog.lp_feasible, so each answer comes with
either an exact witness or a re-checkable Farkas certificate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InputError, InternalInvariantError
from .linprog import REL_EQ, REL_GE, REL_LE, check_farkas, lp_feasible
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
    """Outcome of a common-point query over several hulls.

    Exactly one of (point, weights) and farkas is set. weights[g] aligns with
    the g-th normalized group; farkas indexes the normalized rows of
    hull_meet_constraints(ps, groups).
    """

    groups: tuple
    point: tuple | None
    weights: tuple | None
    farkas: tuple | None

    def __bool__(self) -> bool:
        return self.point is not None


def hull_meet_constraints(ps: PointSet, groups):
    """The canonical common-point system over convex weights (variables >= 0).

    Variables are the concatenated weights per group. Rows: one weight-sum per
    group, then for each group after the first, per-coordinate agreement with
    the first group's combination.
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
    return cons, nvar


def farkas_shadows(ps: PointSet, groups, farkas) -> tuple:
    """Per group position, the bitmask of every point the certificate still
    keeps out of a common point.

    farkas refutes hull_meet_constraints(ps, groups). Write alpha_g for its
    net multiplier on group g's weight-sum row and c_g for those on group
    g's agreement rows (g >= 1). The column of a point p at position 0 is
    alpha_0 - (c_1 + ... + c_{r-1}).p, at position g >= 1 it is
    alpha_g + c_g.p, and the certificate needs each column <= 0. A system
    whose g-th group lies inside the g-th mask has only such columns, so
    the same vector proves its hulls disjoint.
    """
    r, d = len(groups), ps.dim
    net = [farkas[2 * k] - farkas[2 * k + 1] for k in range(len(farkas) // 2)]
    alpha = net[:r]
    normals = [net[r + (g - 1) * d:r + g * d] for g in range(1, r)]
    total = [sum((c[k] for c in normals), ZERO) for k in range(d)]
    columns = [(alpha[0], [-v for v in total])]
    columns += [(alpha[g], normals[g - 1]) for g in range(1, r)]
    return tuple(
        sum(1 << i for i, p in enumerate(ps.points)
            if a + sum((v * x for v, x in zip(c, p)), ZERO) <= 0)
        for a, c in columns)


def hulls_common_point(ps: PointSet, groups) -> HullIntersection:
    """A point in the intersection of the groups' hulls, or a Farkas witness."""
    ngroups = tuple(_norm_group(ps, g) for g in groups)
    if not ngroups:
        raise InputError("need at least one group")
    cons, nvar = hull_meet_constraints(ps, ngroups)
    out = lp_feasible(cons, nvars=nvar, nonneg=True)
    if not out.feasible:
        return HullIntersection(ngroups, None, None, out.farkas)
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
    return HullIntersection(ngroups, point, weights, None)


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


def in_hull(ps: PointSet, point, S) -> bool:
    """Exact membership of an arbitrary point in the hull of indexed points."""
    grp = _norm_group(ps, S)
    point = tuple(Rat(c) for c in point)
    if len(point) != ps.dim:
        raise InputError("point dimension mismatch")
    k = len(grp)
    cons = [(tuple([ONE] * k), REL_EQ, ONE)]
    for c in range(ps.dim):
        cons.append((tuple(ps.points[i][c] for i in grp), REL_EQ, point[c]))
    return lp_feasible(cons, nvars=k, nonneg=True).feasible


def strict_separator(ps: PointSet, S, T) -> Hyperplane | None:
    """Hyperplane with S strictly negative and T strictly positive, if any.

    Exists iff the hulls are disjoint. The unit gap (S at <= offset-1, T at
    >= offset+1) costs no generality: any strict separator scales to it.
    """
    s_idx = _norm_group(ps, S)
    t_idx = _norm_group(ps, T)
    if set(s_idx) & set(t_idx):
        raise InputError("separator sides overlap")
    d = ps.dim
    cons = []
    for i in s_idx:
        cons.append((ps.points[i] + (-ONE,), REL_LE, -ONE))
    for i in t_idx:
        cons.append((ps.points[i] + (-ONE,), REL_GE, ONE))
    out = lp_feasible(cons, nvars=d + 1)
    if not out.feasible:
        return None
    w, b = out.solution[:d], out.solution[d]
    hp = make_hyperplane(w, b)
    for i in s_idx:
        if hp.side(ps.points[i]) > -1:
            raise InternalInvariantError("separator violates its own gap")
    for i in t_idx:
        if hp.side(ps.points[i]) < 1:
            raise InternalInvariantError("separator violates its own gap")
    return hp


def affine_dependence(points) -> list | None:
    """A nonzero alpha with sum(alpha)=0 and sum(alpha_i p_i)=0, or None.

    Canonical choice: Gaussian elimination with lowest-index pivots; the first
    free column is set to 1 and the rest to 0.
    """
    k = len(points)
    if k == 0:
        return None
    d = len(points[0])
    # rows: one per coordinate plus the affine row of ones
    mat = [[Rat(points[j][c]) for j in range(k)] for c in range(d)]
    mat.append([ONE] * k)
    nrows = d + 1
    pivots = []  # (row, col)
    r = 0
    for col in range(k):
        sel = next((i for i in range(r, nrows) if mat[i][col] != 0), None)
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        piv = mat[r][col]
        mat[r] = [v / piv for v in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [v - f * p for v, p in zip(mat[i], mat[r])]
        pivots.append((r, col))
        r += 1
        if r == nrows:
            break
    pivot_cols = {c for _, c in pivots}
    free = next((c for c in range(k) if c not in pivot_cols), None)
    if free is None:
        return None
    alpha = [ZERO] * k
    alpha[free] = ONE
    for row, col in pivots:
        alpha[col] = -mat[row][free]
    return alpha


def closed_cells_meet(cells) -> "LPOutcome":
    """Feasibility of the closed relaxations {normal.x >= offset} of all cells.

    Infeasibility (with its Farkas vector) certifies the open cells cannot
    meet either. Constructions in this package bake a unit gap into their
    hyperplanes, so the closed check is the right re-verification.
    """
    cons = []
    dim = None
    for cell in cells:
        for h in cell:
            dim = len(h.normal)
            cons.append((h.normal, REL_GE, h.offset))
    if dim is None:
        raise InputError("no hyperplanes given")
    return lp_feasible(cons, nvars=dim)
