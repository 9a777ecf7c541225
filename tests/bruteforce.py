"""Independent reference oracles used only by the test suite.

Deliberately different algorithms from the package's own paths: feasibility by
Fourier-Motzkin elimination, hull membership by exhaustive simplex-free
checks on tiny cases, the LP path on `Rat` arithmetic that the integer
rows in `linprog` replaced (`fraction_normalize_rows`, the sorted `Rat`
rows, `fraction_phase1` with the same pivot rule, and the `Rat` re-checks
in `fraction_lp_feasible` and `fraction_check_farkas`, so each must return
the same vector and verdict), and the r-partition realizability DFS that
rescans every edge for every block, which `setsystems` replaced by
per-subset trace sets and minimal up-sets. Slow and simple on purpose.

The `_ref` routines are the LP and `Rat` code that the circuit table in
`geometry` replaced: halfspace traces and hull-closed families by one LP
per question, and affine dependences by Gauss-Jordan on `Rat`.
`circuit_table_ref` is the circuit table as one integer elimination
(`integer_dependence_ref`) per subset of at most d+2 points, which
`geometry.circuit_table` replaced by one walk over the subsets that shares
each prefix's pivots; the two must list the same circuits in the same
order. `table_meets_ref` is the table's pair question as a scan over
every signed circuit, which `partitions.MeetOracle` replaced by a read of
the buckets of its meeting index under the first group's points. Hull
membership of an arbitrary point (`in_hull`, one LP) serves only
`geometric_space_ref` and the tests. `geometric_space`, the hull-closed
family read off the circuit table, and `interval_space`, the convexity of
a path, live here too: no command builds either, and acceptance check 12
and the tests compare them. `rgs_partitions_ref` is the classic set-partition
recursion on item tuples, each item joining an earlier block or opening a
new one, with no prune: the reference for `combinat.rgs_masks`, and the
walk every reference here takes. Two more are walks that the package
now prunes or shares: `rgs_partitions_exact_ref` filters every partition
into at most r blocks, and `moment_adversary_exhaustive_ref` runs the t42
greedy, cover builder and structural checks afresh for each of the r^n
colorings. `verify_moment_adversary` is the adversary against one
coloring, with a Farkas certificate of joint emptiness from
`covers_jointly_empty`: no command takes a single coloring, so it lives here
and builds its covers with the package's greedy (`_eligible`, `_pick`),
`_cover` and `_check_structure`, the functions the sweep calls. Those give
covers as point masks, as the package's oracle takes them; the references
turn them into tuples of index tuples, the cover form of certificates.
`all_tuples_empty_ref` is the cross-tuple predicate as a full product: per
tuple, every pair, then the whole tuple. The package's grouping walk and
t42 sweep grow tuples one cover at a time (`_grow_tuples`), reading pair
verdicts from the oracle's memo, and ask the last cover's extensions with
`_any_tuple_meets`; they must give the same verdict after the same
whole-tuple questions, except on the line, where they ask none.
`radon_number_ref` and `tverberg_number_ref` walk every
bipartition or exact r-partition of every subset and intersect the hulls
of its parts, where `abstract` now asks capture tests, and
`validate_space_ref` meets every pair of members, where `validate_space`
meets each member with a few generators.

The `_walk_ref` routines are `setsystems`' block-class walk as it answered
every r, caps included, over the classes of `rgs_partitions_ref` with
blocks summed to masks: `setsystems` now answers r = 2 from the trace set
alone and counts r >= 3 ordered partitions on one bitset, and these keep
the walk as the reference for both. `min_f_counting_ref`
recomputes every power for every f, where `min_f_counting` screens each f
in floats. `check_sauer_ref` recounts every row of the Sauer profile, where
`check_sauer` takes the rows up to the VC dimension as 2^m.

`nested_parser_ref` is the command line parser as one subparser per
command, each copying the shared flags, and `flat_parser_ref` the one flat
argparse parser that replaced it; `cli._parse` now reads argv in one pass
over its flag table instead.
`stirling2_ref` is the recursion S(n, k) = k S(n-1, k) + S(n-1, k-1) of
depth n, which `combinat` replaced by a loop over the rows.
`union_polytope_system_ref` is the general route to the traces of unions of
polytopes, by the package's closure operators. `interval_union_traces` is its
fast path on collinear input, the runs of at most s intervals; no command
takes either, and acceptance check 7 reads the fast path.

`separating_grouping_ref` and `cover_groupings_ref` are the two grouping
walks that `partitions._empty_cover` replaced: a lazy (A, B) walk capped
per grouping pair tried, and an eager listing of every part's groupings
capped by their closed-form product. `empty_cover_ref` runs them as the
searches did, the first on two parts and the second crossed by
`itertools.product` on more under `all_tuples_empty_ref`, both with groups
as point masks, so the new walk must return the same triple, ask the same
whole-tuple questions in the same order (none on the line), and at two
parts ask the oracle exactly the same questions.

The abstract union search (`abstract_separable`, `abstract_good_partition`
and `_unions_covering`, with `hull`) is the (s, t) question in a finite
convexity space, by block hulls first and then every union of members. No
command asks it; acceptance check 12 compares it with the geometric line.

`strict_separator_ref` and `robust_separator_ref` are the separator LPs
that `geometry.farkas_separator` replaced: a row per point over (w, b) for
a pair of groups, and for an r-fold target of `build_r_separation` one LP
over (w, b) and dual multipliers of the target system
(`target_system_ref`). `unit_gap_ref` asks the same dual multipliers of a
fixed hyperplane, so it certifies side <= -1 on a whole target by LP
duality, without enumerating its vertices. `build_r_separation_ref` is
`build_r_separation` as a product walk that asks each target whole, one
LP over up to r-1 hulls, where the package first drops the pending hull
tuples that have a disjoint pair with the grouping walk's pair filter on
one `MeetOracle`; both must give the same separation, byte for byte.
"""

from __future__ import annotations

import argparse
import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, perm, prod

import convexparts.constructions as constructions
from convexparts.abstract import ConvexitySpace, _radon_work, convexity_space
from convexparts.cli import _HANDLERS, _TARGETS
from convexparts.combinat import (binomial, check_total, indices_of, mask_of,
                                  partitions_le_count, stirling2)
from convexparts.constructions import AdversarySweepReport, moment_adversary_instance
from convexparts.errors import CapExceeded, InputError, InternalInvariantError, PreconditionFailed
from convexparts.geometry import (CircuitTable, _lifted_rows, _norm_group, circuit_table,
                                  closed_cells_meet, uncrossed_masks)
from convexparts.linprog import REL_EQ, REL_GE, REL_LE, LPOutcome, _pivot, lp_feasible
from convexparts.partitions import (EmptyIntersectionCertificate, MeetOracle,
                                    PolyhedralSeparation, _target_meets, _target_separator,
                                    _tuple_witnesses, verify_empty_intersection)
from convexparts.rational import ONE, ZERO, Rat
from convexparts.setsystems import (ShatterProfile, ShatterRow, _last_row, _Traces,
                                    primal_shatter, r_shatter_bound, sauer_bound, vc_dim)


def _norm_row(a, b):
    """Scale a row by a positive factor so duplicates collapse."""
    lead = next((abs(c) for c in a if c), None)
    if lead is None:
        return a, (ONE if b > 0 else (-ONE if b < 0 else ZERO))
    return tuple(c / lead for c in a), b / lead


def fm_feasible(constraints, nvars: int, nonneg: bool = False) -> bool:
    """Fourier-Motzkin elimination on a system of (coeffs, rel, rhs) rows.

    Intended for nvars <= 4; the intermediate row count is not controlled.
    """
    rows = fraction_normalize_rows(constraints)
    if nonneg:
        for j in range(nvars):
            unit = [ZERO] * nvars
            unit[j] = ONE
            rows.append((tuple(unit), ZERO))
    rows = {_norm_row(a, b) for a, b in rows}
    for j in range(nvars):
        pos, neg, rest = [], [], set()
        for a, b in rows:
            if a[j] > 0:
                pos.append((a, b))
            elif a[j] < 0:
                neg.append((a, b))
            else:
                rest.add((a, b))
        for (ap, bp), (an, bn) in itertools.product(pos, neg):
            # positive combination cancelling coordinate j
            cp, cn = -an[j], ap[j]
            row = tuple(cp * x + cn * y for x, y in zip(ap, an))
            rest.add(_norm_row(row, cp * bp + cn * bn))
        rows = rest
    return all(b <= 0 for _, b in rows)


def segments_meet(segs) -> bool:
    """Common point of 1-d intervals given as (lo, hi) pairs."""
    lo = max(Rat(a) for a, _ in segs)
    hi = min(Rat(b) for _, b in segs)
    return lo <= hi


def barycentric_in_triangle(p, a, b, c):
    """Exact point-in-triangle via signed areas; degenerate triangles rejected."""

    def cross(o, u, v):
        return (u[0] - o[0]) * (v[1] - o[1]) - (u[1] - o[1]) * (v[0] - o[0])

    area = cross(a, b, c)
    if area == 0:
        return None
    s1, s2, s3 = cross(a, b, p), cross(b, c, p), cross(c, a, p)
    if area < 0:
        s1, s2, s3 = -s1, -s2, -s3
    return s1 >= 0 and s2 >= 0 and s3 >= 0


def run_union_masks(slot_masks, s: int):
    """All point masks whose slot support forms at most s consecutive runs.

    Exhaustive over the 2^k slot subsets, counting runs by a linear scan.
    """
    k = len(slot_masks)
    out = set()
    for pick in range(1 << k):
        runs = 0
        prev = False
        mask = 0
        for i in range(k):
            cur = bool(pick >> i & 1)
            if cur:
                mask |= slot_masks[i]
                if not prev:
                    runs += 1
            prev = cur
        if runs <= s:
            out.add(mask)
    return out


def rand_point_set(rng, n: int, d: int, num_bound: int = 64, den: int = 8):
    from convexparts.geometry import point_set

    return point_set([[rng.rat(num_bound, den) for _ in range(d)] for _ in range(n)])


def counter_shuffle(rng, items) -> list:
    """Fisher-Yates on a copy of items with the draws of a CounterRng; the
    input is untouched."""
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = rng.randint(0, i)
        out[i], out[j] = out[j], out[i]
    return out


def distinct_rand_point_set(rng, n, d, num_bound=64, den=8):
    """Random points resampled until pairwise distinct."""
    from convexparts.geometry import point_set

    pts = []
    seen = set()
    while len(pts) < n:
        p = tuple(rng.rat(num_bound, den) for _ in range(d))
        if p not in seen:
            seen.add(p)
            pts.append(p)
    return point_set(pts)


def unions_of_intervals_meet(unions) -> bool:
    """Common point of unions of closed intervals, by trying every tuple.

    A union given as an empty list is the empty set, so the answer is False.
    """
    for pick in itertools.product(*unions):
        lo = max(p[0] for p in pick)
        hi = min(p[1] for p in pick)
        if lo <= hi:
            return True
    return False


def fraction_normalize_rows(constraints):
    """The documented '>=' rows on `Rat`; equality constraints expand to a +/- pair."""
    rows = []
    for coeffs, rel, rhs in constraints:
        a = tuple(Rat(c) for c in coeffs)
        b = Rat(rhs)
        if rel == REL_GE:
            rows.append((a, b))
        elif rel == REL_LE:
            rows.append((tuple(-c for c in a), -b))
        elif rel == REL_EQ:
            rows.append((a, b))
            rows.append((tuple(-c for c in a), -b))
        else:
            raise InputError(f"unknown relation {rel!r}")
    return rows


def fraction_check_farkas(constraints, farkas, nonneg: bool = False) -> bool:
    """`linprog.check_farkas` on `Rat` rows and a `Rat` vector."""
    rows = fraction_normalize_rows(constraints)
    if len(farkas) != len(rows):
        return False
    y = [Rat(v) for v in farkas]
    if any(v < 0 for v in y):
        return False
    nvars = len(rows[0][0]) if rows else 0
    combo = [ZERO] * nvars
    for yi, (a, _) in zip(y, rows):
        if yi:
            for j, aj in enumerate(a):
                combo[j] += yi * aj
    if nonneg:
        if any(cj > 0 for cj in combo):
            return False
    else:
        if any(cj != 0 for cj in combo):
            return False
    value = sum((yi * b for yi, (_, b) in zip(y, rows)), ZERO)
    return value > 0


def fraction_lp_feasible(constraints, nvars: int, nonneg: bool = False) -> LPOutcome:
    """`linprog.lp_feasible` on sorted `Rat` rows, re-checked on `Rat`."""
    constraints = list(constraints)
    rows = fraction_normalize_rows(constraints)
    if not rows:
        return LPOutcome(True, (ZERO,) * nvars, None, nonneg)
    order = sorted(range(len(rows)), key=lambda i: rows[i])
    ok, payload = fraction_phase1([rows[i] for i in order], nvars, nonneg)
    if ok:
        if not _fraction_satisfies(rows, payload, nonneg):
            raise InternalInvariantError("simplex returned a non-solution")
        return LPOutcome(True, tuple(payload), None, nonneg)
    farkas = [ZERO] * len(rows)
    for pos, yi in enumerate(payload):
        farkas[order[pos]] = yi
    value = sum((yi * b for yi, (_, b) in zip(farkas, rows)), ZERO)
    if value <= 0:
        raise InternalInvariantError("Farkas vector has nonpositive value")
    farkas = tuple(yi / value for yi in farkas)
    if not fraction_check_farkas(constraints, farkas, nonneg):
        raise InternalInvariantError("Farkas vector failed re-check")
    return LPOutcome(False, None, farkas, nonneg)


def _fraction_satisfies(rows, x, nonneg) -> bool:
    if nonneg and any(v < 0 for v in x):
        return False
    for a, b in rows:
        if sum((ai * xi for ai, xi in zip(a, x)), ZERO) < b:
            return False
    return True


def fraction_phase1(rows, nvars, nonneg):
    """Feasibility of {a.x >= b for (a, b) in rows}.

    Returns (True, x) or (False, y) with y a raw Farkas vector over `rows`.
    Standard form: x split into u - v unless nonneg, one surplus per row,
    one artificial per row; minimize the artificial sum.
    """
    m = len(rows)
    nstruct = (nvars if nonneg else 2 * nvars) + m

    # rows scaled so the rhs is nonnegative; sigma remembers the flips
    sigma = [ONE if b >= 0 else -ONE for _, b in rows]

    tab = []
    for i, (a, b) in enumerate(rows):
        s = sigma[i]
        row = [ZERO] * (nstruct + m + 1)
        for j, aj in enumerate(a):
            if aj:
                row[j] = s * aj
                if not nonneg:
                    row[nvars + j] = -s * aj
        surplus = (nvars if nonneg else 2 * nvars) + i
        row[surplus] = -s
        row[nstruct + i] = ONE
        row[-1] = s * b
        tab.append(row)

    # reduced costs for the all-artificial starting basis
    obj = [ZERO] * (nstruct + m + 1)
    for j in range(nstruct + m + 1):
        acc = ZERO
        for i in range(m):
            acc += tab[i][j]
        obj[j] = (ONE if nstruct <= j < nstruct + m else ZERO) - acc

    basis = [nstruct + i for i in range(m)]
    ncols = nstruct + m

    while True:
        enter = -1
        for j in range(ncols):
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best = None
        for i in range(m):
            coef = tab[i][enter]
            if coef > 0:
                ratio = tab[i][-1] / coef
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            raise InternalInvariantError("phase-1 objective unbounded")
        _fraction_pivot(tab, obj, basis, leave, enter)

    objective = -obj[-1]
    if objective < 0:
        raise InternalInvariantError("negative phase-1 objective")

    if objective == 0:
        w = [ZERO] * nstruct
        for i, bi in enumerate(basis):
            if bi < nstruct:
                w[bi] = tab[i][-1]
        if nonneg:
            x = w[:nvars]
        else:
            x = [w[j] - w[nvars + j] for j in range(nvars)]
        return True, x

    # dual off the artificial reduced costs, unscaled back through sigma
    y = [sigma[i] * (ONE - obj[nstruct + i]) for i in range(m)]
    return False, y


def _fraction_pivot(tab, obj, basis, r, c):
    prow = tab[r]
    piv = prow[c]
    if piv != 1:
        inv = ONE / piv
        tab[r] = prow = [v * inv for v in prow]
    for i, row in enumerate(tab):
        if i != r and row[c]:
            f = row[c]
            tab[i] = [v - f * p for v, p in zip(row, prow)]
    if obj[c]:
        f = obj[c]
        obj[:] = [v - f * p for v, p in zip(obj, prow)]
    basis[r] = c


def _projections(sys, s_mask: int, part_mask: int):
    """Distinct traces on S of edges containing the part; sorted for determinism."""
    return sorted({e & s_mask for e in sys.edges if e & part_mask == part_mask})


def _realizable(sys, s_mask: int, part_masks) -> bool:
    """Core DFS: pick one admissible edge trace per part, empty intersection.

    part_masks may contain 0 entries (wildcard slots: any edge qualifies).
    """
    cands = []
    for pm in part_masks:
        c = _projections(sys, s_mask, pm)
        if not c:
            return False
        cands.append(c)
    # tightest parts first: fewer candidates prune earlier
    cands.sort(key=lambda c: (len(c), c))
    failed = set()

    def dfs(i, mask):
        if mask == 0:
            return True
        if i == len(cands):
            return False
        key = (i, mask)
        if key in failed:
            return False
        for c in cands[i]:
            if dfs(i + 1, mask & c):
                return True
        failed.add(key)
        return False

    return dfs(0, s_mask)


def is_realizable_ref(sys, S, parts) -> bool:
    """Whether the r-partition parts of S is realizable; an empty part is a
    wildcard slot."""
    return _realizable(sys, mask_of(S, sys.n), [mask_of(p, sys.n) for p in parts])


def is_r_shattered_ref(sys, S, r: int) -> bool:
    mask = mask_of(S, sys.n)
    items = indices_of(mask)
    if not items:
        return True
    for blocks in rgs_partitions_ref(items, r):
        part_masks = [mask_of(b, sys.n) for b in blocks]
        if not _realizable(sys, mask, part_masks + [0] * (r - len(blocks))):
            return False
    return True


def count_realizable_ref(sys, S, r: int) -> int:
    mask = mask_of(S, sys.n)
    items = indices_of(mask)
    if not items:
        return 1 if sys.edges else 0
    total = 0
    for blocks in rgs_partitions_ref(items, r):
        k = len(blocks)
        part_masks = [mask_of(b, sys.n) for b in blocks] + [0] * (r - k)
        if _realizable(sys, mask, part_masks):
            orderings = 1
            for j in range(k):
                orderings *= r - j
            total += orderings
    return total


def r_vc_dim_ref(sys, r: int) -> int:
    for k in range(sys.n, 0, -1):
        for combo in itertools.combinations(range(sys.n), k):
            if is_r_shattered_ref(sys, combo, r):
                return k
    return 0


def check_r_shatter_ref(sys, r: int, m_max=None):
    """Every row recounted over every subset, none taken as r^m."""
    t = r_vc_dim_ref(sys, r)
    m_max = sys.n if m_max is None else min(m_max, sys.n)
    rows = []
    for m in range(m_max + 1):
        computed = max(count_realizable_ref(sys, combo, r)
                       for combo in itertools.combinations(range(sys.n), m))
        bound = r_shatter_bound(m, t, r)
        rows.append(ShatterRow(m, computed, bound, computed <= bound))
    return ShatterProfile("rvc", t, r, tuple(rows))


def affine_dependence_ref(points) -> list | None:
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


def integer_dependence_ref(rows, k: int):
    """(D, alpha) for the canonical dependence of the k columns of an integer
    matrix, or None when the columns are independent: alpha / D is the
    kernel vector with lowest-index pivots whose first free column is 1 and
    whose other free columns are 0.

    Gauss-Jordan with linprog._pivot's integer-preserving pivots: every row
    but the pivot row becomes (p*v - f*q) // D and D becomes the pivot p.
    Each pivot row then holds D at its own pivot column and 0 at the others,
    so the pivot entries of alpha are minus its entries in the free column,
    and alpha there is D.
    """
    rows = [list(row) for row in rows]
    pivots = []
    div = 1
    for col in range(k):
        r = len(pivots)
        sel = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        div = _pivot(rows, r, col, div)
        pivots.append(col)
        if len(pivots) == len(rows):
            break
    free = next((c for c in range(k) if c not in pivots), None)
    if free is None:
        return None
    alpha = [0] * k
    alpha[free] = div
    for row, col in enumerate(pivots):
        alpha[col] = -rows[row][free]
    return div, alpha


def circuit_table_ref(ps, ground) -> CircuitTable:
    """Every circuit among the points of ground, by integer elimination of
    each subset of at most d+2 of them: sum over k of C(m, k) subsets, which
    callers bound before asking. A subset is a circuit iff its canonical
    dependence has no zero entry: a kernel of two or more dimensions puts a
    zero at its second free column."""
    ground = _norm_group(ps, ground)
    lifted = _lifted_rows(ps.points)
    circuits = []
    for k in range(2, min(len(ground), ps.dim + 2) + 1):
        for idx in itertools.combinations(ground, k):
            out = integer_dependence_ref([[row[i] for i in idx] for row in lifted], k)
            if out is not None and all(out[1]):
                circuits.append((idx, tuple(out[1])))
    return CircuitTable(sum(1 << i for i in ground), tuple(circuits))


def table_meets_ref(table, x, y) -> bool:
    """A table-backed MeetOracle's pair verdict as one scan over every
    signed circuit, before the oracle bucketed them by the lowest point of
    C+."""
    return bool(x & y) or any(p & x == p and m & y == m for p, m in table.signed)


def strict_separator_ref(ps, S, T):
    """Hyperplane with S at side <= -1 and T at side >= 1, or None: one LP
    in (w, b) with a row per point, w.p - b <= -1 on S and >= 1 on T."""
    from convexparts.geometry import make_hyperplane

    s_idx = _norm_group(ps, S)
    t_idx = _norm_group(ps, T)
    if set(s_idx) & set(t_idx):
        raise InputError("separator sides overlap")
    d = ps.dim
    cons = [(ps.points[i] + (-ONE,), REL_LE, -ONE) for i in s_idx]
    cons += [(ps.points[i] + (-ONE,), REL_GE, ONE) for i in t_idx]
    out = lp_feasible(cons, nvars=d + 1)
    if not out.feasible:
        return None
    return make_hyperplane(out.solution[:d], out.solution[d])


def target_system_ref(ps, halfspaces, hull_groups):
    """Rows over (y, weights) for one separation target: the halfspace rows
    intersected with the hulls of the listed groups.

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


def target_nonempty_ref(ineq, eq, nvars) -> bool:
    cons = [(c, REL_GE, b) for c, b in ineq] + [(c, REL_EQ, b) for c, b in eq]
    if not cons:
        return True
    return lp_feasible(cons, nvars=nvars).feasible


def unit_gap_ref(hp, ineq, eq, nvars_z) -> bool:
    """Whether multipliers (u >= 0, v) certify hp.side(y) <= -1 on every
    point y of the target, by LP duality: normal + G^T u + E^T v = 0 on the
    y coordinates, 0 on the weights, and offset + g.u + e.v >= 1. For a
    nonempty target they exist iff the maximum of normal . y there is at
    most offset - 1."""
    d = len(hp.normal)
    nu, ne = len(ineq), len(eq)
    cons = []
    for col in range(nvars_z):
        row = [ZERO] * (nu + ne)
        for k, (coeffs, _) in enumerate(ineq):
            row[k] = coeffs[col]
        for k, (coeffs, _) in enumerate(eq):
            row[nu + k] = coeffs[col]
        cons.append((tuple(row), REL_EQ, -hp.normal[col] if col < d else ZERO))
    cons.append((tuple(rhs for _, rhs in ineq) + tuple(rhs for _, rhs in eq),
                 REL_GE, ONE - hp.offset))
    for k in range(nu):
        row = [ZERO] * (nu + ne)
        row[k] = ONE
        cons.append((tuple(row), REL_GE, ZERO))
    return lp_feasible(cons, nvars=nu + ne).feasible


def robust_separator_ref(ps, x_group, ineq, eq, nvars_z):
    """Hyperplane with x_group at side >= 1 and the whole target at side <= -1.

    The target side is enforced through multipliers (u, v) that are dual
    feasible for maximizing w . y over the target, so the bound
    w . y <= -(g.u + e.v) <= b - 1 holds on every target point. Solved as one
    LP in (w, b, u, v); feasibility is guaranteed whenever the hull of
    x_group misses the nonempty target.
    """
    from convexparts.geometry import make_hyperplane

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
    return make_hyperplane(out.solution[:d], out.solution[d])


def separation_targets_ref(ps, covers, unions, i: int):
    """The nonempty targets of cover i, as target_system_ref triples, in the
    order build_r_separation gives them facets: every cross product of the
    pieces of covers j < i (taken from unions) and the hulls of covers j > i."""
    factors = [[(piece, ()) for piece in unions[j]] for j in range(i)] + \
              [[((), (g,)) for g in covers[j]] for j in range(i + 1, len(covers))]
    targets = []
    for pick in itertools.product(*factors):
        system = target_system_ref(ps, [h for cell, _ in pick for h in cell],
                                   [g for _, gs in pick for g in gs])
        if target_nonempty_ref(*system):
            targets.append(system)
    return targets


def build_r_separation_ref(certificate, cap: int = 10**6):
    """partitions.build_r_separation as a product walk: every separation
    target of cover i, one item per cover j != i (a built piece for j < i,
    a pending hull for j > i), asked whole, as one LP over its hulls and
    halfspaces. The package grows the pending hull tuples with the grouping
    walk's pair filter first; the two must build the same separation."""
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


def halfspace_traces_ref(ps, n_cap: int = 18):
    """Every subset separable from its complement, empty and full included.

    Complement closure is structural (S vs P\\S is symmetric), so each pair is
    decided by one LP.
    """
    from convexparts.errors import CapExceeded
    from convexparts.geometry import hulls_common_point
    from convexparts.ranges import TraceFamily

    n = len(ps.points)
    if n > n_cap:
        raise CapExceeded("halfspace_traces_points", n_cap, n)
    full = (1 << n) - 1
    verdict = {0: True, full: True}
    for mask in range(1, full):
        if mask in verdict:
            continue
        comp = full ^ mask
        ok = not hulls_common_point(ps, (indices_of(mask), indices_of(comp)))
        verdict[mask] = ok
        verdict[comp] = ok
    traces = tuple(sorted(m for m, ok in verdict.items() if ok))
    return TraceFamily(ps, traces, "halfspace")


def union_polytope_system_ref(ps, s: int, t: int):
    """Traces of unions of <= s polyhedra with <= t facets each, by closing
    the halfspace traces under <= t intersections, then <= s unions."""
    from convexparts.ranges import halfspace_traces, intersect_close, union_close

    return union_close(intersect_close(halfspace_traces(ps), t), s).to_set_system()


def interval_union_traces(ps, s: int):
    """Fast path for collinear input: traces of unions of <= s intervals.

    These are exactly the subsets forming at most s runs of consecutive
    positions in coordinate order. Coinciding points share every trace, so
    runs range over distinct values rather than raw indices.
    """
    from convexparts.ranges import TraceFamily

    if ps.dim != 1:
        raise InputError("interval unions need 1-dimensional input")
    if s < 1:
        raise InputError("s must be at least 1")
    by_value = {}
    for i, p in enumerate(ps.points):
        by_value.setdefault(p[0], 0)
        by_value[p[0]] |= 1 << i
    slot_masks = [by_value[v] for v in sorted(by_value)]
    k = len(slot_masks)
    out = []

    def rec(i, mask, runs, in_run):
        if i == k:
            out.append(mask)
            return
        rec(i + 1, mask, runs, False)
        if in_run:
            rec(i + 1, mask | slot_masks[i], runs, True)
        elif runs < s:
            rec(i + 1, mask | slot_masks[i], runs + 1, True)

    rec(0, 0, 0, False)
    return TraceFamily(ps, tuple(sorted(out)), f"interval-union<={s}")


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
    n = len(ps.points)
    if n > n_cap:
        raise CapExceeded("geometric_space_points", n_cap, n)
    # signed lists both orientations; (C, {j}) lies across S iff C is inside
    # S and j is not, that is, iff j is a point of CH(S) outside S
    signed = [(p, m) for p, m in circuit_table(ps, range(n)).signed
              if m.bit_count() == 1]
    return convexity_space(n, [indices_of(s) for s in uncrossed_masks(n, signed)])


def geometric_space_ref(ps, n_cap: int = 12):
    """Hull-closed subsets of a point set: S with CH(S) picking up no
    further points. Intersection-closed by hull monotonicity."""
    n = len(ps.points)
    if n > n_cap:
        raise CapExceeded("geometric_space_points", n_cap, n)
    family = []
    for mask in range(1 << n):
        inside = [i for i in range(n) if mask >> i & 1]
        outside = [i for i in range(n) if not mask >> i & 1]
        if not inside:
            family.append(())
            continue
        if all(not in_hull(ps, ps.points[j], inside) for j in outside):
            family.append(tuple(inside))
    return convexity_space(n, family)


def in_hull(ps, point, S) -> bool:
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


def rgs_partitions_ref(items, max_blocks: int):
    """Partitions of items into at most max_blocks nonempty blocks, RGS
    order, as tuples of blocks, each a tuple of items in input order: the
    first item opens block 0, and each later one joins an earlier block or
    opens a new one after them. No prefix is pruned."""
    items = tuple(items)
    if not items:
        yield ()
        return
    prefix, last = items[:-1], items[-1]
    for blocks in rgs_partitions_ref(prefix, max_blocks):
        for j in range(len(blocks)):
            yield blocks[:j] + (blocks[j] + (last,),) + blocks[j + 1:]
        if len(blocks) < max_blocks:
            yield blocks + ((last,),)


def rgs_partitions_exact_ref(items, blocks: int):
    """Partitions into exactly `blocks` nonempty blocks, RGS order: every
    partition into at most `blocks` blocks, filtered."""
    for part in rgs_partitions_ref(items, blocks):
        if len(part) == blocks:
            yield part


def _check_coloring(inst, coloring) -> tuple:
    coloring = tuple(int(c) for c in coloring)
    if len(coloring) != inst.n:
        raise InputError(f"coloring length {len(coloring)}, need {inst.n}")
    if any(c < 0 or c >= inst.r for c in coloring):
        raise InputError(f"colors must lie in 0..{inst.r - 1}")
    return coloring


def _adversary(inst, coloring) -> tuple:
    """(chosen, class masks, picked masks, groups) of one checked coloring:
    the package's greedy pick per interval, then each color's cover from
    its class and picks, as point masks, built and structurally checked by
    the package's _cover and _check_structure, as the sweep builds and
    checks them."""
    classes = [0] * inst.r
    picked = [0] * inst.r
    counts = [0] * inst.r
    chosen = ()
    for q in range(inst.p):
        masks = constructions._split_interval(inst, q, coloring[q * inst.m:(q + 1) * inst.m])
        pick = constructions._pick(inst, constructions._eligible(inst, masks), counts)
        picked[pick] |= 1 << q
        counts[pick] += 1
        chosen += (pick,)
        classes = [a | b for a, b in zip(classes, masks)]
    groups = tuple(constructions._cover(inst, a, b) for a, b in zip(classes, picked))
    for color, cover in enumerate(groups):
        constructions._check_structure(inst, color, classes[color], picked[color], cover)
    return chosen, tuple(classes), tuple(picked), groups


def covers_jointly_empty(ps, covers, oracle=None):
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
    oracle = MeetOracle(ps) if oracle is None else oracle
    n = len(ps.points)
    witnesses = _tuple_witnesses(
        oracle, tuple(tuple(mask_of(g, n) for g in c) for c in covers))
    if witnesses is None:
        return None
    return EmptyIntersectionCertificate(ps, covers, witnesses)


@dataclass(frozen=True)
class AdversaryReport:
    """Outcome of checking the adversary covers against one coloring."""

    ok: bool
    inst: object
    coloring: tuple
    chosen: tuple
    covers: tuple
    certificate: object
    max_groups: int


def verify_moment_adversary(inst, coloring, oracle=None) -> AdversaryReport:
    """Build the covers for a coloring and certify their joint emptiness.

    Structural checks (at most s groups per cover, each cover holds exactly
    its color class, single-interval pieces within floor(d/2) points) raise
    on violation since the greedy enforces them by construction. The
    mathematical claim, empty joint intersection, is returned as ok with a
    per-tuple Farkas certificate; ok=False would falsify the construction.
    oracle, a MeetOracle of inst.points, may be shared across colorings of
    the same instance.
    """
    coloring = _check_coloring(inst, coloring)
    chosen, _, _, groups = _adversary(inst, coloring)
    covers = tuple(tuple(map(indices_of, g)) for g in groups)
    cert = covers_jointly_empty(inst.points, covers, oracle)
    return AdversaryReport(cert is not None, inst, coloring, chosen, covers,
                           cert, max(map(len, groups)))


def _choose_interval_colors(inst, coloring) -> tuple:
    cap = inst.d // 2
    quota = (inst.s - 1) // 2
    times_chosen = [0] * inst.r
    chosen = []
    for q in range(inst.p):
        counts = [0] * inst.r
        for i in range(q * inst.m, (q + 1) * inst.m):
            counts[coloring[i]] += 1
        pick = next((c for c in range(inst.r)
                     if counts[c] <= cap and times_chosen[c] < quota), None)
        if pick is None:
            raise InternalInvariantError(
                f"no eligible color in interval {q}; the counting bound failed")
        times_chosen[pick] += 1
        chosen.append(pick)
    return tuple(chosen)


def _adversary_covers(inst, coloring, chosen) -> tuple:
    covers = []
    for color in range(inst.r):
        groups = []
        run = []
        for q in range(inst.p):
            mine = [i for i in range(q * inst.m, (q + 1) * inst.m)
                    if coloring[i] == color]
            if chosen[q] == color:
                if run:
                    groups.append(tuple(run))
                    run = []
                if mine:
                    groups.append(tuple(mine))
            else:
                run.extend(mine)
        if run:
            groups.append(tuple(run))
        covers.append(tuple(groups))
    return tuple(covers)


def _check_structure(inst, coloring, chosen, covers) -> int:
    cap = inst.d // 2
    for color, cover in enumerate(covers):
        if len(cover) > inst.s:
            raise InternalInvariantError(
                f"cover {color} uses {len(cover)} groups, allowed {inst.s}")
        want = tuple(i for i in range(inst.n) if coloring[i] == color)
        if tuple(sorted(itertools.chain.from_iterable(cover))) != want:
            raise InternalInvariantError(f"cover {color} misses points of its color")
        for g in cover:
            qs = {inst.interval_index[i] for i in g}
            if len(qs) == 1 and chosen[next(iter(qs))] == color and len(g) > cap:
                raise InternalInvariantError("single-interval piece too large")
    return max(map(len, covers))


def all_tuples_empty_ref(oracle, combo) -> bool:
    """Whether every cross tuple of hulls misses. Pairs are asked before the
    full tuple: an empty sub-intersection already refutes the whole tuple.
    At r = 2 each tuple is its own only pair."""
    tuples = itertools.product(*combo)
    if len(combo) == 2:
        return not any(map(oracle.meets, tuples))
    return not any(
        all(oracle.meets(pair) for pair in itertools.combinations(groups, 2))
        and oracle.meets(groups)
        for groups in tuples)


def moment_adversary_exhaustive_ref(d: int, s: int, r: int):
    """The t42 sweep one flat coloring at a time, lexicographic order: the
    greedy, the covers and the structural checks from scratch for each
    coloring, then the verdict on one table-backed oracle."""
    inst = moment_adversary_instance(d, s, r)
    oracle = MeetOracle(inst.points, circuit_table(inst.points, range(inst.n)))
    verified, max_groups = 0, 0
    for coloring in itertools.product(range(r), repeat=inst.n):
        chosen = _choose_interval_colors(inst, coloring)
        covers = _adversary_covers(inst, coloring, chosen)
        max_groups = max(max_groups,
                         _check_structure(inst, coloring, chosen, covers))
        masks = tuple(tuple(mask_of(g, inst.n) for g in c) for c in covers)
        if not all_tuples_empty_ref(oracle, masks):
            return AdversarySweepReport(False, d, s, r, inst.n, r ** inst.n,
                                        verified, max_groups, coloring)
        verified += 1
    return AdversarySweepReport(True, d, s, r, inst.n, r ** inst.n,
                                verified, max_groups, None)


def hull(space: ConvexitySpace, subset) -> tuple:
    """Smallest family member containing the subset, as sorted indices."""
    return indices_of(_hull_mask(space, mask_of(subset, space.n)))


def _hull_mask(space: ConvexitySpace, mask: int) -> int:
    out = (1 << space.n) - 1
    for member in space.family:
        if member & mask == mask:
            out &= member
    return out


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
    for a_blocks in rgs_partitions_ref(a_idx, s):
        ua = 0
        for block in a_blocks:
            ua |= _hull_mask(space, mask_of(block, space.n))
        if ua & b_mask:
            continue
        for b_blocks in rgs_partitions_ref(b_idx, t):
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


def separating_grouping_ref(oracle, a, b, s, t, cap):
    """(first (a_groups, b_groups) in restricted-growth order whose cross
    hulls are all disjoint, or None; groupings tried; closed-form count)."""
    a = _norm_group(oracle.ps, a)
    b = _norm_group(oracle.ps, b)
    if set(a) & set(b):
        raise InputError("sides overlap")
    if s < 1 or t < 1:
        raise InputError("group counts must be at least 1")
    closed_form = partitions_le_count(len(a), s) * partitions_le_count(len(b), t)
    n = len(oracle.ps.points)
    tried = 0
    for a_groups in _mask_groupings(a, s, n):
        for b_groups in _mask_groupings(b, t, n):
            tried += 1
            if tried > cap:
                raise CapExceeded("separation_groupings", cap, closed_form)
            if not any(oracle.meets((ga, gb)) for ga in a_groups for gb in b_groups):
                return (a_groups, b_groups), tried, closed_form
    return None, tried, closed_form


def _mask_groupings(part, s, n):
    for groups in rgs_partitions_ref(part, s):
        yield tuple(mask_of(g, n) for g in groups)


def cover_groupings_ref(ps, parts, s_list, cap):
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
    return [list(_mask_groupings(p, s, len(ps.points))) for p, s in zip(parts, s_list)]


def empty_cover_ref(oracle, parts, s_list, cap: int = 10**6):
    """The two walks as the searches ran them: separating_grouping_ref on
    two parts, else the product of cover_groupings_ref under
    all_tuples_empty_ref; the same triple as partitions._empty_cover."""
    if len(parts) == 2:
        return separating_grouping_ref(oracle, *parts, *s_list, cap)
    groupings = cover_groupings_ref(oracle.ps, parts, s_list, cap)
    closed_form = prod(map(len, groupings))
    for tried, combo in enumerate(itertools.product(*groupings), 1):
        if all_tuples_empty_ref(oracle, combo):
            return combo, tried, closed_form
    return None, closed_form, closed_form


def validate_space_ref(space):
    """The axiom check pair by pair, in mask order: (True, None), or
    (False, violation) naming the first violation."""
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


def radon_number_ref(space, cap: int = 10**6):
    """Least k such that every k-subset has two parts with meeting hulls,
    or None: every bipartition of every subset, hulls memoized by part."""
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


def tverberg_number_ref(space, r: int, cap: int = 10**6):
    """Least k such that every k-subset has an r-partition whose hulls
    share an element, or None: every exact r-partition of every subset."""
    if r < 2:
        raise InputError("need at least two parts")
    if r == 2:
        return radon_number_ref(space, cap)
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
    for parts in rgs_partitions_exact_ref(sub, r):
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


def _block_masks(mask, r):
    """The partitions of the points of mask into at most r blocks, RGS
    order, each block summed to its mask."""
    bits = [1 << i for i in indices_of(mask)]
    for blocks in rgs_partitions_ref(bits, r):
        yield tuple(map(sum, blocks))


def is_r_shattered_walk_ref(sys, S, r: int, cap: int = 10**6) -> bool:
    if r < 2:
        raise InputError("r must be at least 2")
    mask = mask_of(S, sys.n)
    size = mask.bit_count()
    if not size:
        return True
    if partitions_le_count(size, r) > cap:
        raise CapExceeded("r_shatter_classes", cap, partitions_le_count(size, r))
    traces = _Traces(sys, mask)
    return all(traces.realizable(blocks, r) for blocks in _block_masks(mask, r))


def r_vc_dim_walk_ref(sys, r: int, cap: int = 10**6) -> int:
    if r < 2:
        raise InputError("r must be at least 2")
    for k in range(sys.n, 0, -1):
        for combo in itertools.combinations(range(sys.n), k):
            if is_r_shattered_walk_ref(sys, combo, r, cap=cap):
                return k
    return 0


def count_realizable_walk_ref(sys, S, r: int, cap: int = 10**6) -> int:
    if r < 1:
        raise InputError("r must be at least 1")
    mask = mask_of(S, sys.n)
    size = mask.bit_count()
    orderings = r ** max(size, 1)
    if orderings > cap:
        raise CapExceeded("count_realizable_orderings", cap, orderings)
    if not size:
        return 1 if sys.edges else 0
    traces = _Traces(sys, mask)
    return sum(perm(r, len(blocks)) for blocks in _block_masks(mask, r)
               if traces.realizable(blocks, r))


def check_r_shatter_walk_ref(sys, r: int, m_max=None, cap: int = 10**6):
    m_max = _last_row(sys, m_max)
    t = r_vc_dim_walk_ref(sys, r, cap=cap)
    check_total("r_shatter_classes_total",
                (binomial(sys.n, m) * partitions_le_count(m, r)
                 for m in range(t + 1, m_max + 1)), cap)
    rows = []
    for m in range(m_max + 1):
        if binomial(sys.n, m) > cap:
            raise CapExceeded("r_shatter_subsets", cap, binomial(sys.n, m))
        if 1 <= m <= t:
            if r ** m > cap:
                raise CapExceeded("count_realizable_orderings", cap, r ** m)
            computed = r ** m
        else:
            computed = max(count_realizable_walk_ref(sys, combo, r, cap=cap)
                           for combo in itertools.combinations(range(sys.n), m))
        bound = r_shatter_bound(m, t, r)
        rows.append(ShatterRow(m, computed, bound, computed <= bound))
    return ShatterProfile("rvc", t, r, tuple(rows))


def min_f_counting_ref(d: int, r: int, f_cap: int = 10**6) -> int:
    if d < 0:
        raise InputError("d must be nonnegative")
    if r < 2:
        raise InputError("r must be at least 2")
    f = 1
    while f <= f_cap:
        lhs = sauer_bound(f, d) ** r * (r - 1) ** f
        if lhs < r ** f:
            return f
        f += 1
    raise CapExceeded("min_f_counting", f_cap)


def check_sauer_ref(sys, m_max=None, cap: int = 10**6):
    m_max = _last_row(sys, m_max)
    d = vc_dim(sys, cap=cap)
    rows = []
    for m in range(m_max + 1):
        computed = primal_shatter(sys, m, cap=cap)
        bound = sauer_bound(m, d)
        rows.append(ShatterRow(m, computed, bound, computed <= bound))
    return ShatterProfile("vc", d, None, tuple(rows))


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; 2 means refuted here."""

    def error(self, message):
        raise InputError(message)


def flat_parser_ref() -> _Parser:
    parser = _Parser(prog="convexparts",
                     description="Exact partition, shattering, and separation "
                                 "oracles for finite point sets.",
                     epilog="; ".join(f"{command} targets: {', '.join(targets)}"
                                      for command, targets in _TARGETS.items()))
    parser.add_argument("command", choices=_HANDLERS)
    parser.add_argument("target", nargs="?")
    parser.add_argument("--input")
    parser.add_argument("--d", type=int)
    parser.add_argument("--s", type=int)
    parser.add_argument("--t", type=int)
    parser.add_argument("--r", type=int)
    parser.add_argument("--s-list", dest="s_list")
    parser.add_argument("--n", type=int)
    parser.add_argument("--a")
    parser.add_argument("--b")
    parser.add_argument("--parts")
    parser.add_argument("--sampler", default="random-rational")
    parser.add_argument("--samples", type=int, default=10)
    parser.add_argument("--cap", type=int)
    parser.add_argument("--seed", type=int)
    # accepted so existing command lines keep parsing; selects nothing
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    parser.add_argument("--out-dir", dest="out_dir")
    return parser


def nested_parser_ref() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--input")
    common.add_argument("--d", type=int)
    common.add_argument("--s", type=int)
    common.add_argument("--t", type=int)
    common.add_argument("--r", type=int)
    common.add_argument("--s-list", dest="s_list")
    common.add_argument("--n", type=int)
    common.add_argument("--a")
    common.add_argument("--b")
    common.add_argument("--parts")
    common.add_argument("--sampler", default="random-rational")
    common.add_argument("--samples", type=int, default=10)
    common.add_argument("--cap", type=int)
    common.add_argument("--seed", type=int)
    # accepted so existing command lines keep parsing; selects nothing
    common.add_argument("--jobs", type=int, default=1)
    common.add_argument("--format", choices=["json", "csv"], default="json")
    common.add_argument("--out-dir", dest="out_dir")

    parser = _Parser(prog="convexparts",
                     description="Exact partition, shattering, and separation "
                                 "oracles for finite point sets.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ["vcdim", "rvcdim", "shatter", "rshatter", "bound-e31",
                 "traces", "radon", "tverberg", "separate", "build-separation",
                 "fsearch", "verify-cert"]:
        sub.add_parser(name, parents=[common])
    gen = sub.add_parser("gen", parents=[common])
    gen.add_argument("target", choices=["moment-curve", "convex-position",
                                        "periodic", "tight", "copies", "t42"])
    ver = sub.add_parser("verify", parents=[common])
    ver.add_argument("target", choices=["t999", "t42", "sauer", "rshatter",
                                        "f3", "abstract"])
    return parser


@lru_cache(maxsize=None)
def stirling2_ref(n: int, k: int) -> int:
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0 or k > n:
        return 0
    return k * stirling2_ref(n - 1, k) + stirling2_ref(n - 1, k - 1)
