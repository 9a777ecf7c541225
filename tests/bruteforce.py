"""Independent reference oracles used only by the test suite.

Deliberately different algorithms from the package's own paths: feasibility by
Fourier-Motzkin elimination, hull membership by exhaustive simplex-free
checks on tiny cases, the phase-1 simplex on `Rat` arithmetic that the
integer kernel in `linprog` replaced (same pivot rule, so it must return the
same vector), and the r-partition realizability DFS that rescans every edge
for every block, which `setsystems` replaced by per-subset trace sets and
minimal up-sets. Slow and simple on purpose.
"""

from __future__ import annotations

import itertools

from convexparts.combinat import indices_of, mask_of, rgs_partitions
from convexparts.errors import InternalInvariantError
from convexparts.linprog import normalize_rows
from convexparts.rational import ONE, ZERO, Rat
from convexparts.setsystems import ShatterProfile, ShatterRow, r_shatter_bound


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
    rows = normalize_rows(constraints)
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


def is_realizable_ref(sys, partition) -> bool:
    s_mask = mask_of(partition.base, sys.n)
    return _realizable(sys, s_mask, [mask_of(p, sys.n) for p in partition.parts])


def is_r_shattered_ref(sys, S, r: int) -> bool:
    mask = mask_of(S, sys.n)
    items = indices_of(mask)
    if not items:
        return True
    for blocks in rgs_partitions(items, r):
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
    for blocks in rgs_partitions(items, r):
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
