"""Finite set systems: shattering, VC dimension, and the r-partition variants.

Ground set is {0..n-1}; hyperedges are deduplicated bit masks. An r-partition
of S is realizable when hyperedges e_1..e_r exist with part_i inside e_i and
S meeting no point of the common intersection. Empty parts are permitted and
act as unconstrained edge slots, which is exactly what makes r-shattering
monotone decreasing in r (a spare slot can repeat an edge).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .combinat import binomial, indices_of, mask_of, partitions_le_count, rgs_partitions
from .errors import CapExceeded, InputError


@dataclass(frozen=True)
class SetSystem:
    n: int
    edges: tuple  # sorted distinct bit masks

    def __len__(self) -> int:
        return len(self.edges)

    def edge_indices(self):
        return tuple(indices_of(e) for e in self.edges)


def set_system(n: int, edges) -> SetSystem:
    n = int(n)
    if n < 0:
        raise InputError("ground size must be nonnegative")
    masks = set()
    full = (1 << n) - 1
    for e in edges:
        m = e if isinstance(e, int) else mask_of(e, n)
        if m < 0 or m & ~full:
            raise InputError(f"edge {e!r} leaves the ground set")
        masks.add(m)
    return SetSystem(n, tuple(sorted(masks)))


@dataclass(frozen=True)
class RPartition:
    base: tuple          # sorted indices of S
    parts: tuple         # r tuples of indices, disjoint, covering base

    @property
    def r(self) -> int:
        return len(self.parts)


def r_partition(base, parts) -> RPartition:
    base_idx = tuple(sorted(set(int(i) for i in base)))
    norm = tuple(tuple(sorted(set(int(i) for i in p))) for p in parts)
    seen = set()
    for p in norm:
        for i in p:
            if i in seen:
                raise InputError("partition parts overlap")
            seen.add(i)
    if seen != set(base_idx):
        raise InputError("parts do not cover the base set")
    return RPartition(base_idx, norm)


@dataclass(frozen=True)
class ShatterRow:
    m: int
    computed: int
    bound: int
    ok: bool


@dataclass(frozen=True)
class ShatterProfile:
    kind: str            # "vc" or "rvc"
    dimension: int       # vc_dim, or r_vc_dim for the rvc kind
    r: int | None
    rows: tuple

    @property
    def all_ok(self) -> bool:
        return all(row.ok for row in self.rows)


def is_shattered(sys: SetSystem, S) -> bool:
    mask = mask_of(S, sys.n)
    size = mask.bit_count()
    traces = {e & mask for e in sys.edges}
    return len(traces) == 1 << size


def vc_dim(sys: SetSystem) -> int:
    if not sys.edges:
        return 0
    top = min(sys.n, len(sys.edges).bit_length() - 1)
    ground = range(sys.n)
    for k in range(top, 0, -1):
        for combo in itertools.combinations(ground, k):
            if is_shattered(sys, combo):
                return k
    return 0


def primal_shatter(sys: SetSystem, m: int, cap: int = 10**6) -> int:
    """Shatter function pi(m): most distinct traces on any m-point subset."""
    if m < 0 or m > sys.n:
        raise InputError(f"m={m} outside 0..{sys.n}")
    total = binomial(sys.n, m)
    if total > cap:
        raise CapExceeded("primal_shatter_subsets", cap, total)
    best = 0
    for combo in itertools.combinations(range(sys.n), m):
        mask = mask_of(combo, sys.n)
        seen = {e & mask for e in sys.edges}
        if len(seen) > best:
            best = len(seen)
            if best == 1 << m:
                break
    return best


def sauer_bound(m: int, d: int) -> int:
    return sum(binomial(m, i) for i in range(0, min(d, m) + 1))


def check_sauer(sys: SetSystem, m_max: int | None = None, cap: int = 10**6) -> ShatterProfile:
    d = vc_dim(sys)
    m_max = sys.n if m_max is None else min(m_max, sys.n)
    rows = []
    for m in range(m_max + 1):
        computed = primal_shatter(sys, m, cap=cap)
        bound = sauer_bound(m, d)
        rows.append(ShatterRow(m, computed, bound, computed <= bound))
    return ShatterProfile("vc", d, None, tuple(rows))


def _projections(sys: SetSystem, s_mask: int, part_mask: int):
    """Distinct traces on S of edges containing the part; sorted for determinism."""
    return sorted({e & s_mask for e in sys.edges if e & part_mask == part_mask})


def _realizable(sys: SetSystem, s_mask: int, part_masks, budget=None) -> bool:
    """Core DFS: pick one admissible edge trace per part, empty intersection.

    part_masks may contain 0 entries (wildcard slots: any edge qualifies).
    budget, when given, is a one-element list of remaining DFS visits shared
    across calls; exhausting it raises CapExceeded.
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
        if budget is not None:
            budget[0] -= 1
            if budget[0] < 0:
                raise CapExceeded("realizability_dfs", -1)
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


def is_realizable(sys: SetSystem, partition: RPartition) -> bool:
    s_mask = mask_of(partition.base, sys.n)
    part_masks = [mask_of(p, sys.n) for p in partition.parts]
    return _realizable(sys, s_mask, part_masks)


def is_r_shattered(sys: SetSystem, S, r: int, cap: int = 10**6) -> bool:
    """Every r-partition of S realizable; |S| = 0 counts as shattered.

    Unordered block classes are enumerated once (RGS order) with empty parts
    as wildcard slots, since realizability only depends on the class.
    """
    if r < 2:
        raise InputError("r must be at least 2")
    mask = mask_of(S, sys.n)
    items = indices_of(mask)
    if not items:
        return True
    if partitions_le_count(len(items), r) > cap:
        raise CapExceeded("r_shatter_classes", cap, partitions_le_count(len(items), r))
    for blocks in rgs_partitions(items, r):
        part_masks = [mask_of(b, sys.n) for b in blocks]
        part_masks += [0] * (r - len(part_masks))
        if not _realizable(sys, mask, part_masks):
            return False
    return True


def r_vc_dim(sys: SetSystem, r: int, cap: int = 10**6) -> int:
    if r < 2:
        raise InputError("r must be at least 2")
    for k in range(sys.n, 0, -1):
        for combo in itertools.combinations(range(sys.n), k):
            if is_r_shattered(sys, combo, r, cap=cap):
                return k
    return 0


def count_realizable(sys: SetSystem, S, r: int, cap: int = 10**6) -> int:
    """Number of realizable ordered r-partitions (functions S -> r parts).

    Each unordered class of k nonempty blocks is tested once and contributes
    r!/(r-k)! orderings when realizable.
    """
    if r < 1:
        raise InputError("r must be at least 1")
    mask = mask_of(S, sys.n)
    items = indices_of(mask)
    if r ** max(len(items), 1) > cap:
        raise CapExceeded("count_realizable_orderings", cap, r ** len(items))
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


def r_shatter_bound(m: int, t: int, r: int) -> int:
    """Counting bound on realizable ordered r-partitions of an m-set: the
    r-analogue of the Sauer bound with r_vc_dim t."""
    return sum(binomial(m, i) * (r - 1) ** (m - i) for i in range(0, min(t, m) + 1))


def check_r_shatter(sys: SetSystem, r: int, m_max: int | None = None, cap: int = 10**6) -> ShatterProfile:
    """Audit pi_r(m) = max_S count_realizable against the counting bound."""
    t = r_vc_dim(sys, r, cap=cap)
    m_max = sys.n if m_max is None else min(m_max, sys.n)
    rows = []
    for m in range(m_max + 1):
        if binomial(sys.n, m) > cap:
            raise CapExceeded("r_shatter_subsets", cap, binomial(sys.n, m))
        computed = 0
        for combo in itertools.combinations(range(sys.n), m):
            computed = max(computed, count_realizable(sys, combo, r, cap=cap))
        bound = r_shatter_bound(m, t, r)
        rows.append(ShatterRow(m, computed, bound, computed <= bound))
    return ShatterProfile("rvc", t, r, tuple(rows))


def min_f_counting(d: int, r: int, f_cap: int = 10**6) -> int:
    """Least f making the ordered-partition count shortfall strict:
    (sum_{i<=d} C(f,i))^r < (r/(r-1))^f, compared in exact integers.

    Any r-shattered set in a system of VC dimension d has size at most f-1
    (r-shattering is closed under subsets, so one threshold serves all sizes).
    """
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
