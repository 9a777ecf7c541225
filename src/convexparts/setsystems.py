"""Finite set systems: shattering, VC dimension, and the r-partition variants.

Ground set is {0..n-1}; hyperedges are deduplicated bit masks. An r-partition
of S is realizable when hyperedges e_1..e_r exist with part_i inside e_i and
S meeting no point of the common intersection. Empty parts are permitted and
act as unconstrained edge slots, which is exactly what makes r-shattering
monotone decreasing in r (a spare slot can repeat an edge).

Realizability on S depends on the edges only through their traces e & S,
so each subset's distinct traces are collected once. A slot's candidates
are the traces containing its part, and of those only the inclusion-minimal
ones matter: swapping a trace for a smaller one only shrinks the common
part, so if any choice misses S, a choice of minimal traces does too. Every
block mask's minimal up-set is therefore computed once per subset and
shared by all the partitions that have that block.

r-shattering is closed under subsets, so `check_r_shatter` takes the rows
up to t = r_vc_dim as r^m without enumerating them (see its docstring).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import perm

from .combinat import binomial, indices_of, mask_of, partitions_le_count
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


class _Traces:
    """The distinct traces {e & S} of the edges on one subset S.

    `up(block)` is the up-set {t : t contains block} pruned to its minimal
    members, computed once per block mask; block 0, a wildcard slot, gets
    the minimal traces of all edges.
    """

    def __init__(self, sys: SetSystem, s_mask: int):
        self.s_mask = s_mask
        self.size = s_mask.bit_count()
        # smallest first: a trace is minimal iff no kept one lies inside it
        self.traces = sorted({e & s_mask for e in sys.edges}, key=int.bit_count)
        self._up = {}

    def up(self, block: int):
        got = self._up.get(block)
        if got is None:
            got = self._up[block] = []
            for t in self.traces:
                if t & block == block:
                    for k in got:
                        if k & t == k:
                            break
                    else:
                        got.append(t)
        return got

    def realizable(self, blocks, r: int) -> bool:
        """One trace per slot, containing the slot's block, whose common part
        misses S; slots past the blocks are wildcards."""
        cands = [self.up(b) for b in blocks]
        # a solution needs at most one wildcard per point of S (one trace
        # missing it), and further wildcards can repeat a trace already
        # chosen; so at most max(|S|, 1) of them, which bounds the DFS depth
        cands += [self.up(0)] * min(r - len(blocks), max(self.size, 1))
        if not all(cands):
            return False
        # tightest slots first: fewer candidates prune earlier
        cands.sort(key=len)
        last = len(cands)
        failed = set()

        def dfs(i, mask):
            if mask == 0:
                return True
            if i == last:
                return False
            key = (i, mask)
            if key in failed:
                return False
            for c in cands[i]:
                if dfs(i + 1, mask & c):
                    return True
            failed.add(key)
            return False

        return dfs(0, self.s_mask)


def _classes(s_mask: int, r: int):
    """Partitions of the points of s_mask into at most r nonempty blocks, in
    RGS order (points ascending), as lists of block masks. One list is
    reused for every partition, so read it before resuming."""
    bits = [1 << i for i in indices_of(s_mask)]
    last = len(bits)
    blocks = []

    def walk(i):
        if i == last:
            yield blocks
            return
        bit = bits[i]
        for j in range(len(blocks)):
            blocks[j] |= bit
            yield from walk(i + 1)
            blocks[j] ^= bit
        if len(blocks) < r:
            blocks.append(bit)
            yield from walk(i + 1)
            blocks.pop()

    return walk(0)


def is_realizable(sys: SetSystem, partition: RPartition) -> bool:
    s_mask = mask_of(partition.base, sys.n)
    blocks = [mask_of(p, sys.n) for p in partition.parts if p]
    return _Traces(sys, s_mask).realizable(blocks, partition.r)


def is_r_shattered(sys: SetSystem, S, r: int, cap: int = 10**6) -> bool:
    """Every r-partition of S realizable; |S| = 0 counts as shattered.

    Unordered block classes are enumerated once (RGS order) with empty parts
    as wildcard slots, since realizability only depends on the class.
    """
    if r < 2:
        raise InputError("r must be at least 2")
    mask = mask_of(S, sys.n)
    size = mask.bit_count()
    if not size:
        return True
    if partitions_le_count(size, r) > cap:
        raise CapExceeded("r_shatter_classes", cap, partitions_le_count(size, r))
    traces = _Traces(sys, mask)
    return all(traces.realizable(blocks, r) for blocks in _classes(mask, r))


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
    size = mask.bit_count()
    if r ** max(size, 1) > cap:
        raise CapExceeded("count_realizable_orderings", cap, r ** size)
    if not size:
        return 1 if sys.edges else 0
    traces = _Traces(sys, mask)
    return sum(perm(r, len(blocks)) for blocks in _classes(mask, r)
               if traces.realizable(blocks, r))


def r_shatter_bound(m: int, t: int, r: int) -> int:
    """Counting bound on realizable ordered r-partitions of an m-set: the
    r-analogue of the Sauer bound with r_vc_dim t."""
    return sum(binomial(m, i) * (r - 1) ** (m - i) for i in range(0, min(t, m) + 1))


def check_r_shatter(sys: SetSystem, r: int, m_max: int | None = None, cap: int = 10**6) -> ShatterProfile:
    """Audit pi_r(m) = max_S count_realizable against the counting bound.

    Rows 1 <= m <= t, for t = r_vc_dim, are r^m without enumeration: some
    t-set is r-shattered, r-shattering is closed under subsets (put the
    dropped points into any part; the same edges still work), so each of
    its m-subsets realizes all r^m ordered partitions, and no m-set can
    realize more. Those rows still raise every cap the recount would.
    """
    t = r_vc_dim(sys, r, cap=cap)
    m_max = sys.n if m_max is None else min(m_max, sys.n)
    rows = []
    for m in range(m_max + 1):
        if binomial(sys.n, m) > cap:
            raise CapExceeded("r_shatter_subsets", cap, binomial(sys.n, m))
        if 1 <= m <= t:
            # the check count_realizable makes on every m-subset
            if r ** m > cap:
                raise CapExceeded("count_realizable_orderings", cap, r ** m)
            computed = r ** m
        else:
            computed = max(count_realizable(sys, combo, r, cap=cap)
                           for combo in itertools.combinations(range(sys.n), m))
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
