"""Finite set systems: shattering, VC dimension, and the r-partition variants.

Ground set is {0..n-1}; hyperedges are deduplicated bit masks. An r-partition
of S is realizable when hyperedges e_1..e_r exist with part_i inside e_i and
S meeting no point of the common intersection. Empty parts are permitted and
act as unconstrained edge slots, which is exactly what makes r-shattering
monotone decreasing in r (a spare slot can repeat an edge).

Realizability on S depends on the edges only through their traces e & S,
so each subset's distinct traces are collected once. Two ways read them.

The class walk (`is_r_shattered`, r >= 3) tests each unordered block class.
A slot's candidates are the traces containing its part, and of those only
the inclusion-minimal ones matter: swapping a trace for a smaller one only
shrinks the common part, so if any choice misses S, a choice of minimal
traces does too. Every block mask's minimal up-set is therefore computed
once per subset and shared by all the partitions that have that block.

The count (`count_realizable`, r >= 3) takes every ordered function
f: S -> r slots at once, as the bits of one integer. Relabelling the slots
maps realizable functions to realizable ones, so it pins min(S) to slot 0
and multiplies by r; bit x is then the function whose j-th other point sits
in slot digit j of x in base r, r^(|S|-1) bits in all. The slots are walked
in a loop, keeping a frontier from the common part m of the traces chosen
so far to the bitset of functions whose blocks fit inside them. Trace t at
slot i keeps the functions with no point outside t in slot i, the AND over
those points of a "digit j is not i" mask, built once per slot, and moves
them to m & t; the last slot keeps only m & t = 0. The orderings cap
r^|S| is checked before any bitset is built, so each bitset holds at most
cap/r bits, and the frontier holds at most 2^|S| of them. Nothing in the
walk recurses or forms a reference cycle: big ints never trigger the cyclic
collector, so bitsets held by a cycle would outlive the call.

r-shattering is closed under subsets, so `check_r_shatter` takes the rows
up to t = r_vc_dim as r^m without enumerating them (see its docstring), and
`check_sauer` likewise the rows up to the VC dimension as 2^m.

Lemma (r = 2). Let T_S = {e & S} be the traces on S. The ordered
2-partition (B, S - B) is realizable iff B and S - B are both in T_S.
Proof: realizable means traces t1 containing B and t2 containing S - B
with t1 & t2 = 0. Then t1 lies in S - t2, which lies in B, so t1 = B, and
likewise t2 = S - B. An empty part is a wildcard slot, so it accepts any
trace, but the other trace contains all of S and must miss it: the pair is
forced to be 0 and S all the same. Hence at r = 2 the realizable count is
#{t in T_S : S - t in T_S}, S is 2-shattered iff |T_S| = 2^|S|, and
r_vc_dim is the VC dimension. Those three answers come from the trace set
alone; the class walk and the bitset count serve r >= 3 only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import log, log1p

from .combinat import binomial, check_total, indices_of, mask_of, partitions_le_count
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


def _traces(sys: SetSystem, mask: int) -> set:
    """The distinct traces {e & mask} of the edges."""
    return {e & mask for e in sys.edges}


def is_shattered(sys: SetSystem, S) -> bool:
    mask = mask_of(S, sys.n)
    return len(_traces(sys, mask)) == 1 << mask.bit_count()


def vc_dim(sys: SetSystem, cap: int | None = 10**6) -> int:
    """Largest k with a shattered k-subset, scanned from the top level down.

    Before level k is scanned, its C(n, k) subsets are added to those of
    the levels above and the total goes through cap as `vc_subsets`.
    cap=None scans uncapped: `r_vc_dim` at r = 2 bounds it by its own check.
    """
    if not sys.edges:
        return 0
    top = min(sys.n, len(sys.edges).bit_length() - 1)
    ground = range(sys.n)
    total = 0
    for k in range(top, 0, -1):
        total += binomial(sys.n, k)
        if cap is not None and total > cap:
            raise CapExceeded("vc_subsets", cap, total)
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
        seen = _traces(sys, mask_of(combo, sys.n))
        if len(seen) > best:
            best = len(seen)
            if best == 1 << m:
                break
    return best


def sauer_bound(m: int, d: int) -> int:
    return sum(binomial(m, i) for i in range(0, min(d, m) + 1))


def _last_row(sys: SetSystem, m_max: int | None) -> int:
    """The last row m of a profile: m_max, at most the ground size."""
    if m_max is None:
        return sys.n
    if m_max < 0:
        raise InputError("m_max must be nonnegative")
    return min(m_max, sys.n)


def check_sauer(sys: SetSystem, m_max: int | None = None, cap: int = 10**6) -> ShatterProfile:
    """Audit pi(m) against the Sauer bound, the way `check_r_shatter` audits
    pi_r(m): rows 1 <= m <= d = vc_dim are 2^m without enumeration, since
    subsets of a shattered d-set are shattered; they still raise
    `primal_shatter_subsets` wherever the recount would. The C(n, m)
    subsets of the rows above d are totalled through cap as
    `primal_shatter_total` before the first row.
    """
    m_max = _last_row(sys, m_max)
    d = vc_dim(sys, cap=cap)
    check_total("primal_shatter_total",
                (binomial(sys.n, m) for m in range(d + 1, m_max + 1)), cap)
    rows = []
    for m in range(m_max + 1):
        if 1 <= m <= d:
            # the check primal_shatter makes
            if binomial(sys.n, m) > cap:
                raise CapExceeded("primal_shatter_subsets", cap, binomial(sys.n, m))
            computed = 1 << m
        else:
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
        self.traces = sorted(_traces(sys, s_mask), key=int.bit_count)
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


def is_r_shattered(sys: SetSystem, S, r: int, cap: int = 10**6) -> bool:
    """Every r-partition of S realizable; |S| = 0 counts as shattered.

    At r = 2 this is plain shattering (module docstring). Otherwise the
    unordered block classes are enumerated once (RGS order) with empty parts
    as wildcard slots, since realizability only depends on the class. This
    walk, not the bitset of `count_realizable`, answers here for two
    reasons: the cap `r_shatter_classes` counts classes, which can fit where
    r^|S| orderings do not, and at most |S| wildcard slots are searched, so
    r = 5000 stays shallow, where a bitset would walk every slot over
    r^(|S|-1) bits.
    """
    if r < 2:
        raise InputError("r must be at least 2")
    mask = mask_of(S, sys.n)
    size = mask.bit_count()
    if not size:
        return True
    if partitions_le_count(size, r) > cap:
        raise CapExceeded("r_shatter_classes", cap, partitions_le_count(size, r))
    if r == 2:
        return len(_traces(sys, mask)) == 1 << size
    traces = _Traces(sys, mask)
    return all(traces.realizable(blocks, r) for blocks in _classes(mask, r))


def r_vc_dim(sys: SetSystem, r: int, cap: int = 10**6) -> int:
    """Largest k with an r-shattered k-subset, scanned from k = n down.

    The first subset asked is the whole ground, and its class count caps
    every later one. At r = 2 that one question is kept, then the answer is
    the VC dimension (module docstring); the cap already held 2^(n-1), so
    the uncapped `vc_dim` scan visits fewer than 2^n subsets.
    """
    if r < 2:
        raise InputError("r must be at least 2")
    if r == 2:
        if is_r_shattered(sys, range(sys.n), 2, cap=cap):
            return sys.n
        return vc_dim(sys, cap=None)
    for k in range(sys.n, 0, -1):
        for combo in itertools.combinations(range(sys.n), k):
            if is_r_shattered(sys, combo, r, cap=cap):
                return k
    return 0


def _count_pinned(traces, s_mask: int, r: int) -> int:
    """The number of realizable functions f: S -> r slots with f(min S) = 0,
    counted on one bitset walked slot by slot (module docstring)."""
    first, *rest = [1 << i for i in indices_of(s_mask)]
    full = (1 << r ** len(rest)) - 1
    # digit j of x is 0 on the first r^j bits of every r^(j+1), and i on
    # those runs shifted by i r^j
    runs, width = [], 1
    for bit in rest:
        runs.append((bit, width, ((1 << width) - 1) * (full // ((1 << width * r) - 1))))
        width *= r
    frontier = {s_mask: full}
    for i in range(r):
        off = [(bit, full ^ run << i * width) for bit, width, run in runs]
        last = i == r - 1
        nxt = {}
        for t in traces:
            if not i and not t & first:
                continue
            fits = full
            for bit, mask in off:
                if not t & bit:
                    fits &= mask
            if not fits:
                continue
            for m, f in frontier.items():
                common = m & t
                if last and common:
                    continue
                kept = f & fits
                if kept:
                    nxt[common] = nxt.get(common, 0) | kept
        if not nxt:
            return 0
        frontier = nxt
    return frontier.get(0, 0).bit_count()


def count_realizable(sys: SetSystem, S, r: int, cap: int = 10**6) -> int:
    """Number of realizable ordered r-partitions (functions S -> r parts).

    At r = 2 these are the traces whose complement in S is a trace too
    (module docstring). Otherwise relabelling the slots maps realizable
    functions to realizable ones, so the count is r times the number with
    min(S) in slot 0, and `_count_pinned` takes those as one bitset over the
    slots of the other points (module docstring). At r >= 3 a one-point S
    needs no walk: its count is r when 0 and S are both traces, else 0. The
    orderings cap r^|S| is checked before any bitset is built, so each holds
    r^(|S|-1) <= cap/r bits, and the frontier holds at most one per common
    part, 2^|S| of them.
    """
    if r < 1:
        raise InputError("r must be at least 1")
    mask = mask_of(S, sys.n)
    size = mask.bit_count()
    orderings = r ** max(size, 1)
    if orderings > cap:
        raise CapExceeded("count_realizable_orderings", cap, orderings)
    if r == 2:
        traces = _traces(sys, mask)
        return sum(mask ^ t in traces for t in traces)
    if not size:
        return 1 if sys.edges else 0
    traces = _traces(sys, mask)
    if size == 1 and r >= 3:
        # the point takes one slot, S, and the other r - 1 slots are empty
        return r if 0 in traces and mask in traces else 0
    return r * _count_pinned(traces, mask, r)


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
    The rows above t are enumerated, one `count_realizable` per subset.
    Before the first row, the partitions of their C(n, m) subsets into at
    most r blocks are totalled through cap as `r_shatter_classes_total`.
    """
    m_max = _last_row(sys, m_max)
    t = r_vc_dim(sys, r, cap=cap)
    check_total("r_shatter_classes_total",
                (binomial(sys.n, m) * partitions_le_count(m, r)
                 for m in range(t + 1, m_max + 1)), cap)
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

    Write S(f) for the sum. No f <= d qualifies: there S(f) = 2^f, and
    2^r (r-1) >= r. At d = 0, S(f) = 1 and f = 1 qualifies. For d >= 1,
    S(f) >= 2 and ln(r/(r-1)) <= 1/(r-1), so the least f exceeds
    r(r-1) ln 2, and a cap of at most r(r-1)/2 is refused at once. The scan
    starts at f = d + 1 and carries S(f) and C(f, d) from one f to the next:
    S(f+1) = 2 S(f) - C(f, d).

    Each f is screened in floats: x = r ln S(f) against y = f ln(r/(r-1)),
    the latter by log1p. Each log, quotient and product is off by a few
    units of 2^-53 relative to its size (ln S(f) by about 2^-52 absolute,
    and S(f) >= 3 makes ln S(f) >= 1), so the float y - x lies within
    2^-47 (x + y) of the true difference. Outside the margin 2^-40 (x + y)
    its sign decides; inside it the integers are compared exactly.
    """
    if d < 0:
        raise InputError("d must be nonnegative")
    if r < 2:
        raise InputError("r must be at least 2")
    if d == 0 and f_cap >= 1:
        return 1
    if d and r * (r - 1) >= 2 * f_cap:
        raise CapExceeded("min_f_counting", f_cap)
    log_ratio = log1p(1 / (r - 1))
    f, s, c = d + 1, (1 << d + 1) - 1, d + 1
    while f <= f_cap:
        x, y = r * log(s), f * log_ratio
        margin = (x + y) * 2.0**-40
        if y - x > margin or (y - x >= -margin and s ** r * (r - 1) ** f < r ** f):
            return f
        s, c = 2 * s - c, c * (f + 1) // (f + 1 - d)
        f += 1
    raise CapExceeded("min_f_counting", f_cap)
