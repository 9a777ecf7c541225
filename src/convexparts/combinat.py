"""Shared enumeration helpers: set partitions, counts, bit tricks.

Set partitions are always produced in restricted-growth-string order (item 0
gets block 0; item i may open at most one new block), the canonical order all
searchers in this package quote in their transcripts. One label walk yields
them: rgs_partitions gives each block as a tuple of items, and rgs_masks,
for items that are disjoint bit masks, as the mask of its items, the form
the grouping walk hands to the hull oracle.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .errors import CapExceeded, InputError


def mask_of(indices, n: int) -> int:
    """Bitmask of indices from the ground set 0..n-1."""
    m = 0
    for i in indices:
        i = int(i)
        if i < 0 or i >= n:
            raise InputError(f"index {i} outside ground set of size {n}")
        m |= 1 << i
    return m


def indices_of(mask: int) -> tuple:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


@lru_cache(maxsize=None)
def _stirling_row(n: int, kmax: int) -> tuple:
    """S(n, k) for k = 0..kmax, built row by row from
    S(m, k) = k S(m-1, k) + S(m-1, k-1) in a loop, so any n works."""
    row = [1] + [0] * kmax
    for m in range(1, n + 1):
        for k in range(min(m, kmax), 0, -1):
            row[k] = k * row[k] + row[k - 1]
        row[0] = 0
    return tuple(row)


def stirling2(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return _stirling_row(n, k)[k]


def partitions_le_count(n: int, kmax: int) -> int:
    """Partitions of an n-set into at most kmax nonempty blocks (1 when n=0)."""
    if n == 0:
        return 1
    return sum(_stirling_row(n, max(0, min(n, kmax)))[1:])


def _rgs_labels(n: int, max_blocks: int, min_blocks: int):
    """(labels, block count) of every partition of n >= 1 items into at
    least min_blocks and at most max_blocks >= 1 blocks, RGS order; labels
    gives each item's block and is one list, reused. A prefix whose
    remaining items cannot open the blocks still missing is not extended,
    so every prefix walked has a completion that is yielded."""
    labels = [0] * n

    def rec(i, used):
        if used + n - i < min_blocks:
            return
        if i == n:
            yield labels, used
            return
        for lab in range(min(used + 1, max_blocks)):
            labels[i] = lab
            yield from rec(i + 1, max(used, lab + 1))

    yield from rec(1, 1)


def rgs_partitions(items, max_blocks: int, min_blocks: int = 0):
    """All partitions of items into at least min_blocks and at most
    max_blocks nonempty blocks, RGS order.

    Yields tuples of blocks; each block is a tuple of items in input order.
    The empty item list yields the empty partition when min_blocks <= 0.
    """
    items = list(items)
    if not items:
        if min_blocks <= 0:
            yield ()
        return
    if max_blocks < 1:
        return
    for labels, used in _rgs_labels(len(items), max_blocks, min_blocks):
        blocks = [[] for _ in range(used)]
        for item, lab in zip(items, labels):
            blocks[lab].append(item)
        yield tuple(map(tuple, blocks))


def rgs_masks(bits, max_blocks: int):
    """rgs_partitions(bits, max_blocks) for a list of disjoint bit masks,
    with each block given as the mask of its items."""
    if not bits:
        yield ()
    elif max_blocks >= 1:
        for labels, used in _rgs_labels(len(bits), max_blocks, 0):
            blocks = [0] * used
            for bit, lab in zip(bits, labels):
                blocks[lab] |= bit
            yield tuple(blocks)


def rgs_partitions_exact(items, blocks: int):
    """Partitions into exactly `blocks` nonempty blocks, RGS order. The walk
    visits at most len(items) prefixes per partition yielded."""
    if blocks >= 0:
        yield from rgs_partitions(items, blocks, blocks)


def run_splits(count: int, max_runs: int):
    """Splits of a length-`count` sequence into <= max_runs consecutive blocks.

    Yields tuples of (start, end) half-open index ranges, ordered by run count
    then lexicographic cut positions.
    """
    from itertools import combinations

    if count == 0:
        yield ()
        return
    for k in range(1, min(count, max_runs) + 1):
        for cuts in combinations(range(1, count), k - 1):
            bounds = (0,) + cuts + (count,)
            yield tuple((bounds[i], bounds[i + 1]) for i in range(k))


def check_total(cap_name: str, terms, cap: int) -> None:
    """Add up the work terms, raising CapExceeded as soon as the running
    total passes cap, so the check never costs more than the cap allows
    (the reported need is then the total so far)."""
    total = 0
    for term in terms:
        total += term
        if total > cap:
            raise CapExceeded(cap_name, cap, total)


def binomial(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return comb(n, k)
