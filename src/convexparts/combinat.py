"""Shared enumeration helpers: set partitions, counts, bit tricks.

Set partitions are always produced in restricted-growth-string order (item 0
gets block 0; item i may open at most one new block), the canonical order all
searchers in this package quote in their transcripts. rgs_masks is the
package's one set-partition walk. Its items are disjoint bit masks, one per
point, and each block comes out as the mask of its items: the form the hull
oracle and the trace sets take. The grouping walk, the Tverberg search and
the r-shattering check all read it.
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


def rgs_masks(bits, max_blocks: int, min_blocks: int = 0):
    """All partitions of the items, disjoint bit masks, into at least
    min_blocks and at most max_blocks nonempty blocks, RGS order; each block
    is the mask of its items. The empty item list yields the empty
    partition when min_blocks <= 0.

    One list of block masks grows and shrinks as the walk goes: item i joins
    each open block in turn, then opens a new one while fewer than
    max_blocks are open. An item joins no block when the items after it
    could not open the blocks still missing, so every prefix walked has a
    completion that is yielded."""
    last = len(bits)
    blocks = []

    def walk(i):
        if i == last:
            yield tuple(blocks)
            return
        bit = bits[i]
        k = len(blocks)
        if k + last - i > min_blocks:
            for j in range(k):
                blocks[j] |= bit
                yield from walk(i + 1)
                blocks[j] ^= bit
        if k < max_blocks:
            blocks.append(bit)
            yield from walk(i + 1)
            blocks.pop()

    if last >= min_blocks:
        yield from walk(0)


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
