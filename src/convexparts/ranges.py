"""Trace families cut out of point sets by halfspaces and their combinations.

A subset S is a halfspace trace iff conv(S) and conv(P \\ S) are disjoint,
that is, iff no circuit of P lies across it, read off the circuit table of
P with no LP. Closing under <= t intersections gives traces
of polyhedra with at most t facets; closing that under <= s unions gives the
range space whose shattering behavior the partition oracles care about.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceeded, InputError
from .geometry import PointSet, circuit_table, uncrossed_masks
from .setsystems import SetSystem, set_system

_TRACE_POINTS = 18  # bounds the circuit table too: sum of C(n, k) < 2^n


@dataclass(frozen=True)
class TraceFamily:
    points: PointSet
    traces: tuple          # sorted distinct bit masks
    provenance: str

    def __len__(self) -> int:
        return len(self.traces)

    def to_set_system(self) -> SetSystem:
        return set_system(len(self.points), self.traces)


def halfspace_traces(ps: PointSet) -> TraceFamily:
    """Every subset separable from its complement, empty and full included.

    conv(S) and conv(P\\S) meet iff some circuit has C+ inside S and C-
    outside it, so the traces are the masks no circuit lies across, built
    up one point at a time from the circuit table, with no LP.
    """
    n = len(ps.points)
    if n > _TRACE_POINTS:
        raise CapExceeded("halfspace_traces_points", _TRACE_POINTS, n)
    table = circuit_table(ps, range(n))
    return TraceFamily(ps, uncrossed_masks(n, table.signed), "halfspace")


def _close(tf: TraceFamily, depth: int, op, seed_extra: int, tag: str, cap: int) -> TraceFamily:
    base = set(tf.traces)
    closed = base | {seed_extra}
    frontier = set(base)
    for _ in range(depth - 1):
        new = set()
        for a in frontier:
            for b in base:
                c = op(a, b)
                if c not in closed and c not in new:
                    new.add(c)
        if not new:
            break
        closed |= new
        if len(closed) > cap:
            raise CapExceeded(tag, cap, len(closed))
        frontier = new
    return TraceFamily(tf.points, tuple(sorted(closed)), f"{tag}({tf.provenance})")


def intersect_close(tf: TraceFamily, t: int, cap: int = 10**6) -> TraceFamily:
    """Intersections of up to t member traces, plus the full set.

    The full set is the empty intersection: it is the trace of a polyhedron
    with zero facets, so families stay aligned with "<= t facet" semantics.
    """
    if t < 1:
        raise InputError("t must be at least 1")
    full = (1 << len(tf.points)) - 1
    return _close(tf, t, int.__and__, full, f"intersect<={t}", cap)


def union_close(tf: TraceFamily, s: int, cap: int = 10**6) -> TraceFamily:
    """Unions of up to s member traces, plus the empty set (the empty union)."""
    if s < 1:
        raise InputError("s must be at least 1")
    return _close(tf, s, int.__or__, 0, f"union<={s}", cap)

