"""Deterministic counter-based random draws.

Draw k is SHA-256(seed || ':' || counter), so any draw can be addressed by
index without materializing predecessor state, and the same seed and stream
give the same draws on any machine.
"""

from __future__ import annotations

import hashlib

from .rational import Rat


class CounterRng:
    def __init__(self, seed: int, stream: str = ""):
        self._prefix = f"{seed}:{stream}:".encode()
        self._counter = 0

    def _next_u64(self) -> int:
        digest = hashlib.sha256(self._prefix + str(self._counter).encode()).digest()
        self._counter += 1
        return int.from_bytes(digest[:8], "big")

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], rejection-sampled to avoid modulo bias."""
        if hi < lo:
            raise ValueError("empty range")
        span = hi - lo + 1
        # largest multiple of span below 2^64
        limit = (1 << 64) - ((1 << 64) % span)
        while True:
            u = self._next_u64()
            if u < limit:
                return lo + u % span

    def rat(self, num_bound: int = 256, den: int = 16) -> "Rat":
        """Rational with numerator in [-num_bound, num_bound] over a fixed denominator."""
        return Rat(self.randint(-num_bound, num_bound), den)

    def distinct_points(self, n: int, d: int) -> list:
        """n distinct points of d coordinates rat(64, 8), in draw order."""
        points, seen = [], set()
        while len(points) < n:
            p = tuple(self.rat(64, 8) for _ in range(d))
            if p not in seen:
                seen.add(p)
                points.append(p)
        return points
