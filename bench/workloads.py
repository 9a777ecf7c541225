"""Seeded inputs and op streams for the benchmark workloads.

Every input file is generated here; the program under test only sees those
files. An op is one `convexparts` CLI invocation, described by a stable id
and its argv. Ops marked `jobs_check` are re-run with `--jobs 1` after the
measured rounds, and their documents must match. Ops that are not
`measured` run once, after the measured rounds, for the correctness check
only.

Inputs come from a fixed corpus, drawn once from pseudo-random integers, and
the workload seed transforms it:
- each point set is mapped by its own random affine map: a signed
  permutation of the coordinates and a rational shift;
- each set system and convexity space is written with its members, and the
  elements of each member, in a random order.
Affine maps keep every hull intersection, so the searches, their verdicts
and their LP calls are the same for every seed while the exact rationals the
kernel works on change (their sizes do not: the shift denominators are
fixed). The program reads set systems and convexity spaces into sorted
bitmasks, so the listing order changes the input files but not the work.
A seed therefore moves the numbers, never the amount of search work, which
keeps the spread between runs on different seeds down to timing noise. With
freely drawn point sets the LP calls of search-serial spread by 23%
(interquartile range over the median) across eight seeds; relabelling the
ground sets of the convexity spaces changed the time of single
`verify abstract` ops by up to 2x.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

DEFAULT_SEED = 0

# The trivial op that closes the cold-start measurement (setup_s).
SETUP_ARGV = ["bound-e31", "--d", "1", "--r", "2"]


def _rng(seed, label):
    # str seeds hash through SHA-512, so draws do not depend on PYTHONHASHSEED
    return random.Random(f"convexparts-bench:{seed}:{label}")


def _corpus_rng(label):
    return _rng("corpus", label)


# ------------------------------------------------------------------ corpus

def _corpus_points(label, dim, n):
    """n distinct points with integer coordinates in [-24, 24]."""
    rng = _corpus_rng(f"pts-{label}")
    seen, points = set(), []
    while len(points) < n:
        point = tuple(rng.randint(-24, 24) for _ in range(dim))
        if point not in seen:
            seen.add(point)
            points.append(point)
    return points


def _corpus_set_system(label, n, edges):
    """`edges` distinct random subsets of 0..n-1, each element kept with p=1/2."""
    rng = _corpus_rng(f"sys-{label}")
    seen = set()
    while len(seen) < edges:
        seen.add(tuple(i for i in range(n) if rng.random() < 0.5))
    return sorted(seen)


def _corpus_closed_family(label, n, generators):
    """Intersection closure of random subsets (each element kept with
    p=3/4), plus the empty and full sets."""
    rng = _corpus_rng(f"space-{label}")
    full = (1 << n) - 1
    family = {0, full}
    for _ in range(generators):
        family.add(sum(1 << i for i in range(n) if rng.random() < 0.75))
    grown = True
    while grown:
        grown = False
        for a in list(family):
            for b in list(family):
                if a & b not in family:
                    family.add(a & b)
                    grown = True
    return [tuple(i for i in range(n) if m >> i & 1) for m in sorted(family)]


def _slabs(label, points, parts):
    """Split the points into `parts` slabs along a random direction.

    The projections are distinct, so consecutive slabs have disjoint hulls
    and every separation over them succeeds.
    """
    rng = _corpus_rng(f"slabs-{label}-{parts}")
    n = len(points)
    while True:
        direction = [rng.randint(-5, 5) for _ in range(len(points[0]))]
        keys = [sum(w * c for w, c in zip(direction, p)) for p in points]
        if len(set(keys)) == n:
            break
    order = sorted(range(n), key=keys.__getitem__)
    cuts = sorted(rng.sample(range(1, n), parts - 1))
    bounds = [0] + cuts + [n]
    return [sorted(order[bounds[k]:bounds[k + 1]]) for k in range(parts)]


# ---------------------------------------------------------- seeded images

# Shift denominators per coordinate: the same for every seed, so the size of
# the numbers the kernel works on does not depend on the seed.
_SHIFT_DENOMINATORS = (2, 3, 5)


def _affine_image(points, rng):
    """Image under a random signed coordinate permutation and a rational
    shift with denominators _SHIFT_DENOMINATORS."""
    dim = len(points[0])
    perm = list(range(dim))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(dim)]
    shift = [Fraction(rng.randint(-60, 60), q) for q in _SHIFT_DENOMINATORS[:dim]]
    rows = [[str(signs[i] * p[perm[i]] + shift[i]) for i in range(dim)]
            for p in points]
    return {"dim": dim, "points": rows}


def _shuffled(subsets, rng):
    """The same subsets, listed in a random order with their elements in a
    random order."""
    out = [rng.sample(list(s), len(s)) for s in subsets]
    rng.shuffle(out)
    return out


# ------------------------------------------------------------------ streams

def _csv(indices):
    return ",".join(str(i) for i in indices)


class _Stream:
    """Collects input files and ops for one workload instance."""

    def __init__(self, in_dir: Path, seed):
        self.in_dir = in_dir
        self.seed = seed
        self.ops = []

    def file(self, name, doc):
        path = self.in_dir / f"{name}.json"
        path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
        return str(path)

    def points(self, label, dim, n):
        image = _affine_image(_corpus_points(label, dim, n),
                              _rng(self.seed, f"map-{label}"))
        return self.file(f"pts-{label}", image)

    def op(self, op_id, *argv, jobs_check=False, out=False, measured=True):
        self.ops.append({"id": op_id, "argv": [str(a) for a in argv],
                         "jobs_check": jobs_check, "out": out,
                         "measured": measured})


# search-serial point sets: (label, dim, n)
_SEARCH_SETS = [("d1n6", 1, 6), ("d1n7", 1, 7),
                ("d2n5", 2, 5), ("d2n5-1", 2, 5), ("d2n6", 2, 6), ("d2n7", 2, 7),
                ("d3n5", 3, 5), ("d3n5-1", 3, 5), ("d3n6", 3, 6)]
# two further n = 5 sets drawn the same way, for sweep-pool only
_SHAPES = {label: (dim, n) for label, dim, n in _SEARCH_SETS}
_SHAPES.update({"d2n5-2": (2, 5), "d3n5-2": (3, 5)})

# (op name, subcommand, flags, point-set labels it runs on; None = all)
_SEARCH_OPS = [
    ("radon-s1t1", "radon", ("--s", 1, "--t", 1), None),
    ("radon-s2t1", "radon", ("--s", 2, "--t", 1),
     ("d1n6", "d1n7", "d2n6", "d2n7", "d3n5", "d3n5-1")),
    ("radon-s2t2", "radon", ("--s", 2, "--t", 2),
     ("d1n6", "d1n7", "d2n5", "d2n5-1", "d3n5", "d3n5-1")),
    ("tverberg-s1", "tverberg", ("--r", 3, "--s", 1),
     ("d1n6", "d1n7", "d2n5", "d2n5-1", "d2n6", "d3n5", "d3n5-1", "d3n6")),
    ("tverberg-s2", "tverberg", ("--r", 3, "--s", 2),
     ("d1n6", "d2n5", "d2n5-1", "d3n5", "d3n5-1")),
]

# sweep-pool searches, all exhausted: 24 short ones (about 0.1 s each) and
# 12 long ones (0.3-0.6 s), so the median and the tail percentile each fall
# inside a group of similar ops.
_N5 = ("d2n5", "d2n5-1", "d2n5-2", "d3n5", "d3n5-1", "d3n5-2")
_SWEEP_OPS = [
    ("tverberg-r3s1", "tverberg", ("--r", 3, "--s", 1), _N5),
    ("tverberg-r3s2", "tverberg", ("--r", 3, "--s", 2), _N5),
    ("tverberg-r4s1", "tverberg", ("--r", 4, "--s", 1), _N5),
    ("tverberg-r4s2", "tverberg", ("--r", 4, "--s", 2), _N5),
    ("radon-s2t2", "radon", ("--s", 2, "--t", 2), _N5),
    ("radon-s2t1", "radon", ("--s", 2, "--t", 1), ("d3n5", "d3n5-1", "d3n5-2")),
    ("tverberg-r3s1", "tverberg", ("--r", 3, "--s", 1), ("d2n6", "d3n6")),
    ("tverberg-r3s2", "tverberg", ("--r", 3, "--s", 2), ("d1n6",)),
]

# sweep-pool searches that find a partition, not measured: run at --jobs 2
# and at --jobs 1 for the correctness check only, since the measured ones
# are all exhausted. `_first_hit` evaluates candidates in chunks of 8 at
# --jobs 2 and must return the earliest hit. The first hits are candidates
# 8 (10 and 15 are hits too), 8, 12, 12 and 74, beyond the first chunk, and
# 6 (7 is a hit too), inside it.
_SWEEP_CHECKS = [
    ("radon-s2t2", "radon", ("--s", 2, "--t", 2), "d1n7"),
    ("radon-s1t1", "radon", ("--s", 1, "--t", 1), "d3n5"),
    ("radon-s1t1", "radon", ("--s", 1, "--t", 1), "d3n5-1"),
    ("radon-s2t1", "radon", ("--s", 2, "--t", 1), "d2n6"),
    ("tverberg-r3s1", "tverberg", ("--r", 3, "--s", 1), "d2n7"),
    ("radon-s1t1", "radon", ("--s", 1, "--t", 1), "d2n5-1"),
]


# shatter-combinatorics convexity spaces: (n, generators, draw). Each
# `verify abstract --r 3` on them takes 30-90 ms, the cost of the r = 2
# shatter ops, so that the median op falls inside that group of 32 ops.
_SPACES = [(10, 16, 1), (10, 16, 7), (10, 20, 1), (10, 20, 2), (10, 20, 3),
           (10, 20, 5), (10, 20, 6), (10, 20, 7), (11, 16, 3), (11, 16, 4),
           (11, 16, 5), (11, 16, 6), (11, 20, 0), (11, 20, 1), (11, 20, 4),
           (11, 20, 6)]


def search_serial(stream):
    files = {label: stream.points(label, dim, n) for label, dim, n in _SEARCH_SETS}
    for name, command, flags, labels in _SEARCH_OPS:
        for label in labels or files:
            stream.op(f"{name}-{label}", command, "--input", files[label],
                      *flags, out=True)
    for label, dim, n in _SEARCH_SETS:
        base = _corpus_points(label, dim, n)
        a, b = _slabs(label, base, 2)
        for s, t in ((1, 1), (2, 1), (2, 2)):
            stream.op(f"separate-{label}-s{s}t{t}", "separate", "--input",
                      files[label], "--a", _csv(a), "--b", _csv(b),
                      "--s", s, "--t", t, out=True)
        parts = _slabs(label, base, 3)
        stream.op(f"build-separation-{label}", "build-separation", "--input",
                  files[label], "--parts", ";".join(_csv(p) for p in parts),
                  "--s", 2, out=True)


def sweep_pool(stream):
    files = {}
    for name, command, flags, labels in _SWEEP_OPS:
        for label in labels:
            if label not in files:
                files[label] = stream.points(label, *_SHAPES[label])
            stream.op(f"{name}-{label}", command, "--input", files[label],
                      *flags, "--jobs", 2, jobs_check=True)
    stream.op("verify-t42-d1s5r4", "verify", "t42", "--d", 1, "--s", 5,
              "--r", 4, "--jobs", 2)
    for name, command, flags, label in _SWEEP_CHECKS:
        if label not in files:
            files[label] = stream.points(label, *_SHAPES[label])
        stream.op(f"check-{name}-{label}", command, "--input", files[label],
                  *flags, "--jobs", 2, jobs_check=True, measured=False)


def shatter_combinatorics(stream):
    systems = {}
    for label, dim, n, closure in (("d2n8", 2, 8, ("--t", 2)),
                                   ("d3n8", 3, 8, ("--s", 2))):
        f = stream.points(label, dim, n)
        for tag, extra in (("plain", ()), (closure[0][2:] + "2", closure)):
            name = f"sys-{label}-{tag}"
            stream.op(f"traces-{label}-{tag}", "traces", "--input", f, *extra,
                      "--out-dir", stream.in_dir / name)
            systems[name] = str(stream.in_dir / name / "system.json")
    for n, count in ((8, 24), (8, 32), (9, 30), (9, 36)):
        label = f"n{n}e{count}"
        edges = _shuffled(_corpus_set_system(label, n, count),
                          _rng(stream.seed, f"order-{label}"))
        systems[f"sys-{label}"] = stream.file(f"sys-{label}",
                                              {"n": n, "edges": edges})
    for name, f in systems.items():
        stream.op(f"vcdim-{name}", "vcdim", "--input", f)
        stream.op(f"shatter-{name}", "shatter", "--input", f)
        stream.op(f"verify-sauer-{name}", "verify", "sauer", "--input", f)
        for r in (2, 3):
            stream.op(f"rshatter-{name}-r{r}", "rshatter", "--input", f, "--r", r)
        stream.op(f"rvcdim-{name}-r2", "rvcdim", "--input", f, "--r", 2)
        stream.op(f"verify-rshatter-{name}-r2", "verify", "rshatter",
                  "--input", f, "--r", 2)
    for n, generators, k in _SPACES:
        label = f"{n}-{generators}-{k}"
        family = _shuffled(_corpus_closed_family(label, n, generators),
                           _rng(stream.seed, f"order-space-{label}"))
        f = stream.file(f"space-{label}", {"n": n, "family": family})
        stream.op(f"verify-abstract-{label}", "verify", "abstract", "--input", f,
                  "--r", 3)


WORKLOADS = {
    "search-serial": search_serial,
    "sweep-pool": sweep_pool,
    "shatter-combinatorics": shatter_combinatorics,
}


def build(workload: str, seed: int, in_dir: Path) -> list:
    """Write the workload's input files under in_dir and return its ops."""
    in_dir.mkdir(parents=True, exist_ok=True)
    stream = _Stream(in_dir, seed)
    WORKLOADS[workload](stream)
    return stream.ops
