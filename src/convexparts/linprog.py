"""Exact rational linear feasibility with re-checkable certificates.

No optimization objectives live here on purpose: every geometric question in
this package reduces to "is this linear system satisfiable", answered exactly.

A constraint is (coeffs, rel, rhs) with rel one of '<=', '>=', '=='. Systems
are normalized to a documented list of '>=' rows before solving:

    a.x >= b  ->  (a, b)
    a.x <= b  ->  (-a, -b)
    a.x == b  ->  (a, b) followed by (-a, -b)

in input order. An Infeasible outcome carries a nonnegative Farkas vector y
over the normalized rows, scaled so sum(y_i * b_i) = 1, with

    sum(y_i * a_i) == 0   componentwise            (free variables)
    sum(y_i * a_i) <= 0   componentwise            (nonneg=True: variables >= 0)

either of which makes the row combination 0.x >= 1 (resp. (<=0).x >= 1 over
x >= 0), an immediate contradiction checkable by one matrix-vector product.

The solver is phase-1 simplex with Bland's anti-cycling rule (lowest eligible
column enters; ties on the ratio test break toward the lowest basis variable).
Normalized rows are sorted lexicographically before solving, so outcomes are
invariant under permutation of the input constraints; the Farkas vector is
mapped back to input row order on return.

Normalization reads each coefficient's numerator and denominator once and
returns the documented rows times L, the lcm of every denominator, as
Python ints, in the same order and with the same signs. Since L > 0 these
integer rows sort in the same order as the rational ones, and every check
below holds for them exactly when it holds for the rational rows.

The tableau is kept in Python ints with integer-preserving pivots (Edmonds
1967; Bareiss 1968). The start matrix is the sorted integer rows, each
sign-flipped to a nonnegative rhs, with one surplus column (entry -1 times
the flip) and one unit artificial column per row; one divisor D starts at
1. A pivot on entry p of row r leaves row r as it is, replaces every other
row and the objective row entrywise by (p*v - f*q) // D, with f that row's
entry in the pivot column and q the pivot row's entry in v's column, and
sets D = p. Every entry is then D times an entry of B^-1 times the start
matrix, with D = det B: a minor of the integer start matrix by Cramer's
rule. So the division is exact, every entry stands for the value entry / D,
and entries are bounded by those minors with no gcd taken.

D stays positive: the ratio test pivots only on entries whose value is
positive, and each value has the sign of its entry while D > 0. For the
same reason the entering test reads the objective row's signs unchanged,
and the ratio test compares rhs_i * coef_k with rhs_k * coef_i. Scaling a
row or a column by a positive factor changes neither those signs nor the
order of the ratios, so the pivot sequence is exactly the one the same rule
takes over the rational rows, and the point is the same rational vector.
Against the rational rows, the surplus and artificial variables are scaled
by L and so is the artificial sum, which leaves the simplex multipliers, and
with them the artificial reduced costs that the Farkas vector is read
from, unchanged: it too is the same rational vector.

The kernel returns integer numerators over D. Both re-checks run in int
arithmetic on the unsorted integer rows, re-derived from the input and
independent of the tableau: a point X / D must give sum(a_ij * X_j) >=
b_i * D on every row (and X >= 0 when nonneg); a Farkas vector y must be
nonnegative with sum(y_i * a_i) == 0 (<= 0 when nonneg) and
sum(y_i * b_i) > 0. `check_farkas` scales a rational vector to integers by
the lcm of its denominators and asks the same question. One `Rat` is built
per returned coordinate, and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .errors import InputError, InternalInvariantError
from .rational import ZERO, Rat

REL_GE = ">="
REL_LE = "<="
REL_EQ = "=="


@dataclass(frozen=True)
class LPOutcome:
    feasible: bool
    solution: tuple | None       # exact point, None when infeasible
    farkas: tuple | None         # over normalized rows, None when feasible
    nonneg: bool                 # variables implicitly >= 0

    def __bool__(self) -> bool:
        return self.feasible


def normalize(constraints):
    """The documented '>=' rows times L, the lcm of every denominator: (rows, L).

    Each row is (a, b) with a a tuple of ints; equality constraints expand to
    a +/- pair.
    """
    shapes, values = [], []
    for coeffs, rel, rhs in constraints:
        if rel not in (REL_GE, REL_LE, REL_EQ):
            raise InputError(f"unknown relation {rel!r}")
        shapes.append((len(coeffs), rel))
        values.extend(coeffs)
        values.append(rhs)
    ints, scale = _scaled(values)
    rows = []
    pos = 0
    for width, rel in shapes:
        a, b = tuple(ints[pos:pos + width]), ints[pos + width]
        pos += width + 1
        if rel != REL_LE:
            rows.append((a, b))
        if rel != REL_GE:
            rows.append((tuple(-v for v in a), -b))
    return rows, scale


def _scaled(values):
    """The values times L, the lcm of their denominators, as ints: (ints, L).

    Each value's numerator and denominator are read once.
    """
    nums, dens = [], []
    for v in values:
        if v.__class__ is int:
            nums.append(v)
            dens.append(1)
            continue
        try:
            num, den = v.numerator, v.denominator
        except AttributeError:
            v = Rat(v)
            num, den = v.numerator, v.denominator
        nums.append(num)
        dens.append(den)
    scale = lcm(*set(dens))
    if scale == 1:
        return nums, 1
    return [num * (scale // den) for num, den in zip(nums, dens)], scale


def check_farkas(constraints, farkas, nonneg: bool = False) -> bool:
    """Re-verify an infeasibility certificate with one exact product."""
    rows, _ = normalize(constraints)
    y, _ = _scaled(farkas)
    return _farkas_value(rows, y, nonneg) > 0


def lp_feasible(constraints, nvars: int | None = None, nonneg: bool = False) -> LPOutcome:
    """Decide satisfiability of a rational linear system, with certificate.

    nonneg=True treats every variable as implicitly >= 0 (smaller tableaux for
    convex-combination systems); the Farkas condition weakens to <= 0 per
    coordinate as documented above.
    """
    constraints = list(constraints)
    widths = {len(c[0]) for c in constraints}
    if len(widths) > 1:
        raise InputError(f"inconsistent constraint widths {sorted(widths)}")
    if nvars is None:
        if not widths:
            raise InputError("cannot infer variable count from an empty system")
        nvars = widths.pop()
    elif widths and widths.pop() != nvars:
        raise InputError("constraint width disagrees with nvars")

    rows, scale = normalize(constraints)
    if not rows:
        return LPOutcome(True, (ZERO,) * nvars, None, nonneg)

    order = sorted(range(len(rows)), key=rows.__getitem__)
    ok, nums, div = _phase1([rows[i] for i in order], nvars, nonneg)
    if ok:
        if not _solves(rows, nums, div, nonneg):
            raise InternalInvariantError("simplex returned a non-solution")
        return LPOutcome(True, tuple(Rat(v, div) for v in nums), None, nonneg)

    y = [0] * len(rows)
    for pos, yi in enumerate(nums):
        y[order[pos]] = yi
    # the integer rows are L times the rational ones, so y * L / value sums
    # the rational rows to value 1
    value = _farkas_value(rows, y, nonneg)
    if value <= 0:
        raise InternalInvariantError("Farkas vector failed re-check")
    return LPOutcome(False, None, tuple(Rat(yi * scale, value) for yi in y), nonneg)


def _solves(rows, x, div, nonneg) -> bool:
    """Whether x / div satisfies every integer row (and x >= 0 when nonneg)."""
    if div <= 0 or nonneg and any(v < 0 for v in x):
        return False
    for a, b in rows:
        if sum(ai * xi for ai, xi in zip(a, x)) < b * div:
            return False
    return True


def _farkas_value(rows, y, nonneg) -> int:
    """sum(y_i * b_i) when y certifies the integer rows infeasible, else 0."""
    if len(y) != len(rows) or any(v < 0 for v in y):
        return 0
    combo = [0] * (len(rows[0][0]) if rows else 0)
    value = 0
    for yi, (a, b) in zip(y, rows):
        if yi:
            for j, aj in enumerate(a):
                combo[j] += yi * aj
            value += yi * b
    if any(c > 0 for c in combo) if nonneg else any(combo):
        return 0
    return max(value, 0)


def _phase1(rows, nvars, nonneg):
    """Feasibility of {a.x >= b for (a, b) in rows}, over integer rows.

    Returns (True, x, D) or (False, y, D): integer numerators over the common
    divisor D of a point, or of a raw Farkas vector over `rows`. Standard
    form: x split into u - v unless nonneg, one surplus per row, one
    artificial per row; minimize the artificial sum. The tableau is kept in
    integers as described in the module docstring.
    """
    m = len(rows)
    width = nvars if nonneg else 2 * nvars
    nstruct = width + m
    ncols = nstruct + m

    # rows flipped so the rhs is nonnegative; sigma remembers the flips
    sigma = [1 if b >= 0 else -1 for _, b in rows]

    tab = []
    for i, (a, b) in enumerate(rows):
        s = sigma[i]
        row = [0] * (ncols + 1)
        for j, v in enumerate(a):
            if v:
                row[j] = v = s * v
                if not nonneg:
                    row[nvars + j] = -v
        row[width + i] = -s
        row[nstruct + i] = 1
        row[-1] = s * b
        tab.append(row)

    # reduced costs for the all-artificial starting basis, kept as row m,
    # which every pivot updates and none pivots on
    obj = [-sum(col) for col in zip(*tab)]
    for i in range(m):
        obj[nstruct + i] += 1
    tab.append(obj)

    basis = [nstruct + i for i in range(m)]
    div = 1

    while True:
        obj = tab[m]
        enter = -1
        for j in range(ncols):
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        # row i's ratio is tab[i][-1] / tab[i][enter]: the divisor cancels
        leave = -1
        for i in range(m):
            coef = tab[i][enter]
            if coef > 0:
                rhs = tab[i][-1]
                if leave < 0 or rhs * best_coef < best_rhs * coef or (
                        rhs * best_coef == best_rhs * coef and basis[i] < basis[leave]):
                    leave, best_rhs, best_coef = i, rhs, coef
        if leave < 0:
            raise InternalInvariantError("phase-1 objective unbounded")
        div = _pivot(tab, leave, enter, div)
        basis[leave] = enter

    if obj[-1] > 0:
        raise InternalInvariantError("negative phase-1 objective")

    if obj[-1] == 0:
        w = [0] * nstruct
        for i, bi in enumerate(basis):
            if bi < nstruct:
                w[bi] = tab[i][-1]
        if nonneg:
            x = w[:nvars]
        else:
            x = [w[j] - w[nvars + j] for j in range(nvars)]
        return True, x, div

    # dual off the artificial reduced costs, unscaled back through sigma
    y = [sigma[i] * (div - obj[nstruct + i]) for i in range(m)]
    return False, y, div


def _pivot(tab, r, c, div):
    """One integer-preserving pivot on (r, c); returns the new divisor."""
    prow = tab[r]
    piv = prow[c]
    for i, row in enumerate(tab):
        if i != r:
            f = row[c]
            if f:
                tab[i] = [(piv * v - f * p) // div for v, p in zip(row, prow)]
            elif piv != div:
                tab[i] = [piv * v // div for v in row]
    return piv
