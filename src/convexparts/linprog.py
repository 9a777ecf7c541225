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

The tableau is kept in Python ints with integer-preserving pivots (Edmonds
1967; Bareiss 1968). The starting tableau is multiplied by L, the lcm of
every input denominator, and one divisor D starts at 1. A pivot on entry p
of row r leaves row r as it is, replaces every other row and the objective
row entrywise by (p*v - f*q) // D, with f that row's entry in the pivot
column and q the pivot row's entry in v's column, and sets D = p. Read
against a start matrix that has an extra identity block for the starting
basis, each entry is then D times an entry of B^-1 times that matrix, with
D = det B: a minor of the integer start matrix by Cramer's rule. So the
division is exact, and entries are bounded by those minors with no gcd
taken. An entry stands for the value entry / (D * L) in a row that has
never been a pivot row and in the objective row, and entry / D in a row
that has.

D stays positive: the ratio test pivots only on entries whose value is
positive, and each value has the sign of its entry while D > 0. For the
same reason the entering test reads the objective row's signs unchanged,
and the ratio rhs_i / coef_i of a row is the ratio of its two entries,
whatever its divisor, so the ratio test compares rhs_i * coef_k with
rhs_k * coef_i. The pivot sequence is therefore exactly the one the same
rule takes over `Rat`, and the point or raw Farkas vector it returns, built
with one `Rat(num, den)` per coordinate, is the same rational vector.
Everything around the kernel (normalization, the `_satisfies` check, the
Farkas scaling and `check_farkas`) stays on `Rat`, so every outcome is
still verified by an independent path.
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


def normalize_rows(constraints):
    """The documented '>=' row list; equality constraints expand to a +/- pair."""
    rows = []
    for coeffs, rel, rhs in constraints:
        a = tuple(Rat(c) for c in coeffs)
        b = Rat(rhs)
        if rel == REL_GE:
            rows.append((a, b))
        elif rel == REL_LE:
            rows.append((tuple(-c for c in a), -b))
        elif rel == REL_EQ:
            rows.append((a, b))
            rows.append((tuple(-c for c in a), -b))
        else:
            raise InputError(f"unknown relation {rel!r}")
    return rows


def check_farkas(constraints, farkas, nonneg: bool = False) -> bool:
    """Re-verify an infeasibility certificate with one exact product."""
    rows = normalize_rows(constraints)
    if len(farkas) != len(rows):
        return False
    y = [Rat(v) for v in farkas]
    if any(v < 0 for v in y):
        return False
    nvars = len(rows[0][0]) if rows else 0
    combo = [ZERO] * nvars
    for yi, (a, _) in zip(y, rows):
        if yi:
            for j, aj in enumerate(a):
                combo[j] += yi * aj
    if nonneg:
        if any(cj > 0 for cj in combo):
            return False
    else:
        if any(cj != 0 for cj in combo):
            return False
    value = sum((yi * b for yi, (_, b) in zip(y, rows)), ZERO)
    return value > 0


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

    rows = normalize_rows(constraints)
    if not rows:
        return LPOutcome(True, (ZERO,) * nvars, None, nonneg)

    order = sorted(range(len(rows)), key=lambda i: rows[i])
    sorted_rows = [rows[i] for i in order]

    ok, payload = _phase1(sorted_rows, nvars, nonneg)
    if ok:
        x = payload
        if not _satisfies(rows, x, nonneg):
            raise InternalInvariantError("simplex returned a non-solution")
        return LPOutcome(True, tuple(x), None, nonneg)

    farkas = [ZERO] * len(rows)
    for pos, yi in enumerate(payload):
        farkas[order[pos]] = yi
    value = sum((yi * b for yi, (_, b) in zip(farkas, rows)), ZERO)
    if value <= 0:
        raise InternalInvariantError("Farkas vector has nonpositive value")
    farkas = tuple(yi / value for yi in farkas)
    if not check_farkas(constraints, farkas, nonneg):
        raise InternalInvariantError("Farkas vector failed re-check")
    return LPOutcome(False, None, farkas, nonneg)


def _satisfies(rows, x, nonneg) -> bool:
    if nonneg and any(v < 0 for v in x):
        return False
    for a, b in rows:
        if sum((ai * xi for ai, xi in zip(a, x)), ZERO) < b:
            return False
    return True


def _phase1(rows, nvars, nonneg):
    """Feasibility of {a.x >= b for (a, b) in rows}.

    Returns (True, x) or (False, y) with y a raw Farkas vector over `rows`.
    Standard form: x split into u - v unless nonneg, one surplus per row,
    one artificial per row; minimize the artificial sum. The tableau is kept
    in integers as described in the module docstring.
    """
    m = len(rows)
    width = nvars if nonneg else 2 * nvars
    nstruct = width + m
    ncols = nstruct + m

    # rows scaled so the rhs is nonnegative; sigma remembers the flips
    sigma = [1 if b >= 0 else -1 for _, b in rows]
    fracs = [[(v.numerator, v.denominator) for v in (*a, b)] for a, b in rows]
    scale = lcm(*(den for row in fracs for _, den in row))

    tab = []
    for i, row_fracs in enumerate(fracs):
        s = sigma[i] * scale
        row = [0] * (ncols + 1)
        for j, (num, den) in enumerate(row_fracs[:-1]):
            if num:
                row[j] = v = s * num // den
                if not nonneg:
                    row[nvars + j] = -v
        num, den = row_fracs[-1]
        row[width + i] = -s
        row[nstruct + i] = scale
        row[-1] = s * num // den
        tab.append(row)

    # reduced costs for the all-artificial starting basis, times the scale;
    # kept as row m, which every pivot updates and none pivots on
    obj = [-sum(col) for col in zip(*tab)]
    for i in range(m):
        obj[nstruct + i] += scale
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
        # row i's ratio is tab[i][-1] / tab[i][enter]: its divisor cancels
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
        # a row with a structural basis variable has been a pivot row, so
        # its divisor is D alone
        w = [ZERO] * nstruct
        for i, bi in enumerate(basis):
            if bi < nstruct:
                w[bi] = Rat(tab[i][-1], div)
        if nonneg:
            x = w[:nvars]
        else:
            x = [w[j] - w[nvars + j] for j in range(nvars)]
        return True, x

    # dual off the artificial reduced costs, unscaled back through sigma
    den = div * scale
    y = [Rat(sigma[i] * (den - obj[nstruct + i]), den) for i in range(m)]
    return False, y


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
