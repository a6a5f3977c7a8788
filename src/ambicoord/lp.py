"""Exact two-phase simplex on an integer tableau, with a checked certificate.

Each row and the objective are scaled to integers, and the tableau is
pivoted fraction-free (Edmonds 1967, Bareiss 1968): every entry is an
integer over one shared positive denominator `d`, the previous pivot, and
each update `(p*a - f*b) // d` divides exactly.  A `>=` row whose
right-hand side is at most 0 is negated so that its surplus starts in the
basis; only `=` rows and `>=` rows with a positive right-hand side get an
artificial variable.  The reduced-cost rows of both phases are pivoted with
the tableau.  Bland's smallest-index rule picks entering and leaving
variables, so the degenerate polytopes of equilibrium problems cannot
cycle.

The duals are read off the final reduced-cost row at the columns that
formed the starting identity, and every result is checked against the
original data before it is returned: primal and dual feasibility and equal
objective values prove the vertex optimal.  No floats anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

Row = Sequence[Fraction]


class Infeasible(Exception):
    """The constraint set is empty."""


class Unbounded(Exception):
    """The objective is unbounded above on the feasible set."""


class CertificateError(ArithmeticError):
    """A computed solution failed its optimality certificate (a solver fault)."""


def maximize(
    c: Sequence[Fraction],
    eq_rows: Sequence[tuple[Row, Fraction]] = (),
    ge_rows: Sequence[tuple[Row, Fraction]] = (),
) -> tuple[Fraction, list[Fraction]]:
    """Maximize c.x subject to eq rows (a.x == b), ge rows (a.x >= b), x >= 0.

    Returns (optimal value, x at an optimal vertex), all exact, after
    checking the vertex's optimality certificate.
    Raises Infeasible or Unbounded.
    """
    x, y = _simplex(c, eq_rows, ge_rows)
    return check_certificate(c, eq_rows, ge_rows, x, y), x


def check_certificate(
    c: Sequence[Fraction],
    eq_rows: Sequence[tuple[Row, Fraction]],
    ge_rows: Sequence[tuple[Row, Fraction]],
    x: Sequence[Fraction],
    y: Sequence[Fraction],
) -> Fraction:
    """Prove x optimal with the duals y (one per row, eq rows first).

    Checks x >= 0 and every row, y <= 0 on ge rows, A^T y >= c and
    b.y == c.x in exact arithmetic, and returns c.x.
    Raises CertificateError if any of them fails.
    """
    rows = list(eq_rows) + list(ge_rows)
    if len(x) != len(c) or len(y) != len(rows):
        raise CertificateError("certificate has the wrong shape")
    if any(v < 0 for v in x):
        raise CertificateError("primal solution has a negative entry")
    for k, (a, b) in enumerate(rows):
        lhs = sum((v * xv for v, xv in zip(a, x) if v), Fraction(0))
        if lhs < b or (k < len(eq_rows) and lhs != b):
            raise CertificateError(f"primal solution violates row {k}")
    if any(yk > 0 for yk in y[len(eq_rows):]):
        raise CertificateError("dual solution is positive on a >= row")
    for j, cj in enumerate(c):
        if sum((yk * a[j] for yk, (a, _) in zip(y, rows) if yk and a[j]), Fraction(0)) < cj:
            raise CertificateError(f"dual solution violates column {j}")
    value = sum((cj * xj for cj, xj in zip(c, x) if cj), Fraction(0))
    if sum((yk * b for yk, (_, b) in zip(y, rows) if yk), Fraction(0)) != value:
        raise CertificateError("primal and dual objective values differ")
    return value


def _simplex(c, eq_rows, ge_rows) -> tuple[list[Fraction], list[Fraction]]:
    """Optimal primal vertex x and the duals y of all rows, eq rows first."""
    n = len(c)
    n_eq = len(eq_rows)
    n_ge = len(ge_rows)
    rows = list(eq_rows) + list(ge_rows)
    m = len(rows)

    # Scale each row to integers (by `scale`, times -1 where `sign` says).
    # Columns: x, the surplus of each ge row, the artificials, the rhs.
    ints = []
    scale = []
    sign = []
    starts = []  # whether the row's surplus starts in the basis
    for k, (a, b) in enumerate(rows):
        if len(a) != n:
            raise ValueError(("equality" if k < n_eq else "inequality") + " row length mismatch")
        fr = [Fraction(v) for v in a] + [Fraction(b)]
        s = lcm(*(v.denominator for v in fr))
        row = [v.numerator * (s // v.denominator) for v in fr]
        starts.append(k >= n_eq and row[-1] <= 0)
        flip = row[-1] < 0 or starts[-1]
        scale.append(s)
        sign.append(-1 if flip else 1)
        ints.append([-v for v in row] if flip else row)

    n_art = m - sum(starts)
    art0 = n + n_ge  # first artificial column
    width = art0 + n_art + 1
    artificials = iter(range(art0, width - 1))
    tab = []
    ident = []  # the column of the starting identity in each row
    for k, row in enumerate(ints):
        full = row[:-1] + [0] * (width - n - 1) + [row[-1]]
        if k >= n_eq:
            # the surplus is rescaled with its row, so its coefficient stays
            # -1 until the row's sign flip
            full[n + k - n_eq] = -sign[k]
        ident.append(n + k - n_eq if starts[k] else next(artificials))
        full[ident[-1]] = 1
        tab.append(full)
    basis = list(ident)

    fc = [Fraction(v) for v in c]
    c_scale = lcm(*(v.denominator for v in fc))
    cost = [v.numerator * (c_scale // v.denominator) for v in fc] + [0] * (width - n)
    objs = [cost]
    d = 1
    if n_art:
        # phase 1: maximize -(sum of artificials); its reduced-cost row is
        # the sum of the artificial rows off the artificial columns
        infeas = [0] * width
        for row, var in zip(tab, basis):
            if var >= art0:
                infeas = [u + v for u, v in zip(infeas, row)]
        infeas[art0:-1] = [0] * n_art
        objs.append(infeas)
        d = _run(tab, basis, objs, d, art0)
        if objs.pop()[-1] > 0:
            raise Infeasible
        d = _drive_out_artificials(tab, basis, objs, d, art0)
    d = _run(tab, basis, objs, d, art0)

    x = [Fraction(0)] * n
    for row, var in zip(tab, basis):
        if var < n:
            x[var] = Fraction(row[-1], d)
    # the reduced cost at identity column k is -y_k in the scaled problem
    cost = objs[0]
    y = [Fraction(-cost[ident[k]] * sign[k] * scale[k], d * c_scale) for k in range(m)]
    return x, y


def _run(tab, basis, objs, d, enter_limit):
    """Pivot on objs[-1] until optimal, by Bland's smallest-index rule."""
    while True:
        obj = objs[-1]
        col = next((j for j in range(enter_limit) if obj[j] > 0), -1)
        if col < 0:
            return d
        leaving = -1
        for i, row in enumerate(tab):
            coef = row[col]
            if coef > 0:
                if leaving < 0:
                    leaving, num, den = i, row[-1], coef
                    continue
                lhs, rhs = row[-1] * den, num * coef
                if lhs < rhs or lhs == rhs and basis[i] < basis[leaving]:
                    leaving, num, den = i, row[-1], coef
        if leaving < 0:
            raise Unbounded
        d = _pivot(tab, basis, objs, d, leaving, col)


def _pivot(tab, basis, objs, d, r, col):
    """Fraction-free pivot on tab[r][col] > 0; returns the new denominator."""
    prow = tab[r]
    p = prow[col]
    for rows in (tab, objs):
        for i, row in enumerate(rows):
            if row is prow:
                continue
            f = row[col]
            if f:
                rows[i] = [(p * a - f * b) // d for a, b in zip(row, prow)]
            elif p != d:
                rows[i] = [p * a // d for a in row]
    basis[r] = col
    return p


def _drive_out_artificials(tab, basis, objs, d, art0):
    """Pivot zero-level artificials out of the basis; drop redundant rows."""
    for i in range(len(basis) - 1, -1, -1):
        if basis[i] < art0:
            continue
        row = tab[i]
        col = next((j for j in range(art0) if row[j]), -1)
        if col < 0:
            del tab[i]
            del basis[i]
            continue
        if row[col] < 0:
            # the row's rhs is 0 and its basic artificial leaves, so the
            # row may be negated to keep the pivot, hence d, positive
            tab[i] = [-v for v in row]
        d = _pivot(tab, basis, objs, d, i, col)
    return d
