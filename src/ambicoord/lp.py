"""Exact dual simplex on a condensed integer tableau, with a checked
certificate, for the one LP the library poses: maximize c.x over the
probability simplex (x >= 0, sum(x) == 1) subject to a.x >= 0 for each row a.
It is the shape of the correlated-equilibrium constraints that
`games.solve_ce` builds.

Rows and objective are scaled to integers, each by the lcm of its
denominators; a row or objective of ints is taken as it is, so a caller that
builds them in integers pays no `Fraction` per entry, and `maximize` returns
the value of the LP it was given.  The tableau is condensed (a
dictionary, as in lrs): a basic column is a multiple of a unit vector, so
only the nonbasic columns and the right-hand side are stored, with a
`nonbasic` label list next to `basis`.  Pivots are fraction-free (Edmonds
1967, Bareiss 1968): every entry is an integer over one positive denominator
`d`, the previous pivot.  A pivot on (r, s) with pivot p turns every other
row, the reduced-cost row included, into `(p*a - f*b) // d`, which divides
exactly, with `-f` in column s; the pivot row gets `d` in column s; and
`basis[r]` and `nonbasic[s]` swap labels.

Row 0 is the simplex row, with an artificial basic; every row a.x >= 0 is
negated, so that its surplus starts basic at level 0.  The LP is solved by
the dual simplex (Lemke 1954), with no phase 1.  The artificial leaves at
once, at a column of the largest cost c_max, so every reduced cost becomes
c_j - c_max <= 0: the basis is dual feasible.  Among tied columns the first
one that no row blocks (no positive entry) enters, which is a pure Nash
profile, and makes every right-hand side at least 0 at once; with none, the
smallest label.  Then, while some right-hand side is negative, the most
negative one leaves, but right after a dual-degenerate pivot (entering
reduced cost 0) the negative row with the smallest basic label leaves
(Bland).  The column minimizing obj/row over the row's negative entries
enters, ties going to the smallest label, so every reduced cost stays at
most 0; with none, the row cannot reach 0 and the LP is infeasible.  The
pivot is negative, so the row is negated first and the pivot column after
`_pivot`: `d` stays positive and every column keeps its variable's sign.
The artificial never enters.  With no column at all the simplex is empty,
and so is the LP.

This terminates.  The dual objective, c.x at the current basis, falls at
every pivot whose entering reduced cost is negative, so a cycle is made of
dual-degenerate pivots only.  In a run of them every pivot after the first
uses Bland's dual rule, so a basis met twice in the run would go on from its
second visit by Bland's dual rule alone and come round again, and Bland's
dual rule cannot cycle (Bland 1977).

The duals are the final reduced costs at each row's starting basic variable,
0 where it is basic.  The solver and the checker share one scaling: the
simplex returns the numerators of x and of the duals y over its final
denominator d, for the integer LP it was given, and every result is checked
on that same integer data before it is returned: x >= 0 and the rows hold,
y <= 0 on `>=` rows, A^T y >= c and b.y == c.x prove the vertex optimal,
compared by cross-multiplication, with every product with x taken over x's
few nonzero entries.  No `Fraction` is built until the return: the value
and x's nonzero entries.  `check_certificate` checks a caller's general
`=`/`>=` LP with the same integer check, after scaling c, x, y and the rows
to integers, the rows all by one lcm.  No floats anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

from .rationals import scaled

Row = Sequence[Fraction]


class Infeasible(Exception):
    """The constraint set is empty."""


class CertificateError(ArithmeticError):
    """A computed solution failed its optimality certificate (a solver fault)."""


def maximize(c: Sequence[Fraction], rows: Sequence[Row]) -> tuple[Fraction, list[Fraction]]:
    """Maximize c.x over the probability simplex (x >= 0, sum(x) == 1)
    subject to a.x >= 0 for each row a.

    Entries may be ints or Fractions; a row, or c, of ints alone is taken as
    it is.  Returns (optimal value, x at an optimal vertex), all exact,
    after checking the vertex's optimality certificate.  Raises Infeasible.
    """
    n = len(c)
    cost, c_scale = scaled(c)
    ints = []
    for a in rows:
        if len(a) != n:
            raise ValueError("row length mismatch")
        ints.append(scaled(a)[0])
    if not n:
        raise Infeasible
    x, y, d = _simplex(cost, ints)
    value = _certify(cost, [([1] * n, 1), *((a, 0) for a in ints)], 1, x, d, y, d)
    zero = Fraction(0)
    return Fraction(value, c_scale * d), [Fraction(v, d) if v else zero for v in x]


def check_certificate(
    c: Sequence[Fraction],
    eq_rows: Sequence[tuple[Row, Fraction]],
    ge_rows: Sequence[tuple[Row, Fraction]],
    x: Sequence[Fraction],
    y: Sequence[Fraction],
) -> Fraction:
    """Prove x optimal with the duals y (one per row, eq rows first).

    Checks x >= 0 and every row, y <= 0 on ge rows, A^T y >= c and
    b.y == c.x in exact integer arithmetic, and returns c.x.
    Raises CertificateError if any of them fails.
    """
    cs, c_scale = scaled(c)
    xs, dx = scaled(x)
    ys, dy = scaled(y)
    rows = [scaled([*a, b]) for a, b in [*eq_rows, *ge_rows]]
    # every row times the lcm of the row scales: in that LP, with objective
    # c * c_scale, the duals are y * c_scale / common
    common = lcm(*(s for _, s in rows))
    int_rows = [([v * (common // s) for v in row[:-1]], row[-1] * (common // s)) for row, s in rows]
    ws = [v * c_scale for v in ys]
    return Fraction(_certify(cs, int_rows, len(eq_rows), xs, dx, ws, dy * common), c_scale * dx)


def _certify(c, rows, eq, x, dx, y, dy) -> int:
    """The certificate check, in integers: `rows` are (a, b) pairs, the
    first `eq` of them a.x == b and the rest a.x >= b; x is numerators over
    dx, and y, the duals of this LP, numerators over dy.  Checks x >= 0 and
    every row, y <= 0 on the >= rows, A^T y >= c and b.y == c.x, and returns
    c.x's numerator over dx.  Raises CertificateError."""
    n = len(c)
    if len(x) != n or len(y) != len(rows) or any(len(a) != n for a, _ in rows):
        raise CertificateError("certificate has the wrong shape")
    if dx <= 0 or dy <= 0:
        raise CertificateError("certificate has a denominator that is not positive")
    if any(v < 0 for v in x):
        raise CertificateError("primal solution has a negative entry")
    # a vertex has few nonzero entries: every product with x is over them
    support = [j for j, v in enumerate(x) if v]
    xs = [x[j] for j in support]
    for k, (a, b) in enumerate(rows):
        lhs, rhs = sum(map(mul, map(a.__getitem__, support), xs)), b * dx
        if lhs < rhs or (k < eq and lhs != rhs):
            raise CertificateError(f"primal solution violates row {k}")
    if any(v > 0 for v in y[eq:]):
        raise CertificateError("dual solution is positive on a >= row")
    active = [k for k, v in enumerate(y) if v]
    weights = [y[k] for k in active]
    columns = list(zip(*(rows[k][0] for k in active))) or [()] * n
    for j, (cj, column) in enumerate(zip(c, columns)):
        if sum(map(mul, column, weights)) < cj * dy:
            raise CertificateError(f"dual solution violates column {j}")
    value = sum(map(mul, map(c.__getitem__, support), xs))
    if sum(rows[k][1] * v for k, v in zip(active, weights)) * dx != value * dy:
        raise CertificateError("primal and dual objective values differ")
    return value


def _simplex(c, rows) -> tuple[list[int], list[int], int]:
    """Optimal vertex of the LP with integer c, n = len(c) >= 1, and integer
    rows: (x, y, d), the numerators of x and of the duals y (the simplex
    row's, then the rows') over the final denominator d > 0."""
    n = len(c)
    # Labels: x is 0..n-1, the surplus of row k is n + k and the simplex
    # row's artificial is `art`.  Row k is negated.
    tab = [[1] * (n + 1)]
    for a in rows:
        row = [-v for v in a]
        row.append(0)
        tab.append(row)
    art = n + len(rows)
    basis = [art, *range(n, art)]
    nonbasic = list(range(n))
    objs = [[*c, 0]]
    d = _dual(tab, basis, nonbasic, objs, art)

    x = [0] * n
    for row, var in zip(tab, basis):
        if var < n:
            x[var] = row[-1]
    # the reduced cost at the column of a row's starting basic variable is
    # -y, and y in a negated row; the artificial never enters, so it is
    # nonbasic, and a basic surplus has the dual 0
    y = [0] * (len(rows) + 1)
    for v, var in zip(objs[0], nonbasic):
        if var == art:
            y[0] = -v
        elif var >= n:
            y[var - n + 1] = v
    return x, y, d


def _dual(tab, basis, nonbasic, objs, art):
    """Dual simplex, row 0 the simplex row with the artificial `art`: it
    leaves at the largest cost (the first tied column no row blocks, else
    the smallest tied label); then the most negative rhs leaves, or the
    smallest basic label among them after a dual-degenerate pivot, and the
    least obj/row over the row's negative entries enters, ties to the
    smallest label.  The artificial never enters.  Returns the denominator."""
    cost = objs[0]
    top = max(cost[:-1])
    tied = [j for j, v in enumerate(cost[:-1]) if v == top]
    col = next((j for j in tied if all(row[j] <= 0 for row in tab[1:])), tied[0])
    d = _pivot(tab, basis, nonbasic, objs, 1, 0, col)
    bland = False
    while True:
        negative = [i for i, row in enumerate(tab) if row[-1] < 0]
        if not negative:
            return d
        if bland:
            r = min(negative, key=basis.__getitem__)
        else:
            r = min(negative, key=lambda i: tab[i][-1])
        row, obj = tab[r], objs[0]
        col = -1
        for j, (v, var) in enumerate(zip(row, nonbasic)):
            if v < 0 and var != art:
                if col < 0:
                    col = j
                    continue
                # obj[j]/v against obj[col]/row[col]: both denominators < 0
                lhs, rhs = obj[j] * row[col], obj[col] * v
                if lhs < rhs or lhs == rhs and var < nonbasic[col]:
                    col = j
        if col < 0:
            raise Infeasible
        bland = obj[col] == 0
        # negating the row makes the pivot positive and its basic variable
        # -basis[r]; negating the column afterwards turns that back
        tab[r] = [-v for v in row]
        d = _pivot(tab, basis, nonbasic, objs, d, r, col)
        for rows in (tab, objs):
            for row in rows:
                row[col] = -row[col]


def _pivot(tab, basis, nonbasic, objs, d, r, col):
    """Fraction-free pivot on tab[r][col] > 0; returns the new denominator."""
    prow = tab[r]
    p = prow[col]
    for rows in (tab, objs):
        for i, row in enumerate(rows):
            if row is prow:
                continue
            f = row[col]
            if f:
                row = rows[i] = [(p * a - f * b) // d for a, b in zip(row, prow)]
                row[col] = -f
            elif p != d:
                rows[i] = [p * a // d for a in row]
    prow[col] = d
    basis[r], nonbasic[col] = nonbasic[col], basis[r]
    return p
