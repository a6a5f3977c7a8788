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
0 where it is basic.  Every result is checked on the caller's data before it
is returned: x >= 0 and the rows hold, y <= 0 on `>=` rows, A^T y >= c and
b.y == c.x prove the vertex optimal.  The check scales each row, c, x and y
to integers by its own lcm, as above, and compares by cross-multiplication.
No floats anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
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
    x, y = _simplex(c, rows)
    simplex = [([1] * len(c), 1)]
    return check_certificate(c, simplex, [(a, 0) for a in rows], x, y), x


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
    rows = list(eq_rows) + list(ge_rows)
    n = len(c)
    if len(x) != n or len(y) != len(rows) or any(len(a) != n for a, _ in rows):
        raise CertificateError("certificate has the wrong shape")
    xs, x_scale = scaled(x)
    if any(v < 0 for v in xs):
        raise CertificateError("primal solution has a negative entry")
    int_rows = [scaled([*a, b]) for a, b in rows]
    for k, (row, _) in enumerate(int_rows):
        lhs, rhs = sum(v * xv for v, xv in zip(row, xs) if v), row[-1] * x_scale
        if lhs < rhs or (k < len(eq_rows) and lhs != rhs):
            raise CertificateError(f"primal solution violates row {k}")
    ys, y_scale = scaled(y)
    if any(v > 0 for v in ys[len(eq_rows):]):
        raise CertificateError("dual solution is positive on a >= row")
    # over the lcm of the row scales, row k weighs y_k * (lcm // its scale)
    cs, c_scale = scaled(c)
    common = lcm(*(s for _, s in int_rows))
    weighted = [(yk * (common // s), row) for yk, (row, s) in zip(ys, int_rows) if yk]
    bound = y_scale * common
    for j, cj in enumerate(cs):
        if sum(w * row[j] for w, row in weighted) * c_scale < cj * bound:
            raise CertificateError(f"dual solution violates column {j}")
    value = sum(cj * xj for cj, xj in zip(cs, xs) if cj)
    if sum(w * row[-1] for w, row in weighted) * c_scale * x_scale != value * bound:
        raise CertificateError("primal and dual objective values differ")
    return Fraction(value, c_scale * x_scale)


def _simplex(c, rows) -> tuple[list[Fraction], list[Fraction]]:
    """Optimal vertex x and the duals y: the simplex row's, then the rows'."""
    n = len(c)
    # Labels: x is 0..n-1, the surplus of row k is n + k and the simplex
    # row's artificial is `art`.  Row k is scaled to integers by scale[k]
    # and negated.
    tab, scale = [[1] * (n + 1)], []
    for a in rows:
        if len(a) != n:
            raise ValueError("row length mismatch")
        row, s = scaled([*a, 0])
        tab.append([-v for v in row])
        scale.append(s)
    if not n:
        raise Infeasible
    art = n + len(rows)
    basis = [art, *range(n, art)]
    nonbasic = list(range(n))
    cost, c_scale = scaled(c)
    objs = [cost + [0]]
    d = _dual(tab, basis, nonbasic, objs, art)

    x = [Fraction(0)] * n
    for row, var in zip(tab, basis):
        if var < n:
            x[var] = Fraction(row[-1], d)
    # the reduced cost at the column of a row's starting basic variable is
    # -y in the scaled problem, and y in a negated row; the artificial never
    # enters, so it is nonbasic
    column = {var: j for j, var in enumerate(nonbasic)}
    cost, denom = objs[0], d * c_scale
    y = [Fraction(-cost[column[art]], denom)]
    y += [Fraction(cost[column[v]] * s, denom) if v in column else Fraction(0) for v, s in zip(range(n, art), scale)]
    return x, y


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
