"""Exact dual simplex on a condensed integer tableau, with a checked
certificate, for the one LP the library poses: maximize c.x over the
probability simplex (x >= 0, sum(x) == 1) subject to a.x >= 0 for each row a,
for integer c and integer rows.  It is the shape of the correlated-equilibrium
constraints that `games.solve_ce` builds.

`maximize(c, rows)` takes c and the rows as they are and returns (d, x, y):
the numerators of an optimal vertex x and of its duals y (the simplex row's,
then the rows') over one positive denominator d, all ints.  The tableau is
condensed (a dictionary, as in lrs): a basic column is a multiple of a unit
vector, so only the nonbasic columns and the right-hand side are stored, with
a `nonbasic` label list next to `basis`.  Pivots are fraction-free (Edmonds
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
0 where it is basic.  Every vertex is checked on the integer data the simplex
got before it is returned: x >= 0, sum(x) == d and a.x >= 0 for each row
prove x feasible; y <= 0 on the rows, y0 + sum_k y_k a_kj >= c_j d for each
column j and y0 == c.x prove it optimal.  Every product with x is taken over
x's few nonzero entries.  No floats and no `Fraction`s anywhere.
"""

from __future__ import annotations

from operator import mul
from typing import Sequence


class Infeasible(Exception):
    """The constraint set is empty."""


class CertificateError(ArithmeticError):
    """A computed solution failed its optimality certificate (a solver fault)."""


def maximize(c: Sequence[int], rows: Sequence[Sequence[int]]) -> tuple[int, list[int], list[int]]:
    """Maximize c.x over the probability simplex (x >= 0, sum(x) == 1)
    subject to a.x >= 0 for each row a, all entries ints.

    Returns (d, x, y) after checking the vertex's optimality certificate:
    the numerators of x at an optimal vertex and of the duals y (the simplex
    row's, then the rows') over the denominator d > 0.  Raises Infeasible.
    """
    n = len(c)
    if any(len(a) != n for a in rows):
        raise ValueError("row length mismatch")
    if not n:
        raise Infeasible
    d, x, y = vertex = _simplex(c, rows)
    _certify(c, rows, d, x, y)
    return vertex


def _certify(c, rows, d, x, y) -> None:
    """The certificate check, in integers, for x and y numerators over d:
    x >= 0, sum(x) == d and a.x >= 0 for each row a; y <= 0 on the rows,
    y0 + sum_k y_k a_kj >= c_j d for each column j, and y0 == c.x.  The
    simplex row is row 0 and rows[k] is row k + 1.  Raises
    CertificateError."""
    n = len(c)
    if len(x) != n or len(y) != len(rows) + 1:
        raise CertificateError("certificate has the wrong shape")
    if d <= 0:
        raise CertificateError("certificate has a denominator that is not positive")
    if any(v < 0 for v in x):
        raise CertificateError("primal solution has a negative entry")
    # a vertex has few nonzero entries: every product with x is over them
    support = [j for j, v in enumerate(x) if v]
    xs = [x[j] for j in support]
    if sum(xs) != d:
        raise CertificateError("primal solution violates row 0")
    for k, a in enumerate(rows, 1):
        if sum(map(mul, map(a.__getitem__, support), xs)) < 0:
            raise CertificateError(f"primal solution violates row {k}")
    y0, ys = y[0], y[1:]
    if any(v > 0 for v in ys):
        raise CertificateError("dual solution is positive on a >= row")
    active = [k for k, v in enumerate(ys) if v]
    weights = [ys[k] for k in active]
    columns = list(zip(*(rows[k] for k in active))) or [()] * n
    for j, (cj, column) in enumerate(zip(c, columns)):
        if y0 + sum(map(mul, column, weights)) < cj * d:
            raise CertificateError(f"dual solution violates column {j}")
    if sum(map(mul, map(c.__getitem__, support), xs)) != y0:
        raise CertificateError("primal and dual objective values differ")


def _simplex(c, rows) -> tuple[int, list[int], list[int]]:
    """Optimal vertex of the LP with integer c, n = len(c) >= 1, and integer
    rows: (d, x, y), the numerators of x and of the duals y (the simplex
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
    return d, x, y


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
