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
`d`, the previous pivot.  A dual pivot on (r, s) has p < 0: with q = -p,
every other row, the reduced-cost row included, becomes `(q*a + f*b) // d`,
which divides exactly, with `f` in column s; row r its own negation, with
`-d` in column s; and `basis[r]` and `nonbasic[s]` swap labels.  That is the
textbook `(p*a - f*b) / d` on row r negated, then column s negated, which
keep `d` positive and each column's sign, in one walk of the tableau.

Row 0 is the simplex row.  With an artificial basic there and every row
a.x >= 0 negated, so that its surplus starts basic at level 0, the pivot
that takes the artificial out at a column col of the largest cost c_max
leaves every reduced cost c_j - c_max <= 0: the basis is dual feasible, with
no phase 1.  Among tied columns col is the first one that no row blocks
(a_col >= 0 in every row), a pure Nash profile, else the smallest label.
The tableau is built as that pivot leaves it: row 0 all ones over d = 1;
the reduced costs c_j - c_max, with -c_max at col and as rhs; and each row
with a_col < 0 as a_col - a_j, with a_col at col and as rhs.  A row with
a_col >= 0 holds at e_col and is left out: a row enters the tableau only
once a vertex violates it.  The dual simplex (Lemke 1954) runs on the rows
held, in row order.  While some right-hand side is negative, one sweep over
them picks the leaving row: the most negative, the earlier among ties, but
right after a dual-degenerate pivot (entering reduced cost 0) the negative
row with the smallest basic label (Bland).  One walk of that row finds the
column minimizing obj/row over its negative entries, ties going to the
smallest label, so every reduced cost stays at most 0; with none, the row
cannot reach 0 and the LP is infeasible.  The artificial never enters, so
the walk skips its column, the start column.  When no rhs is negative, each
left-out row is evaluated at the vertex, a.x over x's support, and every
violated one is written in at the current basis: the sum over basic x_j of
a_j times x_j's row, less d*a_j at each nonbasic x_j.  These are the
integers the full tableau holds at that basis, so every later division stays
exact.  With no row violated, the vertex is optimal.

This terminates.  Each writing of rows adds at least one of finitely many, and
keeps the basis dual feasible: each written surplus enters the basis with
reduced cost 0.  Between writings the rows are fixed, and the dual objective,
c.x at the current basis, falls at every pivot whose entering reduced cost is
negative, so a cycle is made of dual-degenerate pivots only.  In a run of them
every pivot after the first uses Bland's dual rule, so a basis met twice in
the run would go on from its second visit by Bland's dual rule alone and come
round again, and Bland's dual rule cannot cycle (Bland 1977).

The duals are the final reduced costs at each row's starting basic variable,
0 where it is basic or the row was never written, as in the full tableau.
Every vertex is checked on the integer data the simplex got before it is
returned: x >= 0, sum(x) == d and a.x >= 0 for every row prove x feasible;
y <= 0 on the rows, y0 + sum_k y_k a_kj >= c_j d for each column j and
y0 == c.x prove it optimal.  Every product with x is taken over x's few
nonzero entries.  No floats and no `Fraction`s anywhere.
"""

from __future__ import annotations

from bisect import bisect
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
    # row's artificial is `art`.  The tableau is the one the artificial's
    # pivot on (0, col) leaves, less the rows that hold at x = e_col.
    top = max(c)
    tied = [j for j, v in enumerate(c) if v == top]
    col = next((j for j in tied if all(a[j] >= 0 for a in rows)), tied[0])
    tab, basis = [[1] * (n + 1)], [col]
    for k, a in enumerate(rows):
        if a[col] < 0:
            tab.append([a[col] if j == col else a[col] - v for j, v in enumerate(a)] + [a[col]])
            basis.append(n + k)
    art = n + len(rows)
    nonbasic = [art if j == col else j for j in range(n)]
    obj = [-top if j == col else v - top for j, v in enumerate(c)] + [-top]
    d = _dual(rows, tab, basis, nonbasic, obj)

    x = [0] * n
    for row, var in zip(tab, basis):
        if var < n:
            x[var] = row[-1]
    # the reduced cost at the column of a row's starting basic variable is
    # -y, and y in a negated row; the artificial never enters, so it is
    # nonbasic, and a basic or never written surplus has the dual 0
    y = [0] * (len(rows) + 1)
    for v, var in zip(obj, nonbasic):
        if var == art:
            y[0] = -v
        elif var >= n:
            y[var - n + 1] = v
    return d, x, y


def _dual(rows, tab, basis, nonbasic, obj):
    """Dual simplex from the built start at x = e_basis[0], on the rows held
    in `rows` order: Dantzig's leaving row, or Bland's after a degenerate
    pivot, and the ratio test; with no rhs negative, every left-out row the
    vertex violates is written in.  Returns the denominator."""
    n = len(nonbasic)
    start = basis[0]  # the artificial's column ever after: it never enters
    held = [-1, *(var - n for var in basis[1:])]  # tab[i] is rows[held[i]]
    out = [k for k, a in enumerate(rows) if a[start] >= 0]
    d, bland = 1, False
    while True:
        r, least = -1, 0  # the leaving row, in one sweep
        if bland:  # the negative row with the smallest basic label
            for i, row in enumerate(tab):
                if row[-1] < 0 and (r < 0 or basis[i] < basis[r]):
                    r = i
        else:  # the most negative, the earlier row among ties
            for i, row in enumerate(tab):
                if row[-1] < least:
                    r, least = i, row[-1]
        if r < 0:
            # a.x over x's support, for each row left out
            basic = [(j, row) for j, row in zip(basis, tab) if j < n]
            support = [(j, row[-1]) for j, row in basic if row[-1]]
            violated = [k for k in out if sum(rows[k][j] * v for j, v in support) < 0]
            if not violated:
                return d
            out = [k for k in out if k not in violated]
            for k in violated:
                # the row of a.x's surplus as the full tableau holds it at
                # this basis: each basic x_j's row times a_j, and -d*a_j at
                # each nonbasic x_j
                a = rows[k]
                row = [0] * (n + 1)
                for j, b in basic:
                    if a[j]:
                        row = [u + a[j] * v for u, v in zip(row, b)]
                for j, var in enumerate(nonbasic):
                    if var < n:
                        row[j] -= d * a[var]
                i = bisect(held, k)
                held.insert(i, k)
                tab.insert(i, row)
                basis.insert(i, n + k)
            continue
        row, col = tab[r], -1
        for j, v in zip(range(n), row):
            if v < 0 and j != start:
                if col < 0:
                    col, p, o = j, v, obj[j]
                    continue
                # obj[j]/v against o/p: both denominators < 0
                lhs, rhs = obj[j] * p, o * v
                if lhs < rhs or lhs == rhs and nonbasic[j] < nonbasic[col]:
                    col, p, o = j, v, obj[j]
        if col < 0:
            raise Infeasible
        bland = o == 0
        d = _pivot(tab, basis, nonbasic, obj, d, r, col)


def _pivot(tab, basis, nonbasic, obj, d, r, col):
    """Fraction-free dual pivot on tab[r][col] < 0 (see above); returns the new denominator."""
    prow = tab[r]
    q = -prow[col]
    tab.append(obj)  # obj is updated as one more row
    for i, row in enumerate(tab):
        f = row[col]
        if i == r:
            row = tab[i] = [-v for v in row]
            row[col] = -d
        elif f:
            row = tab[i] = [(q * a + f * b) // d for a, b in zip(row, prow)]
            row[col] = f
        elif q != d:
            tab[i] = [q * a // d for a in row]
    obj[:] = tab.pop()
    basis[r], nonbasic[col] = nonbasic[col], basis[r]
    return q
