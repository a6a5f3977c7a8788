"""Exact simplex on a condensed integer tableau, with a checked certificate:
a dual simplex for the shape `games.solve_ce` builds, two phases otherwise.

Rows and objective are scaled to integers, each by the lcm of its
denominators; a row or objective of ints is taken as it is, so a caller that
builds them in integers pays no `Fraction` per entry, and `maximize` returns
the value of the LP it was given.  The tableau is condensed (a
dictionary, as in lrs): a basic column is a multiple of a unit vector, so
only the nonbasic columns and the right-hand side are stored, with a
`nonbasic` label list next to `basis`.  Pivots are fraction-free (Edmonds
1967, Bareiss 1968): every entry is an integer over one positive denominator
`d`, the previous pivot.  A pivot on (r, s) with pivot p turns every other
row, the reduced-cost rows included, into `(p*a - f*b) // d`, which divides
exactly, with `-f` in column s; the pivot row gets `d` in column s; and
`basis[r]` and `nonbasic[s]` swap labels.

A `>=` row whose right-hand side is at most 0 is negated so that its surplus
starts basic; every other row gets an artificial.

The CE shape is one `=` row, all ones with right-hand side 1 (the
probability simplex), and `>=` rows of right-hand side 0, so the simplex
row's artificial is the only one.  Its LP is solved by the dual simplex
(Lemke 1954) and needs no phase 1.  The artificial leaves at once, at a
column of the largest cost c_max, so every reduced cost becomes
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
An artificial never enters.

This terminates.  The dual objective, c.x at the current basis, falls at
every pivot whose entering reduced cost is negative, so a cycle is made of
dual-degenerate pivots only.  In a run of them every pivot after the first
uses Bland's dual rule, so a basis met twice in the run would go on from its
second visit by Bland's dual rule alone and come round again, and Bland's
dual rule cannot cycle (Bland 1977).

Any other LP takes two phases.  Phase 1 maximizes minus the sum of the
artificials.  An artificial that leaves never re-enters, and those left
basic at level 0 are pivoted out, or their rows dropped as redundant.
Among the columns with a positive reduced cost, a column is blocked when
some row with right-hand side 0 has a positive entry in it, and free
otherwise.  The free column with the largest reduced cost enters.  With
none free, the largest reduced cost enters (Dantzig), but after a degenerate
pivot (leaving right-hand side 0) the smallest label enters (Bland) until a
pivot is not degenerate.  The minimum ratio leaves, ties going to the
smallest basic label.  A vertex on many rows of right-hand side 0 is left
where it can be instead of walked through basis by basis.

This terminates too.  A free column never pivots degenerately: every row
where it is positive has a positive right-hand side, so its step is positive
and the objective grows, or no row limits it and the LP is unbounded.  The
objective grows at every non-degenerate pivot, so a cycle is made of
degenerate pivots only, in bases that have no free column.  In a run of
them every pivot after the first is therefore Bland's, so a basis met twice
in the run would go on from its second visit by Bland's rule alone and come
round again, and Bland's rule cannot cycle (Bland 1977).

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

    Entries may be ints or Fractions; a row, or c, of ints alone is taken as
    it is.  Returns (optimal value, x at an optimal vertex), all exact,
    after checking the vertex's optimality certificate.  Raises Infeasible
    or Unbounded.
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


def _simplex(c, eq_rows, ge_rows) -> tuple[list[Fraction], list[Fraction]]:
    """Optimal primal vertex x and the duals y of all rows, eq rows first."""
    n = len(c)
    n_eq = len(eq_rows)
    rows = list(eq_rows) + list(ge_rows)
    m = len(rows)

    # Labels: x is 0..n-1, the surplus of ge row k is n + k - n_eq, and the
    # artificials follow from art0.  Each row is scaled to integers (by
    # `scale`, times -1 where `sign` says) and starts with its own surplus or
    # a new artificial basic (`ident`).
    art0 = art = n + m - n_eq
    ints, scale, sign, ident = [], [], [], []
    nonbasic = list(range(n))  # x, then the surpluses of rows with artificials
    for k, (a, b) in enumerate(rows):
        if len(a) != n:
            raise ValueError(("equality" if k < n_eq else "inequality") + " row length mismatch")
        row, s = scaled([*a, b])
        starts = k >= n_eq and row[-1] <= 0
        flip = starts or row[-1] < 0
        scale.append(s)
        sign.append(-1 if flip else 1)
        ints.append([-v for v in row] if flip else row)
        if starts:
            ident.append(n + k - n_eq)
        else:
            ident.append(art)
            art += 1
            if k >= n_eq:
                nonbasic.append(n + k - n_eq)
    # a surplus column is -1 in its own row (rhs > 0, so unflipped), else 0
    tab = [row[:-1] + [-(k == w - n + n_eq) for w in nonbasic[n:]] + row[-1:] for k, row in enumerate(ints)]
    basis = list(ident)

    cost, c_scale = scaled(c)
    objs = [cost + [0] * (len(nonbasic) - n + 1)]
    d = 1
    if n_eq == 1 and n and ints[0] == [1] * (n + 1) and all(row[-1] == 0 for row in ints[1:]):
        # the CE shape: the simplex row's artificial is the only one
        d = _dual(tab, basis, nonbasic, objs, art0)
    else:
        if art > art0:
            # phase 1: maximize -(sum of artificials); its reduced-cost row
            # is the sum of the artificial rows
            objs.append([sum(col) for col in zip(*(row for row, v in zip(tab, basis) if v >= art0))])
            d = _run(tab, basis, nonbasic, objs, d, art0)
            if objs.pop()[-1] > 0:
                raise Infeasible
            d = _drive_out_artificials(tab, basis, nonbasic, objs, d, art0, sign)
        d = _run(tab, basis, nonbasic, objs, d, art0)

    x = [Fraction(0)] * n
    for row, var in zip(tab, basis):
        if var < n:
            x[var] = Fraction(row[-1], d)
    # the reduced cost at the column of row k's starting basic variable is
    # -y_k in the scaled problem
    column = {var: j for j, var in enumerate(nonbasic)}
    cost = objs[0]
    y = [
        Fraction(-cost[column[v]] * sign[k] * scale[k], d * c_scale) if v in column else Fraction(0)
        for k, v in enumerate(ident)
    ]
    return x, y


def _run(tab, basis, nonbasic, objs, d, art0):
    """Pivot on objs[-1] until optimal: the free column (positive in no row
    of rhs 0) with the largest reduced cost enters; with none free, the
    largest reduced cost, or the smallest label after a degenerate pivot.
    Artificials never enter."""
    bland = False
    while True:
        obj = objs[-1]
        entering = [j for j, (v, var) in enumerate(zip(obj, nonbasic)) if v > 0 and var < art0]
        if not entering:
            return d
        free = entering
        for row in tab:
            if not row[-1]:
                free = [j for j in free if row[j] <= 0]
        if free:
            col = max(free, key=obj.__getitem__)
        else:
            col = min(entering, key=nonbasic.__getitem__) if bland else max(entering, key=obj.__getitem__)
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
        bland = num == 0
        d = _pivot(tab, basis, nonbasic, objs, d, leaving, col)


def _dual(tab, basis, nonbasic, objs, art0):
    """Dual simplex on the CE shape, row 0 the simplex row: its artificial
    leaves at the largest cost (the first tied column no row blocks, else
    the smallest tied label); then the most negative rhs leaves, or the
    smallest basic label among them after a dual-degenerate pivot, and the
    least obj/row over the row's negative entries enters, ties to the
    smallest label.  Artificials never enter.  Returns the denominator."""
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
            if v < 0 and var < art0:
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


def _drive_out_artificials(tab, basis, nonbasic, objs, d, art0, sign):
    """Pivot zero-level artificials out of the basis; drop redundant rows."""
    for i in range(len(basis) - 1, -1, -1):
        # an artificial never re-enters, so a basic one is still in its own
        # row, and rows are only deleted after i: row i is input row i
        if basis[i] < art0:
            continue
        row = tab[i]
        col = next((j for j, (v, var) in enumerate(zip(row, nonbasic)) if v and var < art0), -1)
        if col < 0:
            del tab[i]
            del basis[i]
            continue
        if row[col] < 0:
            # the rhs is 0, so negating the row keeps the pivot, hence d,
            # positive; it substitutes -a for the artificial a, which leaves
            # to a column where the dual is read with the opposite sign
            tab[i] = [-v for v in row]
            sign[i] = -sign[i]
        d = _pivot(tab, basis, nonbasic, objs, d, i, col)
    return d
