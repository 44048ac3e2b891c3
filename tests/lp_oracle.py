"""Reference exact simplex in Fraction arithmetic.

The same two-phase simplex as ``ctxlab.exactlp`` (Bland's rule, artificial
drive-out, lexicographic objectives), on a dense tableau of Fractions: each
pivot divides the pivot row by its pivot entry, so every basic column is a
unit column.  It shares only ``LPResult``, the status names and
``check_invariant`` with the integer-row kernel; tests require both to
return equal results, field by field.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from ctxlab.exactlp import (INFEASIBLE, OPTIMAL, UNBOUNDED, LPResult,
                            check_invariant)


class _Tableau:
    """Rows of [A | B^-1-tracking block | rhs] plus a maintained cost row.

    The tracking block starts as the identity over the (sign-fixed) rows and
    doubles as the phase-1 artificial columns; after any pivot sequence it
    holds the current basis inverse, which is where dual vectors come from.
    Barred columns never enter the basis, so a barred nonbasic variable stays
    at zero.
    """

    def __init__(self, A: list[list[Fraction]], b: list[Fraction], n: int):
        self.m = len(A)
        self.n = n
        self.sign = [Fraction(-1) if bi < 0 else Fraction(1) for bi in b]
        self.rows = []
        for i in range(self.m):
            row = [self.sign[i] * v for v in A[i]]
            row += [Fraction(1) if j == i else Fraction(0) for j in range(self.m)]
            row.append(self.sign[i] * b[i])
            self.rows.append(row)
        self.basis = [self.n + i for i in range(self.m)]  # artificials
        self.cost: list[Fraction] = []
        self.barred = [False] * (self.n + self.m)

    def set_costs(self, costs: list[Fraction]) -> None:
        """Install a cost row reduced against the current basis."""
        row = list(costs) + [Fraction(0)]
        for i, bv in enumerate(self.basis):
            cb = costs[bv]
            if cb:
                for j, v in enumerate(self.rows[i]):
                    if v:
                        row[j] -= cb * v
        self.cost = row

    def pivot(self, r: int, col: int) -> None:
        inv = 1 / self.rows[r][col]
        rr = [v * inv if v else v for v in self.rows[r]]
        self.rows[r] = rr
        # tableaux here are mostly zeros: update only the pivot row's support
        support = [j for j, v in enumerate(rr) if v]
        others = [row for i, row in enumerate(self.rows) if i != r]
        if self.cost:
            others.append(self.cost)
        for row in others:
            f = row[col]
            if f:
                for j in support:
                    row[j] -= f * rr[j]
        self.basis[r] = col

    def run(self) -> str:
        """Bland simplex over the columns not barred; returns a status."""
        while True:
            col = next((j for j, (d, barred) in enumerate(zip(self.cost, self.barred))
                        if d < 0 and not barred), None)
            if col is None:
                return OPTIMAL
            best_ratio = None
            leave = None
            for i in range(self.m):
                a = self.rows[i][col]
                if a > 0:
                    ratio = self.rows[i][-1] / a
                    if (best_ratio is None or ratio < best_ratio
                            or (ratio == best_ratio and self.basis[i] < self.basis[leave])):
                        best_ratio, leave = ratio, i
            if leave is None:
                return UNBOUNDED
            self.pivot(leave, col)

    def solution(self) -> list[Fraction]:
        x = [Fraction(0)] * self.n
        for i, bv in enumerate(self.basis):
            if bv < self.n:
                x[bv] = self.rows[i][-1]
        return x

    def dual_for(self, costs: list[Fraction]) -> list[Fraction]:
        """y = c_B . B^-1 in the original row order and scaling."""
        y = []
        for j in range(self.m):
            col = self.n + j
            acc = Fraction(0)
            for i, bv in enumerate(self.basis):
                if costs[bv]:
                    acc += costs[bv] * self.rows[i][col]
            y.append(acc * self.sign[j])
        return y


def solve_lexicographic(costs: Sequence[Sequence], A: Sequence[Sequence],
                        b: Sequence) -> LPResult:
    """Minimize ``costs[0].x`` over ``A x = b, x >= 0``, then each later
    objective over the optimal face of the ones before it, on one tableau.

    ``x`` is the optimal basic solution of the last objective, so it is
    optimal for every objective in turn.  ``objective`` and ``dual`` belong to
    ``costs[0]`` and certify it as in :func:`solve_standard`: stages after the
    first pivot only on columns whose first reduced cost is zero, which leaves
    that reduced cost row unchanged.  INFEASIBLE carries the Farkas vector;
    UNBOUNDED means some objective is unbounded below on the optimal face of
    those before it.
    """
    A = [[Fraction(v) for v in row] for row in A]
    b = [Fraction(v) for v in b]
    costs = [[Fraction(v) for v in c] for c in costs]
    if not costs:
        raise ValueError("no objective")
    n = len(costs[0])
    m = len(A)
    if any(len(c) != n for c in costs):
        raise ValueError("objectives differ in length")
    if any(len(row) != n for row in A):
        raise ValueError("ragged constraint matrix")
    if len(b) != m:
        raise ValueError("rhs length mismatch")

    t = _Tableau(A, b, n)

    phase1 = [Fraction(0)] * n + [Fraction(1)] * m
    t.set_costs(phase1)
    status = t.run()
    check_invariant(status == OPTIMAL, "phase 1 objective is bounded below by 0")
    phase1_value = -t.cost[-1]
    if phase1_value > 0:
        y = t.dual_for(phase1)
        return LPResult(status=INFEASIBLE, farkas=tuple(y))

    # drive any degenerate artificial out of the basis; rows that cannot
    # pivot on a structural column are redundant and harmless to keep
    for i in range(t.m):
        if t.basis[i] >= n:
            col = next((j for j in range(n) if t.rows[i][j] != 0), None)
            if col is not None:
                t.pivot(i, col)

    # artificial columns never enter again
    t.barred[n:] = [True] * m
    padding = [Fraction(0)] * m
    for k, c in enumerate(costs):
        if k:  # keep to the optimal face of the objectives so far
            t.barred = [barred or d > 0 for barred, d in zip(t.barred, t.cost)]
        t.set_costs(c + padding)
        if t.run() == UNBOUNDED:
            return LPResult(status=UNBOUNDED)
    x = t.solution()
    first = costs[0]
    obj = sum(ci * xi for ci, xi in zip(first, x))
    y = t.dual_for(first + padding)
    return LPResult(status=OPTIMAL, x=tuple(x), objective=obj, dual=tuple(y))
