"""Exact linear programming over the rationals: the simplex and its kernel.

Two-phase primal simplex on the standard form

    minimize c.x   subject to   A x = b,  x >= 0

with Bland's smallest-index pivot rule, which makes every run deterministic
and termination guaranteed.  Infeasible problems return a Farkas certificate
y (y.A <= 0, y.b > 0); optimal ones return the optimal basic solution and
the dual vector.

Several objectives are minimized lexicographically on one tableau: once an
objective is optimal, every column with a positive reduced cost is barred from
entering the basis (by complementary slackness those variables are zero on the
whole optimal face), the next cost row is installed, and the simplex carries
on from the same basis.  Once every nonbasic column is barred, the optimal
face is the current basic solution alone, so the objectives left are not
installed: none of them could pivot.  A single objective is the ordinary LP.

The tableau is dense and fraction-free, in the manner of Bareiss (Math. Comp.
22, 1968) and of Avis's lrs: every row, cost row included, is a primitive
integer row that is a positive multiple of the rational tableau row, so the
pivot loop does integer arithmetic only.  Each decision the simplex makes is
the sign of an entry or a comparison of two ratios rhs_i / a_i, and a
positive scaling of a row changes neither; the pivot sequence, and with it
every solution, dual and Farkas vector, is the one the rational tableau
takes.  Fractions are built only when a result is read off: a solution
entry is its row's rhs over the row's scale, and each dual entry is one
Fraction of an integer sum over the common denominator of the basic rows'
scales.  Inputs are ints or Fractions, taken as given: the public
functions of :mod:`ctxlab.polytope` refuse anything else before an LP is
built, and ``logic.scale_to_integers`` copies rows that are all ints.
Problem sizes here are tens of rows and at most a couple of hundred
columns, where simplicity and exactness matter more than sparse data
structures, but the tableau is mostly zeros: ``_pivot``, the one pivot step
of the simplex and of :mod:`ctxlab.polytope`'s RREF, and ``_reduce``, which
clears a row against pivot rows, change only the entries on the pivot row's
support beyond one scaling (none when the pivot entry is 1).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from ctxlab.logic import _Record, scale_to_integers

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class InternalError(RuntimeError):
    """An invariant of ctxlab's exact algorithms failed: a bug, not bad input."""


def check_invariant(holds: bool, what: str) -> None:
    """Raise :class:`InternalError` unless ``holds``; unlike ``assert`` this
    stays in force under ``python -O``."""
    if not holds:
        raise InternalError(what)


class LPResult(_Record):
    status: str
    x: tuple[Fraction, ...] | None = None
    objective: Fraction | None = None
    dual: tuple[Fraction, ...] | None = None
    farkas: tuple[Fraction, ...] | None = None


def _primitive(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries (a zero row passes through)."""
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _eliminate(row: list[int], p: int, f: int, support: list[tuple[int, int]]) -> list[int]:
    """``p * row - f * top`` over its gcd; ``support`` holds top's nonzero
    (index, entry) pairs, and ``row`` is updated in place when p == 1."""
    if p != 1:
        row = [p * v for v in row]
    for k, w in support:
        row[k] -= f * w
    return _primitive(row)


def _pivot(rows: list[list[int]], r: int, col: int) -> tuple[int, list[tuple[int, int]]]:
    """Gauss-Jordan step: make rows[r][col] positive and clear ``col`` from the
    other rows.  Returns that pivot entry and the support of rows[r]."""
    top = rows[r]
    if top[col] < 0:
        top = rows[r] = [-v for v in top]
    p = top[col]
    support = [(k, w) for k, w in enumerate(top) if w]
    for i, row in enumerate(rows):
        if i != r and (f := row[col]):
            rows[i] = _eliminate(row, p, f, support)
    return p, support


def _reduce(row: list[int], rows: Sequence[list[int]], cols: Sequence[int]) -> list[int]:
    """``row`` with column ``cols[j]`` cleared against ``rows[j]`` for each j
    in turn (``_eliminate``, which may update ``row`` in place)."""
    for top, col in zip(rows, cols):
        if f := row[col]:
            row = _eliminate(row, top[col], f, [(k, w) for k, w in enumerate(top) if w])
    return row


class _Tableau:
    """Rows of [A | B^-1-tracking block | rhs] plus a maintained cost row,
    as primitive integer rows.

    Row i is a positive multiple of the rational tableau row; its entry in
    its basic column is the multiple (the row's scale) where the rational
    row has a 1.  The cost row is a positive multiple of the reduced costs,
    of which only the signs are ever read, so its scale is not kept.  The
    tracking block starts as the identity over the (sign-fixed) rows, times
    each row's scale, and doubles as the phase-1 artificial columns; after
    any pivot sequence it holds the scaled rows of the current basis
    inverse, which is where dual vectors come from.  Barred columns never
    enter the basis, so a barred nonbasic variable stays at zero.
    """

    def __init__(self, A: list[list], b: list, n: int):
        self.m = len(A)
        self.n = n
        self.sign = [-1 if bi < 0 else 1 for bi in b]
        self.rows = []
        for i in range(self.m):
            ints, scale = scale_to_integers([*A[i], b[i]])
            if self.sign[i] < 0:
                ints = [-v for v in ints]
            self.rows.append(ints[:-1] + [scale if j == i else 0 for j in range(self.m)]
                             + ints[-1:])
        self.basis = [self.n + i for i in range(self.m)]  # artificials
        self.cost: list[int] = []
        self.barred = [False] * (self.n + self.m)

    def set_costs(self, costs: list) -> None:
        """Install a cost row reduced against the current basis."""
        self.cost = _reduce(_primitive(scale_to_integers(costs)[0] + [0]),
                            self.rows, self.basis)

    def pivot(self, r: int, col: int) -> None:
        """Make ``col`` basic in row r (negated only when phase 1 drives an
        artificial out), clearing it from the cost row too."""
        p, support = _pivot(self.rows, r, col)
        if self.cost and (f := self.cost[col]):
            self.cost = _eliminate(self.cost, p, f, support)
        self.basis[r] = col

    def run(self) -> str:
        """Bland simplex over the columns not barred; returns a status."""
        while True:
            col = next((j for j, (d, barred) in enumerate(zip(self.cost, self.barred))
                        if d < 0 and not barred), None)
            if col is None:
                return OPTIMAL
            # smallest ratio rhs / a over a > 0, compared by cross-multiplying:
            # a row's scale cancels in its ratio
            leave = None
            for i, row in enumerate(self.rows):
                a = row[col]
                if a > 0:
                    if leave is None:
                        leave, rhs, den = i, row[-1], a
                        continue
                    lhs, best = row[-1] * den, rhs * a
                    if lhs < best or (lhs == best and self.basis[i] < self.basis[leave]):
                        leave, rhs, den = i, row[-1], a
            if leave is None:
                return UNBOUNDED
            self.pivot(leave, col)

    def solution(self) -> list[Fraction]:
        x = [Fraction(0)] * self.n
        for row, bv in zip(self.rows, self.basis):
            if bv < self.n:
                x[bv] = Fraction(row[-1], row[bv])
        return x

    def dual_for(self, costs: list) -> list[Fraction]:
        """y = c_B . B^-1 in the original row order and scaling, summed in
        integers over one common denominator: row i contributes c[bv] *
        row[n + j] / row[bv], and the costs are scaled to integers first."""
        ints, scale = scale_to_integers(costs)
        basic = [(ints[bv], row[bv], row) for row, bv in zip(self.rows, self.basis) if ints[bv]]
        den = lcm(*[d for _, d, _ in basic])
        weights = [(c * (den // d), row) for c, d, row in basic]
        return [Fraction(sign * sum(w * row[self.n + j] for w, row in weights), scale * den)
                for j, sign in enumerate(self.sign)]


def solve_standard(c: Sequence, A: Sequence[Sequence], b: Sequence) -> LPResult:
    """Minimize ``c.x`` over ``A x = b, x >= 0`` exactly.

    Inputs are ints or Fractions (see the module docstring).  ``dual``
    satisfies ``dual . A <= c`` with ``dual . b == objective`` at optimality;
    ``farkas`` satisfies ``farkas . A <= 0`` with ``farkas . b > 0``.
    """
    return solve_lexicographic([c], A, b)


def solve_lexicographic(costs: Sequence[Sequence], A: Sequence[Sequence],
                        b: Sequence) -> LPResult:
    """Minimize ``costs[0].x`` over ``A x = b, x >= 0``, then each later
    objective over the optimal face of the ones before it, on one tableau.

    ``x`` is the optimal basic solution of the last objective, so it is
    optimal for every objective in turn; the objectives stop early when the
    optimal face so far is one vertex, which fixes ``x`` and the pivots.
    ``objective`` and ``dual`` belong to ``costs[0]`` and certify it as in
    :func:`solve_standard`: stages after the first pivot only on columns
    whose first reduced cost is zero, which leaves that reduced cost row
    unchanged.  INFEASIBLE carries the Farkas vector;
    UNBOUNDED means some objective is unbounded below on the optimal face of
    those before it.  Inputs are ints or Fractions, taken as given; the
    polytope layer checks them.
    """
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

    phase1 = [0] * n + [1] * m
    t.set_costs(phase1)
    status = t.run()
    check_invariant(status == OPTIMAL, "phase 1 objective is bounded below by 0")
    if t.cost[-1] < 0:  # the phase-1 optimum is positive
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
    padding = [0] * m
    for k, c in enumerate(costs):
        if k:  # keep to the optimal face of the objectives so far
            t.barred = [barred or d > 0 for barred, d in zip(t.barred, t.cost)]
            basic = set(t.basis)
            if all(barred or j in basic for j, barred in enumerate(t.barred)):
                break  # the face is the current vertex: no later stage can pivot
        t.set_costs([*c, *padding])
        if t.run() == UNBOUNDED:
            return LPResult(status=UNBOUNDED)
    x = t.solution()
    first = costs[0]
    obj = sum((first[bv] * x[bv] for bv in t.basis if bv < n), Fraction(0))
    y = t.dual_for([*first, *padding])
    return LPResult(status=OPTIMAL, x=tuple(x), objective=obj, dual=tuple(y))
