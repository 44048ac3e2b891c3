"""Fraction reference for canonical forms of inequalities.

Independent of the lexicographic tableau and of the integer rows of
``polytope._canonical_form``: the nonnegative representative is found with
each objective (first the coefficient sum, then every coefficient in turn)
as a fresh two-phase LP through ``solve_standard``, with one more equality
row pinning every objective already minimized to its optimum; without one,
the pivot coordinates are eliminated on the Fraction reference RREF of
``rref_oracle``.  n + 1 LPs per call, so only meant for small inputs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from ctxlab.exactlp import INFEASIBLE, OPTIMAL, solve_standard
from rref_oracle import rref


def integer_primitive(values) -> tuple[Fraction, ...]:
    """Positive rescale of rationals to coprime integers, as Fractions (the
    zero vector passes through)."""
    values = [Fraction(v) for v in values]
    scaled = [v * lcm(*(v.denominator for v in values)) for v in values]
    g = gcd(*(int(v) for v in scaled)) or 1
    return tuple(v / g for v in scaled)


def eliminate_pivots(values, rr, piv):
    """Zero the pivot coordinates of ``values`` against reference rref rows."""
    values = list(values)
    for row, p in zip(rr, piv):
        if values[p]:
            f = values[p]
            values = [a - f * b for a, b in zip(values, row)]
    return values


def canonical_form_oracle(coeffs, bound, equalities):
    """(coeffs, bound) of the canonical form of coeffs . x <= bound modulo
    the consistent ``equalities``: the nonnegative representative when one
    exists, otherwise the form with the pivot coordinates of the rref of
    the equalities eliminated; coprime integers, as Fractions."""
    coeffs = [Fraction(v) for v in coeffs]
    bound = Fraction(bound)
    rows = [list(e.coeffs) for e in equalities]
    bounds = [e.bound for e in equalities]
    if rows:
        t = nonneg_representative(coeffs, rows)
        if t is not None:
            coeffs = [c + sum(te * row[i] for te, row in zip(t, rows))
                      for i, c in enumerate(coeffs)]
            bound += sum(te * b for te, b in zip(t, bounds))
        else:
            rr, piv = rref([row + [b] for row, b in zip(rows, bounds)])
            aug = eliminate_pivots(coeffs + [bound], rr, piv)
            coeffs, bound = aug[:-1], aug[-1]
    vec = integer_primitive(coeffs + [bound])
    return vec[:-1], vec[-1]


def nonneg_representative(coeffs: list[Fraction],
                          eq_rows: list[list[Fraction]]) -> list[Fraction] | None:
    """Multipliers t making coeffs + t.E componentwise nonnegative, with the
    smallest coefficient sum and then lexicographically smallest
    coefficients; None when no nonnegative representative exists."""
    n = len(coeffs)
    q = len(eq_rows)
    # variables: u_e, w_e (t_e = u_e - w_e), s_i = resulting coefficient i
    nvars = 2 * q + n
    rows, rhs = [], []
    for i in range(n):
        row = [Fraction(0)] * nvars
        for e in range(q):
            row[e] = Fraction(eq_rows[e][i])
            row[q + e] = -Fraction(eq_rows[e][i])
        row[2 * q + i] = Fraction(-1)
        rows.append(row)
        rhs.append(-Fraction(coeffs[i]))

    objectives = [[Fraction(0)] * (2 * q) + [Fraction(1)] * n]
    for i in range(n):
        target = [Fraction(0)] * nvars
        target[2 * q + i] = Fraction(1)
        objectives.append(target)
    res = None
    for k, target in enumerate(objectives):
        res = solve_standard(target, rows, rhs)
        if k == 0 and res.status == INFEASIBLE:
            return None
        if res.status != OPTIMAL:
            raise AssertionError(f"objective {k} not optimal: {res.status}")
        rows = rows + [target]
        rhs = rhs + [res.objective]
    # the fully pinned face is one point; the multipliers are unique because
    # the equality rows are independent
    return [res.x[e] - res.x[q + e] for e in range(q)]
