"""Reference for the nonnegative representative of canonical forms.

Independent of the lexicographic tableau: each objective (first the
coefficient sum, then every coefficient in turn) is a fresh two-phase LP
through ``solve_standard``, with one more equality row pinning every
objective already minimized to its optimum.  n + 1 LPs per call, so only
meant for small inputs.
"""

from __future__ import annotations

from fractions import Fraction

from ctxlab.exactlp import INFEASIBLE, OPTIMAL, solve_standard


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
