"""Reference reduced row echelon form and null space in Fraction arithmetic.

Plain Gauss-Jordan elimination: the pivot row is divided by its pivot entry
and subtracted from every other row.  It shares no code with the
fraction-free kernel ``polytope._rref``; tests compare the two, and the hull
and double description oracles use this one.
"""

from __future__ import annotations

from fractions import Fraction


def rref(rows: list[list]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of int or Fraction rows; returns the nonzero
    rows and the pivot columns."""
    rows = [[Fraction(v) for v in r] for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return rows[:r], pivots


def nullspace(rr: list[list[Fraction]], piv: list[int],
              n: int) -> list[tuple[Fraction, ...]]:
    """Null-space basis of rref rows on n columns: per free column f, the
    vector that is 1 at f and 0 at the other free columns."""
    pivs = set(piv)
    out = []
    for f in range(n):
        if f in pivs:
            continue
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for j, p in enumerate(piv):
            v[p] = -rr[j][f]
        out.append(tuple(v))
    return out
