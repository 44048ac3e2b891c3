"""Reference double description in Fraction arithmetic.

Rows and rays stay Fractions, zero sets are frozensets, and every new ray's
zero set is recomputed with dot products against each processed row, and
the elimination is the Fraction reference in ``rref_oracle``.  It shares
only ``_dot`` with the integer kernel ``polytope._extreme_rays``; tests
compare the two ray lists, order included, on random pointed cones.
"""

from __future__ import annotations

from fractions import Fraction

from ctxlab.exactlp import check_invariant
from ctxlab.polytope import Vector, _dot
from canonical_oracle import integer_primitive
from rref_oracle import rref


def extreme_rays(M: list[Vector]) -> list[Vector]:
    """Extreme rays of the pointed cone {z : M z >= 0}, double description.

    Requires the columns of M to span (the cone is pointed); rays come back
    as primitive integer vectors in a deterministic order.
    """
    d = len(M[0])
    # initial simplicial subcone from the first d linearly independent rows:
    # the pivot columns of rref(M^T)
    _, chosen = rref([list(col) for col in zip(*M)])
    if len(chosen) < d:
        raise ValueError("cone is not pointed: constraint rows do not span")

    # columns of the inverse of the chosen submatrix are the initial rays
    sub = [list(M[i]) for i in chosen]
    aug = [row + [Fraction(1) if j == i else Fraction(0) for j in range(d)]
           for i, row in enumerate(sub)]
    rr, piv = rref(aug)
    check_invariant(piv == list(range(d)), "initial cone rows are independent")
    inv_cols = [[rr[i][d + j] for i in range(d)] for j in range(d)]
    # ray_j satisfies M_chosen . ray_j = e_j
    rays = [integer_primitive(inv_cols[j]) for j in range(d)]

    processed = list(chosen)
    zero_sets = [frozenset(chosen[t] for t in range(d) if t != j) for j in range(d)]

    remaining = [i for i in range(len(M)) if i not in set(chosen)]
    for i in remaining:
        vals = [_dot(M[i], r) for r in rays]
        pos = [t for t, v in enumerate(vals) if v > 0]
        zero = [t for t, v in enumerate(vals) if v == 0]
        neg = [t for t, v in enumerate(vals) if v < 0]
        if not neg:
            processed.append(i)
            zero_sets = [zs | {i} if t in zero else zs
                         for t, zs in enumerate(zero_sets)]
            continue
        new_rays: list[Vector] = []
        new_zero: list[frozenset[int]] = []
        for p in pos:
            for m_ in neg:
                common = zero_sets[p] & zero_sets[m_]
                if len(common) < d - 2:
                    continue
                adjacent = True
                for t in range(len(rays)):
                    if t not in (p, m_) and common <= zero_sets[t]:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                w = [vals[p] * bm - vals[m_] * bp
                     for bp, bm in zip(rays[p], rays[m_])]
                wn = integer_primitive(w)
                zs = frozenset(j for j in processed if _dot(M[j], wn) == 0) | {i}
                new_rays.append(wn)
                new_zero.append(zs)
        keep = pos + zero
        rays = [rays[t] for t in keep] + new_rays
        zero_sets = [zero_sets[t] | ({i} if t in zero else frozenset())
                     for t in keep] + new_zero
        processed.append(i)

    for r in rays:  # internal consistency: every kept ray satisfies the cone
        check_invariant(all(_dot(row, r) >= 0 for row in M), "ray leaves the cone")
    order = sorted(range(len(rays)), key=lambda t: rays[t])
    return [rays[t] for t in order]
