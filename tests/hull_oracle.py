"""Brute-force facet oracle: hyperplanes through vertex subsets.

Independent of the double description code path: candidate facets are affine
hulls of (dim)-element vertex subsets whose span has codimension one inside
the polytope's affine hull, kept when all vertices fall on one side.  Only
meant for small inputs (the subset count is binomial).
"""

from __future__ import annotations

from itertools import combinations

from ctxlab.polytope import (VertexSet, _dot, _Hull, _integer_primitive,
                             _nullspace, _rref)


def brute_facets(vset: VertexSet) -> set[tuple]:
    """All facets as canonical (coeffs, bound) pairs."""
    hull = _Hull(vset)
    k = hull.dim
    red = [hull.reduce(v) for v in vset.vertices]
    raw = set()
    for sub in combinations(range(len(red)), k):
        pts = [red[i] for i in sub]
        diffs = [[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]
        rr, piv = _rref(diffs)
        if len(piv) != k - 1:
            continue
        normal = _nullspace(rr, piv, k)[0]
        vals = [_dot(normal, y) for y in red]
        base = _dot(normal, pts[0])
        if all(v <= base for v in vals):
            pass
        elif all(v >= base for v in vals):
            normal, base = tuple(-x for x in normal), -base
        else:
            continue
        raw.add(_integer_primitive(tuple(normal) + (base,)))
    out = set()
    for vec in raw:
        f = hull.canonical(vec[:-1], vec[-1])
        out.add((f.coeffs, f.bound))
    return out
