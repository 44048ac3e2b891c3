"""Fraction-only hull references: brute-force facets and membership.

``FractionHull`` is the affine hull of a vertex set in Fraction arithmetic,
on the reference elimination of ``rref_oracle``: v0 is the first vertex and
a point's reduced coordinates are x - v0 on the pivot coordinates.  It
shares no linear algebra with the integer ``polytope._Hull``, and its
inequalities are canonicalized by ``canonical_oracle``, not by
``polytope._canonical_form``.

``brute_facets`` is independent of the double description code path:
candidate facets are affine hulls of (dim)-element vertex subsets whose span
has codimension one inside the polytope's affine hull, kept when all
vertices fall on one side.  Only meant for small inputs (the subset count is
binomial).

``fraction_membership`` answers ``polytope.membership`` in the Fraction
coordinates of a ``FractionHull`` by LPs alone: the same inside LP, and for a
point outside, a lexicographic LP on the polar (the violation, then each
coordinate of the polar vertex).  ``membership`` scans the enumerated
facets instead; this polar LP is kept, unchanged, as the independent
reference the scan is compared against, so weights and separators must
come out equal.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from ctxlab.exactlp import OPTIMAL, solve_lexicographic, solve_standard
from ctxlab.polytope import Equality, Inequality, MembershipResult, VertexSet
from canonical_oracle import canonical_form_oracle, integer_primitive
from rref_oracle import dot, nullspace, rref


class FractionHull:
    def __init__(self, vset: VertexSet):
        self.labels = vset.labels
        self.v0 = tuple(Fraction(x) for x in vset.vertices[0])
        diffs = [[Fraction(a) - b for a, b in zip(v, self.v0)]
                 for v in vset.vertices[1:]]
        self.basis, self.pivots = rref(diffs)
        self.dim = len(self.pivots)
        equalities = []
        for a in nullspace(self.basis, self.pivots, len(self.v0)):
            vec = integer_primitive(list(a) + [dot(a, self.v0)])
            coeffs, bound = vec[:-1], vec[-1]
            if next(v for v in coeffs if v != 0) < 0:
                coeffs, bound = tuple(-v for v in coeffs), -bound
            equalities.append(Equality(self.labels, coeffs, bound))
        self.equalities = tuple(equalities)
        self.reduced = [self.reduce(v) for v in vset.vertices]

    def reduce(self, point) -> tuple[Fraction, ...]:
        return tuple(Fraction(point[p]) - self.v0[p] for p in self.pivots)

    def canonical(self, red_coeffs, red_bound) -> Inequality:
        coeffs = [Fraction(0)] * len(self.labels)
        bound = red_bound
        for c, p in zip(red_coeffs, self.pivots):
            coeffs[p] = c
            bound += c * self.v0[p]
        coeffs, bound = canonical_form_oracle(coeffs, bound, self.equalities)
        return Inequality(self.labels, coeffs, bound)


def brute_facets(vset: VertexSet) -> set[tuple]:
    """All facets as canonical (coeffs, bound) pairs."""
    hull = FractionHull(vset)
    k = hull.dim
    red = hull.reduced
    raw = set()
    for sub in combinations(range(len(red)), k):
        pts = [red[i] for i in sub]
        diffs = [[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]
        rr, piv = rref(diffs)
        if len(piv) != k - 1:
            continue
        normal = nullspace(rr, piv, k)[0]
        vals = [dot(normal, y) for y in red]
        base = dot(normal, pts[0])
        if all(v <= base for v in vals):
            pass
        elif all(v >= base for v in vals):
            normal, base = tuple(-x for x in normal), -base
        else:
            continue
        raw.add(integer_primitive(tuple(normal) + (base,)))
    out = set()
    for vec in raw:
        f = hull.canonical(vec[:-1], vec[-1])
        out.add((f.coeffs, f.bound))
    return out


def fraction_membership(point, vset: VertexSet) -> MembershipResult:
    """``polytope.membership`` on a nonempty vertex set, in Fractions."""
    p = tuple(Fraction(point[a]) for a in vset.labels)
    hull = FractionHull(vset)
    for eq in hull.equalities:
        val = dot(eq.coeffs, p)
        if val != eq.bound:
            sign = 1 if val > eq.bound else -1
            sep = Inequality(vset.labels, tuple(sign * v for v in eq.coeffs),
                             sign * eq.bound)
            return MembershipResult(inside=False, separator=sep,
                                    value_at_point=dot(sep.coeffs, p),
                                    max_over_vertices=sep.bound)
    reduced, k, m = hull.reduced, hull.dim, len(hull.reduced)
    y_p = hull.reduce(p)
    A = [[r[j] for r in reduced] for j in range(k)] + [[Fraction(1)] * m]
    res = solve_standard([Fraction(0)] * m, A, list(y_p) + [Fraction(1)])
    if res.status == OPTIMAL:
        return MembershipResult(inside=True, weights=res.x)

    centroid = tuple(sum(r[j] for r in reduced) / m for j in range(k))
    rows = [tuple(v[j] - centroid[j] for j in range(k)) for v in reduced]
    d = tuple(y_p[j] - centroid[j] for j in range(k))
    # maximize z.d over z.row <= 1 with z = z+ - z-, then minimize z_1, z_2, ...
    A = [[*r, *(-x for x in r), *(Fraction(int(i == t)) for t in range(m))]
         for i, r in enumerate(rows)]

    def split(w):  # w.z as a cost over z+, z- and the m slacks
        return [*w, *(-x for x in w), *[Fraction(0)] * m]

    costs = [split([-x for x in d])]
    costs += [split([Fraction(int(i == j)) for j in range(k)]) for i in range(k)]
    res = solve_lexicographic(costs, A, [Fraction(1)] * m)
    z = [res.x[j] - res.x[k + j] for j in range(k)]
    sep = hull.canonical(z, 1 + dot(z, centroid))
    return MembershipResult(inside=False, separator=sep,
                            value_at_point=dot(sep.coeffs, p),
                            max_over_vertices=sep.bound)
