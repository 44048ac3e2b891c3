"""Correlation polytopes spanned by two-valued states, in exact arithmetic.

Vertices are truth assignments read as 0/1 vectors (optionally projected to a
subset of atoms); coordinates must be ints or Fractions.  Facets are
enumerated with the double description method inside the affine hull of the
vertex set; affine-hull equalities are reported separately from proper
facets.  Membership tests run an exact LP and return either convex weights
or a separating inequality: a violated hull equality or one of the
enumerated facets.  Both take all they derive from the vertex set (hull
equalities, reduced coordinates) from ``_Hull``.  Everything here is exact
rational or integer arithmetic; there is no floating-point fallback: a float
vertex or point coordinate, or inequality or equality entry, raises ``ValueError``
(``VertexSet``, ``canonical_inequality``, ``membership`` and
``axiom_implied`` check; the LP layer below takes what they pass).  Linear
algebra runs on integers, scaled by ``logic.scale_to_integers``: ``_rref``
and canonical forms eliminate with the exact LP's ``_pivot`` and ``_reduce``,
a ``VertexSet`` carries its vertices as int rows over a common denominator
(``vertices_from_states`` hands over its 0/1 rows, other sets are scaled
once on first use), which ``_Hull`` reads and the set's hash is taken
from, double description evaluates dense primitive int rows on primitive
int rays, with a ray's zero set an int bitmask, canonical forms are
primitive int rows [coeffs | bound], checked and sorted as such, that hand
the exact LP only ints, and membership scales the point once to ints over
its common denominator s, passes the LP integer right-hand sides, divides
its solution by s, and scans the facets as int rows.  Fractions are built
where a result leaves the module.

Canonical form of an inequality: coefficients and bound are coprime integers,
sense is <=, and among all representatives modulo the affine-hull equalities
the one with all-nonnegative coefficients and smallest coefficient sum is
chosen (smallest lexicographically on ties).  It comes from one LP in the
coordinates of the equalities' reduced row echelon form, after the
inequality's pivot coordinates are eliminated; when no nonnegative
representative exists, that pivot-eliminated form is kept.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Mapping, Sequence

from ctxlab.exactlp import (INFEASIBLE, OPTIMAL, _pivot, _primitive, _reduce, check_invariant,
                             solve_lexicographic, solve_standard)
from ctxlab.logic import (ATOM_TOKEN, InvalidInput, Logic, LogicError, _Record, _quote,
                          parse_rational, scale_to_integers)
from ctxlab.states import (TwoValuedState, UnknownAtom, _check_valid, _rows,
                           enumerate_states)

Vector = tuple[Fraction, ...]
# a term of parse_inequality: a sign, then text up to a sign not in a starred exponent
_TERM = re.compile(r"[+-]?\s*(?:(?=\.?\d)[\d_]*(?:\.[\d_]*)?[eE][+-](?=[^+-]*\*))?[^+-]*")


class MissingCoordinate(LogicError):
    """A point lacks a value for a coordinate the operation needs."""


def _require_exact(values, what: str) -> None:
    for x in values:
        if not isinstance(x, (int, Fraction)):
            raise ValueError(f"{what} {x!r} is not an int or a Fraction")


class VertexSet(_Record):
    """Deduplicated vertex list with multiplicities, sorted lexicographically.
    Construction raises ``ValueError`` for a coordinate that is not an int or
    a Fraction, a vertex whose length is not that of ``labels``, or counts
    that are not one count of at least 1 per vertex.  ``_Hull`` reads only the
    integer form ``_ints``, by which a set of integral vertices also hashes."""

    labels: tuple[str, ...]
    vertices: tuple[Vector, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        n = len(self.labels)
        if len(self.counts) != len(self.vertices):
            raise ValueError(f"{len(self.counts)} counts for {len(self.vertices)} vertices")
        if any(c < 1 for c in self.counts):
            raise ValueError(f"vertex count {min(self.counts)} is below 1")
        # one pass over the lengths and the coordinate types; the scan per
        # vertex below runs only to name the first bad vertex or value
        if set(map(len, self.vertices)) <= {n} and all(
                issubclass(t, (int, Fraction))
                for t in set(map(type, chain.from_iterable(self.vertices)))):
            return
        for v in self.vertices:
            if len(v) != n:
                raise ValueError(f"vertex has {len(v)} coordinates for {n} labels")
            _require_exact(v, "vertex coordinate")

    @cached_property
    def _ints(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(rows, scale): the vertices times scale, the lcm of their
        denominators, as int tuples."""
        n = len(self.labels)
        flat, scale = scale_to_integers([x for v in self.vertices for x in v])
        # one slice per vertex: with no labels each is empty (a stride of 0 fails)
        return tuple(tuple(flat[k * n:(k + 1) * n]) for k in range(len(self.vertices))), scale

    def __hash__(self) -> int:
        # hash(Fraction(k)) == hash(k): at scale 1 the rows hash as the vertices
        rows, scale = self._ints
        return hash((self.labels, rows if scale == 1 else self.vertices, self.counts))


class _LinearForm(_Record):
    labels: tuple[str, ...]
    coeffs: Vector
    bound: Fraction

    def value_on(self, point: Mapping[str, object]):
        total = 0
        for a, c in zip(self.labels, self.coeffs):
            if c == 0:
                continue
            if a not in point:
                raise MissingCoordinate(f"point lacks coordinate {a!r}")
            total += c * point[a]
        return total


class Inequality(_LinearForm):
    """coeffs . x <= bound over the named coordinates."""


class Equality(_LinearForm):
    """coeffs . x == bound on every vertex (affine hull description)."""


class InequalityEvaluation(_Record):
    value: object
    bound: object
    satisfied: bool


class Polytope(_Record):
    labels: tuple[str, ...]
    vertices: tuple[Vector, ...]
    counts: tuple[int, ...]
    affine_dim: int
    equalities: tuple[Equality, ...]
    facets: tuple[Inequality, ...]


class MembershipResult(_Record):
    """Inside: convex ``weights`` over the vertex list.  Outside: a
    ``separator`` facet (or violated hull equality) with its value at the
    point and its exact maximum over the vertices.  An empty vertex set (a
    logic with no two-valued states) contains no point: ``inside`` is False
    and every certificate field is None."""

    inside: bool
    weights: tuple[Fraction, ...] | None = None
    separator: Inequality | None = None
    value_at_point: Fraction | None = None
    max_over_vertices: Fraction | None = None


class ImplicationResult(_Record):
    """Whether max coeffs . p over the measure axiom region stays <= bound."""

    implied: bool
    optimum: Fraction | None
    witness: tuple[Fraction, ...] | None = None
    region_empty: bool = False


# ---------------------------------------------------------------- helpers

def _rref(rows: Sequence[Sequence]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free reduced row echelon form of int or Fraction rows: the
    nonzero rows, each a primitive positive multiple of its rational RREF row
    (entry c is ``Fraction(row[c], row[piv[j]])``), and the pivot columns."""
    rows = [_primitive(scale_to_integers(r)[0]) for r in rows]
    pivots: list[int] = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is not None:
            rows[r], rows[piv] = rows[piv], rows[r]
            _pivot(rows, r, col)  # rows are copies: _pivot may update them in place
            pivots.append(col)
    return rows[:len(pivots)], pivots


def _nullspace(rr: list[list[int]], piv: list[int], n: int) -> list[list[int]]:
    """Null-space basis of ``_rref`` rows: per free column f, the vector that
    is 1 at f and 0 at the other free ones, times the lcm of the pivots."""
    scale = lcm(*(row[p] for row, p in zip(rr, piv)))
    pivs = set(piv)
    out = []
    for f in range(n):
        if f in pivs:
            continue
        v = [0] * n
        v[f] = scale
        for row, p in zip(rr, piv):
            v[p] = -row[f] * (scale // row[p])
        out.append(v)
    return out


class _Hull:
    """The affine hull of a nonempty vertex set, and all that facet
    enumeration and membership read off it, in integers.

    ``ints`` and ``scale`` are the vertex set's integer form
    (``VertexSet._ints``); ``v0`` is the first row and ``basis``/``pivots`` the
    RREF of the differences v - v0.  A point x of the hull is fixed by its
    ``dim`` reduced coordinates, scale * x - v0 on the pivots.
    ``equality_ints`` are the canonical hull equalities as integer
    [coeffs | bound], one per null-space vector.  Their Fraction form
    (``equalities``), the vertices in reduced coordinates (``reduced``) and
    the equalities' ``rref`` are computed on first use: membership tests
    a point on ``equality_ints``, all that a point off the hull needs, and
    a point inside needs only ``reduced`` besides.
    """

    def __init__(self, vset: VertexSet):
        self.labels, n = vset.labels, len(vset.labels)
        self.ints, self.scale = ints, scale = vset._ints
        self.v0 = v0 = ints[0]
        self.basis, self.pivots = _rref([[a - b for a, b in zip(v, v0)] for v in ints[1:]])
        self.dim = len(self.pivots)
        self.equality_ints = []
        for a in _nullspace(self.basis, self.pivots, n):  # a.x == a.v0 / scale
            vec = _primitive([scale * c for c in a] + [sum(c * w for c, w in zip(a, v0))])
            self.equality_ints.append(vec if next(c for c in vec if c) > 0 else [-c for c in vec])

    @cached_property
    def equalities(self) -> tuple[Equality, ...]:
        return tuple(_from_row(Equality, self.labels, vec) for vec in self.equality_ints)

    @cached_property
    def reduced(self) -> list[tuple[int, ...]]:
        return [tuple(v[p] - self.v0[p] for p in self.pivots) for v in self.ints]

    @cached_property
    def rref(self) -> tuple[list[list[int]], list[int]]:
        return _rref(self.equality_ints)

    def canonical(self, red_coeffs: Sequence, red_bound) -> list[int]:
        """Canonical int row [coeffs | bound] of red_coeffs . y <= red_bound
        in reduced coordinates (ints)."""
        aug = [0] * len(self.labels) + [red_bound]
        for c, p in zip(red_coeffs, self.pivots):
            aug[p] = self.scale * c
            aug[-1] += c * self.v0[p]
        return _canonical_form(aug, *self.rref)

    def supports(self, row: list[int]) -> bool:
        """Whether the int row [coeffs | bound] holds on every vertex, with
        equality on at least one: the maximum over the vertices is the bound."""
        check_invariant(all(type(c) is int for c in row), "canonical form is integral")
        # map stops at the end of v, before the bound
        return max(sum(map(mul, row, v)) for v in self.ints) == self.scale * row[-1]


def canonical_inequality(labels: tuple[str, ...], coeffs: Sequence[Fraction],
                         bound: Fraction,
                         equalities: Sequence[Equality] = ()) -> Inequality:
    """Canonical representative of an inequality modulo hull equalities.

    Eliminates the pivot coordinates of the reduced row echelon form of the
    (consistent) equalities, then picks the representative with all
    coefficients nonnegative and minimal coefficient sum, refined to the
    lexicographically smallest coefficient vector; keeps the eliminated form
    when none is nonnegative.  Coprime-integer scaled; a float entry raises
    ``ValueError``, and inconsistent equalities raise ``InvalidInput``.
    """
    aug, rows = (*coeffs, bound), [(*e.coeffs, e.bound) for e in equalities]
    _require_exact((*aug, *chain.from_iterable(rows)), "coefficient or bound")
    rr, piv = _rref(rows)
    if piv and piv[-1] == len(coeffs):
        raise InvalidInput("equalities are inconsistent")
    return _from_row(Inequality, tuple(labels),
                     _canonical_form(scale_to_integers(aug)[0], rr, piv))


def _from_row(cls, labels: tuple[str, ...], row: Sequence[int]):
    """The ``Inequality`` or ``Equality`` of the int row [coeffs | bound]."""
    return cls(labels, tuple(map(Fraction, row[:-1])), Fraction(row[-1]))


def _canonical_form(aug: list[int], rr: list[list[int]], piv: list[int]) -> list[int]:
    """:func:`canonical_inequality` of the int row ``aug`` = [coeffs | bound]
    given the ``_rref`` of the equalities' rows [coeffs | bound], as a
    primitive int row.  Each step scales ``aug`` by a positive integer,
    which the final primitive scaling removes; ``_reduce`` may update
    ``aug`` in place."""
    aug = _reduce(aug, rr, piv)
    if rr:
        s = _nonneg_representative(aug[:-1], rr, piv)
        if s is not None:
            bound = aug[-1] + sum(s[p] * row[-1] / row[p] for row, p in zip(rr, piv))
            aug = scale_to_integers(s + [bound])[0]
    return _primitive(aug)


def _nonneg_representative(reduced: list[int], rr: list[list[int]],
                           piv: list[int]) -> list[Fraction] | None:
    """The representative s = reduced + sum_e t_e . rr_e with s >= 0, the
    smallest coefficient sum and then lexicographically smallest
    coefficients; None when no nonnegative representative exists.
    ``rr``/``piv`` are ``_rref`` rows (possibly with a bound column past
    the n coefficients) and ``reduced`` is zero on the pivots, so s itself
    is the LP variable: s - reduced lies in the row space exactly when
    v . s = v . reduced for every ``_nullspace`` vector v, one row each,
    reoptimized on a single tableau: first sum(s), then s_0, s_1, ...
    """
    n = len(reduced)
    rows = _nullspace(rr, piv, n)
    objectives = [[1] * n] + [[int(i == j) for j in range(n)] for i in range(n)]
    res = solve_lexicographic(objectives, rows,
                              [sum(a * b for a, b in zip(v, reduced)) for v in rows])
    if res.status == INFEASIBLE:
        return None
    check_invariant(res.status == OPTIMAL, "coefficient objectives are bounded below by 0")
    return list(res.x)


def _extreme_rays(M: list[Sequence]) -> list[tuple[int, ...]]:
    """Extreme rays of the pointed cone {z : M z >= 0}, double description.

    Requires the columns of M to span (the cone is pointed); rays come back
    as primitive integer vectors in a deterministic order.

    The work is exact and integral: each row is scaled to primitive integers
    (a positive row scaling leaves the cone unchanged), rays are primitive
    int tuples, and the zero set of a ray (the processed rows it is tight
    on) is an int bitmask with bit j for row j.  One ``_rref`` of
    [rows^T | I] seeds the cone: its pivot columns among the rows are the
    first d independent rows, and the identity block of RREF row j is
    column j of their inverse, the ray positive on chosen row j and zero on
    the other chosen rows; every zero set starts empty.  Then each row, the
    chosen ones first, takes one update: rays zero on it gain its bit, rays
    negative on it go, and each positive-negative pair that is adjacent (no
    third ray's zero set contains their common one) makes a new ray.  It
    combines its parents with positive weights and both are >= 0 on every
    processed row, so it is zero on a row exactly when both parents are:
    its zero set is theirs intersected, plus the row that created it.
    """
    n, d = len(M), len(M[0])
    rows = [_primitive(scale_to_integers(row)[0]) for row in M]
    rr, piv = _rref([list(col) + [int(j == t) for j in range(d)]
                     for t, col in enumerate(zip(*rows))])
    chosen = [p for p in piv if p < n]
    if len(chosen) < d:
        raise ValueError("cone is not pointed: constraint rows do not span")
    rays = [tuple(_primitive(row[n:])) for row in rr]
    zero_sets = [0] * d

    for i in chosen + sorted(set(range(n)).difference(chosen)):
        bit = 1 << i
        vals = [sum(map(mul, rows[i], r)) for r in rays]
        pos = [t for t, v in enumerate(vals) if v > 0]
        neg = [t for t, v in enumerate(vals) if v < 0]
        new_rays: list[tuple[int, ...]] = []
        new_zero: list[int] = []
        for p in pos:
            for m_ in neg:
                common = zero_sets[p] & zero_sets[m_]
                if common.bit_count() < d - 2:
                    continue
                if any(common & ~zs == 0 for t, zs in enumerate(zero_sets)
                       if t != p and t != m_):
                    continue
                vp, vm = vals[p], vals[m_]
                w = [vp * bm - vm * bp for bp, bm in zip(rays[p], rays[m_])]
                g = gcd(*w)
                new_rays.append(tuple(v // g for v in w))
                new_zero.append(common | bit)
        keep = pos + [t for t, v in enumerate(vals) if v == 0]
        rays = [rays[t] for t in keep] + new_rays
        zero_sets = [zero_sets[t] | bit if vals[t] == 0 else zero_sets[t]
                     for t in keep] + new_zero

    for r in rays:  # internal consistency: every kept ray satisfies the cone
        check_invariant(all(sum(map(mul, row, r)) >= 0 for row in rows),
                        "ray leaves the cone")
    rays.sort()
    return rays


# ---------------------------------------------------------------- public api

_BIT_FRACTIONS = (Fraction(0), Fraction(1))  # shared by every 0/1 coordinate


def vertices_from_states(logic: Logic,
                         states: Sequence[TwoValuedState] | None = None,
                         project: Sequence[str] | None = None) -> VertexSet:
    """States as 0/1 vertices over ``project`` (default: all atoms).

    Projection can collapse states onto the same vertex; duplicates are
    merged and counted.  Vertices come back sorted lexicographically.  A
    projection naming an unknown atom raises ``UnknownAtom``, one naming an
    atom twice ``InvalidInput``.
    """
    if states is None:
        states = enumerate_states(logic)
    if project is None:
        labels = logic.atoms
    else:
        labels = tuple(project)
        seen = set()
        for a in labels:
            if a not in logic.atom_index:
                raise UnknownAtom(f"projection names unknown atom {a!r}")
            if a in seen:
                raise InvalidInput(f"projection repeats atom {a!r}")
            seen.add(a)
    counted = Counter(_rows(logic, states, labels))
    ordered = sorted(counted)
    vset = VertexSet(labels=labels,
                     vertices=tuple(tuple(map(_BIT_FRACTIONS.__getitem__, v)) for v in ordered),
                     counts=tuple(counted[v] for v in ordered))
    vset.__dict__["_ints"] = tuple(ordered), 1  # the cached integer form, already built
    return vset


@lru_cache(maxsize=256)
def facet_enumeration(vset: VertexSet) -> Polytope:
    """All facets of conv(vertices) inside its affine hull, plus the hull
    equalities, everything canonicalized and sorted.  Results are memoized;
    vertex sets hash by value.  An empty vertex set raises ``InvalidInput``."""
    if not vset.vertices:
        raise InvalidInput("no vertices")
    hull = _Hull(vset)
    M = [(1,) + y for y in hull.reduced]
    rows = [hull.canonical(tuple(-v for v in ray[1:]), ray[0])
            for ray in _extreme_rays(M) if any(ray[1:])]
    for row in rows:  # soundness: valid on every vertex and tight somewhere
        check_invariant(hull.supports(row), "facet not supporting")
    rows.sort()  # by coefficients, then bound: the rows are of one length
    return Polytope(vset.labels, vset.vertices, vset.counts, hull.dim, hull.equalities,
                    tuple(_from_row(Inequality, vset.labels, row) for row in rows))


def evaluate_inequality(ineq: Inequality, point: Mapping[str, object],
                        ) -> InequalityEvaluation:
    """Value of the inequality functional at a point; exact for rationals."""
    value = ineq.value_on(point)
    return InequalityEvaluation(value=value, bound=ineq.bound,
                                satisfied=bool(value <= ineq.bound))


def membership(point: Mapping[str, object], vset: VertexSet) -> MembershipResult:
    """Exact convex-hull membership with certificates both ways.

    Inside yields weights over the vertex list, the basic solution Bland's
    rule reaches.  Outside yields a violated affine-hull equality (oriented
    toward the point) when the point leaves the hull, else a facet a.x <= b
    with the largest polar ratio (a.p - a.c) / (b - a.c), c the centroid of
    the deduplicated vertices; ties go to the facet whose polar vertex z
    (the facet as z.(y - c) <= 1 in the hull's reduced coordinates y) is
    lexicographically smallest, scanned as int rows from the memoized
    ``facet_enumeration(vset)``.  The point (ints or Fractions) is scaled
    once to ints over its common denominator s: the LP's right-hand sides
    are s times the reduced point and the convexity row's 1, which changes
    no pivot, and its solution over s is the weights.
    """
    p = tuple(point[a] if a in point else _missing(a) for a in vset.labels)
    _require_exact(p, "point coordinate")
    if not vset.vertices:
        return MembershipResult(inside=False)
    hull = _Hull(vset)
    ints, s = scale_to_integers(p)
    for vec in hull.equality_ints:  # map stops at the end of ints, before the bound
        if (lhs := sum(map(mul, vec, ints))) != s * vec[-1]:
            row = vec if lhs > s * vec[-1] else [-v for v in vec]
            break
    else:
        A = [list(col) for col in zip(*hull.reduced)] + [[1] * len(hull.reduced)]
        b = [hull.scale * ints[q] - s * hull.v0[q] for q in hull.pivots] + [s]
        res = solve_standard([0] * len(A[0]), A, b)
        if res.status == OPTIMAL:
            return MembershipResult(inside=True, weights=tuple(x / s for x in res.x))
        row = _separator(hull, ints, s, facet_enumeration(vset).facets)
    return MembershipResult(inside=False, separator=_from_row(Inequality, vset.labels, row),
                            value_at_point=Fraction(sum(map(mul, row, ints)), s),
                            max_over_vertices=Fraction(row[-1]))


def _missing(a: str):
    raise MissingCoordinate(f"point lacks coordinate {a!r}")


def _separator(hull: _Hull, point: list[int], s: int,
               facets: Sequence[Inequality]) -> list[int]:
    """The int row [coeffs | bound] of the facet :func:`membership`
    specifies for the in-hull point ``point`` / s, each of the integral
    ``facets`` read as one int row.  With m vertices, M = m * scale and u =
    a.T, T the sum of the scaled vertices, the polar ratio of a.x <= b is
    (M a.point - s u) / (s (M b - u)), with M b - u > 0; a tied facet's
    polar vertex is z_j = m a.basis_j / (basis_j[pivot_j] (M b - u)), ranked
    as the ints z_j L basis_j[pivot_j] / m, L the lcm of the tied M b - u."""
    m = len(hull.ints)
    M, total = m * hull.scale, [sum(col) for col in zip(*hull.ints)]
    best, tied = (s, 1), []  # ratio 1: the point on the facet's plane
    for f in facets:
        row = [c.numerator for c in f.coeffs] + [f.bound.numerator]
        u = sum(map(mul, row, total))
        num, den = M * sum(map(mul, row, point)) - s * u, M * row[-1] - u
        if (order := num * best[1] - best[0] * den) > 0:
            best, tied = (num, den), []
        if order >= 0:
            tied.append((row, den))
    check_invariant(best[0] > s * best[1], "a point outside the polytope violates a facet")
    L = lcm(*(den for _, den in tied))
    return min(tied, key=lambda t: [sum(map(mul, t[0], b)) * (L // t[1]) for b in hull.basis])[0]


def axiom_implied(logic: Logic, ineq: Inequality) -> ImplicationResult:
    """Does the inequality follow from nonnegativity plus unit context sums?

    Maximizes the inequality functional over {p >= 0, sum over each context
    = 1} with an exact LP and compares the optimum against the bound.  The
    witness of a failed check is the optimal basic solution Bland's rule
    reaches, so it depends on the pivot path.  A float coefficient or bound
    raises ``ValueError``; a logic that does not validate raises
    ``InvalidInput``, also a ``ValueError``, naming the failed rules.
    """
    _check_valid(logic)
    for a in ineq.labels:
        if a not in logic.atom_index:
            raise UnknownAtom(f"inequality names unknown atom {a!r}")
    _require_exact((*ineq.coeffs, ineq.bound), "coefficient or bound")
    coeff = {a: c for a, c in zip(ineq.labels, ineq.coeffs)}
    c = [-coeff.get(a, 0) for a in logic.atoms]
    A = [[int(a in ctx) for a in logic.atoms] for ctx in logic.context_sets]
    b = [1] * len(A)
    res = solve_standard(c, A, b)
    if res.status == INFEASIBLE:
        return ImplicationResult(implied=True, optimum=None, region_empty=True)
    check_invariant(res.status == OPTIMAL, "axiom region is bounded: every atom lies in a context")
    optimum = -res.objective
    implied = optimum <= ineq.bound
    witness = None if implied else res.x
    return ImplicationResult(implied=implied, optimum=optimum, witness=witness)


def parse_inequality(text: str) -> Inequality:
    """Parse ``"1 + 3 + 5 + 7 + 9 <= 2"`` style inequality expressions.

    Terms are ``atom`` or ``coeff*atom`` with rational coefficients; bare
    tokens are always atom names (atom ids are frequently numeric), so
    constants other than the right-hand bound need an explicit coefficient
    star.  A ``+`` or ``-`` right after the ``e`` of a number that starts a
    term is the exponent's sign when the term has a star: ``1e-2*x`` is
    ``1/100*x``, while ``1e-2`` is the atoms ``1e`` and ``2``.  ``<=`` and
    ``>=`` are accepted; the latter is normalized by negation.
    """
    sense = "<=" if "<=" in text else ">="
    if sense not in text:
        raise InvalidInput("inequality needs '<=' or '>='")
    lhs, rhs = text.split(sense, 1)
    bound = _rational(rhs.strip(), "bad bound", rhs.strip())

    coeffs: dict[str, Fraction] = {}  # atoms in first-seen order
    for term in _TERM.findall(lhs):
        term = term.removeprefix("+").strip()
        if not term:
            continue
        sign = Fraction(-1 if term.startswith("-") else 1)
        term = term.removeprefix("-").strip()
        if "*" in term:
            num, atom = term.split("*", 1)
            coeff = sign * _rational(num.strip(), "bad coefficient in term", term)
            atom = atom.strip()
        else:
            coeff, atom = sign, term
        if not ATOM_TOKEN.match(atom):
            raise InvalidInput(f"bad atom {atom!r} in term {term!r}")
        coeffs[atom] = coeffs.get(atom, 0) + coeff
    orient = Fraction(1 if sense == "<=" else -1)
    return Inequality(tuple(coeffs), tuple(orient * c for c in coeffs.values()), orient * bound)


def _rational(text: str, what: str, shown: str) -> Fraction:
    try:
        return parse_rational(text)
    except OverflowError as err:
        raise InvalidInput(f"{what} {_quote(shown)}: {err}") from None
    except (ValueError, ZeroDivisionError) as err:
        raise InvalidInput(f"{what} {shown!r}") from err
