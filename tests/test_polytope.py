from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import chain, permutations
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ctxlab import polytope
from ctxlab.catalog import catalog_get
from ctxlab.exactlp import InternalError, solve_standard
from ctxlab.logic import scale_to_integers
from ctxlab.polytope import (Equality, Inequality, MembershipResult,
                             MissingCoordinate, VertexSet, _extreme_rays,
                             _nonneg_representative, _rref,
                             axiom_implied, canonical_inequality,
                             evaluate_inequality, facet_enumeration,
                             membership, parse_inequality, vertices_from_states)
from ctxlab.states import UnknownAtom, enumerate_states
from canonical_oracle import (canonical_form_oracle, eliminate_pivots,
                              nonneg_representative)
from dd_oracle import extreme_rays
from helpers import PRISM, load_logic
from hull_oracle import FractionHull, brute_facets, fraction_membership
from rref_oracle import dot, rref
from test_golden import WITH_LOGIC, WITH_STATES
from test_golden import _points as golden_points

F = Fraction


def vset(labels, rows):
    rows = sorted(tuple(F(x) for x in r) for r in rows)
    return VertexSet(tuple(labels), tuple(rows), tuple(1 for _ in rows))


def facet_pairs(poly):
    return {(f.coeffs, f.bound) for f in poly.facets}


def int_coeffs(f):
    return tuple(int(c) for c in f.coeffs)


class TestVerticesFromStates:
    def test_full_projection_is_sorted_bit_vectors(self):
        lg = load_logic("pentagon")
        vs = vertices_from_states(lg)
        assert vs.labels == lg.atoms
        assert len(vs.vertices) == 11
        assert list(vs.vertices) == sorted(vs.vertices)
        assert all(c == 1 for c in vs.counts)
        states = enumerate_states(lg)
        assert {tuple(F(s[a]) for a in lg.atoms) for s in states} == set(vs.vertices)

    def test_projection_merges_with_counts(self):
        lg = load_logic("pentagon")
        vs = vertices_from_states(lg, project=("1",))
        assert vs.vertices == ((F(0),), (F(1),))
        # atom 1 is true in 3 of the 11 states
        assert vs.counts == (8, 3)
        for name in ("pentagon", "specker_bug_combo", "tifs_fig5a"):
            lg = load_logic(name)
            states = enumerate_states(lg)
            for labels in (lg.atoms[::-3], lg.atoms[1:2]):
                vs = vertices_from_states(lg, project=labels)
                assert list(vs.vertices) == sorted(vs.vertices)
                assert all(type(x) is F for v in vs.vertices for x in v)
                assert dict(zip(vs.vertices, vs.counts)) == Counter(
                    tuple(F(s[a]) for a in labels) for s in states)

    def test_empty_projection_is_one_point(self):
        # a zip of no columns yields nothing; every state still counts once
        lg = load_logic("pentagon")
        n = len(enumerate_states(lg))
        assert vertices_from_states(lg, project=()) == VertexSet((), ((),), (n,))

    def test_projection_unknown_atom(self):
        lg = load_logic("pentagon")
        with pytest.raises(UnknownAtom):
            vertices_from_states(lg, project=("nope",))

    def test_projection_duplicate_atom(self):
        lg = load_logic("pentagon")
        with pytest.raises(ValueError):
            vertices_from_states(lg, project=("1", "1"))


class TestFacetEnumeration:
    def test_unit_segment(self):
        P = facet_enumeration(vset(["x"], [[0], [1]]))
        assert P.affine_dim == 1
        assert P.equalities == ()
        assert facet_pairs(P) == {((F(-1),), F(0)), ((F(1),), F(1))}

    def test_unit_triangle(self):
        P = facet_enumeration(vset(["x", "y"], [[0, 0], [1, 0], [0, 1]]))
        assert P.affine_dim == 2
        assert facet_pairs(P) == {
            ((F(-1), F(0)), F(0)),
            ((F(0), F(-1)), F(0)),
            ((F(1), F(1)), F(1)),
        }

    def test_probability_simplex_has_hull_equality(self):
        P = facet_enumeration(
            vset(["x", "y", "z"], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
        assert P.affine_dim == 2
        assert [(e.coeffs, e.bound) for e in P.equalities] == [
            ((F(1), F(1), F(1)), F(1))]
        # nonnegativity facets in minimal-nonnegative canonical form
        assert facet_pairs(P) == {
            ((F(0), F(1), F(1)), F(1)),
            ((F(1), F(0), F(1)), F(1)),
            ((F(1), F(1), F(0)), F(1)),
        }

    def test_single_point(self):
        P = facet_enumeration(vset(["x", "y"], [[1, 0]]))
        assert P.affine_dim == 0
        assert P.facets == ()
        point = {"x": F(1), "y": F(0)}
        assert all(e.value_on(point) == e.bound for e in P.equalities)

    def test_empty_vertex_set_rejected(self):
        with pytest.raises(ValueError):
            facet_enumeration(VertexSet(("x",), (), ()))

    def test_pentagon_odd_projection_facets(self):
        lg = load_logic("pentagon")
        vs = vertices_from_states(lg, project=("1", "3", "5", "7", "9"))
        P = facet_enumeration(vs)
        assert len(vs.vertices) == 11
        assert P.affine_dim == 5
        assert P.equalities == ()
        got = {(int_coeffs(f), int(f.bound)) for f in P.facets}
        assert got == {
            ((-1, 0, 0, 0, 0), 0), ((0, -1, 0, 0, 0), 0),
            ((0, 0, -1, 0, 0), 0), ((0, 0, 0, -1, 0), 0),
            ((0, 0, 0, 0, -1), 0),
            ((1, 1, 0, 0, 0), 1), ((0, 1, 1, 0, 0), 1),
            ((0, 0, 1, 1, 0), 1), ((0, 0, 0, 1, 1), 1),
            ((1, 0, 0, 0, 1), 1),
            ((1, 1, 1, 1, 1), 2),
        }

    def test_triangle_matches_brute_oracle(self):
        lg = load_logic("triangle4d")
        vs = vertices_from_states(lg)
        P = facet_enumeration(vs)
        assert P.affine_dim == 6
        assert len(P.facets) == 10
        assert facet_pairs(P) == brute_facets(vs)

    def test_pentagon_projection_matches_brute_oracle(self):
        lg = load_logic("pentagon")
        vs = vertices_from_states(lg, project=("1", "3", "5", "7", "9"))
        assert facet_pairs(facet_enumeration(vs)) == brute_facets(vs)

    def test_bug_has_the_pairwise_bound_as_facet(self):
        lg = load_logic("specker_bug")
        vs = vertices_from_states(lg)
        P = facet_enumeration(vs)
        target = canonical_inequality(
            vs.labels,
            [F(1) if a in ("a", "b") else F(0) for a in vs.labels],
            F(1), P.equalities)
        assert (target.coeffs, target.bound) in facet_pairs(P)

    @pytest.mark.parametrize("name", ["triangle4d", "square4d", "pentagon",
                                      "specker_bug"])
    def test_soundness_and_tightness(self, name):
        lg = load_logic(name)
        vs = vertices_from_states(lg)
        P = facet_enumeration(vs)
        for eq in P.equalities:
            assert all(dot(eq.coeffs, v) == eq.bound for v in vs.vertices)
        for f in P.facets:
            vals = [dot(f.coeffs, v) for v in vs.vertices]
            assert max(vals) == f.bound
            tight = [v for v, val in zip(vs.vertices, vals) if val == f.bound]
            diffs = [[a - b for a, b in zip(t, tight[0])] for t in tight[1:]]
            assert len(rref(diffs)[1]) == P.affine_dim - 1

    def test_facets_sorted_and_deterministic(self):
        lg = load_logic("pentagon")
        vs = vertices_from_states(lg)
        P1 = facet_enumeration(vs)
        P2 = facet_enumeration(vs)
        assert P1.facets == P2.facets
        assert list(P1.facets) == sorted(P1.facets,
                                         key=lambda f: (f.coeffs, f.bound))

    @pytest.mark.parametrize("shift", [1, -1])
    @pytest.mark.parametrize("call", ["facet_enumeration", "membership"])
    def test_soundness_check_rejects_a_shifted_bound(self, monkeypatch, shift, call):
        # every canonical form, facet or separator, is the int row
        # [coeffs | bound] that _canonical_form returns
        canonical = polytope._canonical_form

        def shifted(*args):
            row = canonical(*args)
            return [*row[:-1], row[-1] + shift]

        vs = vset(["x", "y"], [[0, 0], [1, 0], [0, 1]])
        facet_enumeration.cache_clear()
        monkeypatch.setattr(polytope, "_canonical_form", shifted)
        with pytest.raises(InternalError, match="facet not supporting"):
            if call == "facet_enumeration":
                facet_enumeration(vs)
            else:
                membership({"x": F(1), "y": F(1)}, vs)
        facet_enumeration.cache_clear()


class TestCanonicalInequality:
    def test_integer_scaling_without_equalities(self):
        f = canonical_inequality(("x", "y"), [F(1, 2), F(1, 4)], F(3, 4))
        assert (f.coeffs, f.bound) == ((F(2), F(1)), F(3))

    def test_negative_stays_without_equalities(self):
        f = canonical_inequality(("x",), [F(-2)], F(0))
        assert (f.coeffs, f.bound) == ((F(-1),), F(0))

    def test_equality_shift_reaches_nonnegative(self):
        eq = Equality(("x", "y", "z"), (F(1), F(1), F(1)), F(1))
        f = canonical_inequality(("x", "y", "z"), [F(-1), F(0), F(0)],
                                 F(0), [eq])
        assert (f.coeffs, f.bound) == ((F(0), F(1), F(1)), F(1))

    def test_invariant_under_equality_admixture(self):
        lg = load_logic("pentagon")
        vs = vertices_from_states(lg)
        P = facet_enumeration(vs)
        odd = [F(1) if a in ("1", "3", "5", "7", "9") else F(0)
               for a in vs.labels]
        base = canonical_inequality(vs.labels, odd, F(2), P.equalities)
        assert int_coeffs(base) == tuple(int(c) for c in odd)
        assert base.bound == 2
        eq = P.equalities[0]
        shifted = [c + 3 * e for c, e in zip(odd, eq.coeffs)]
        again = canonical_inequality(vs.labels, shifted, F(2) + 3 * eq.bound,
                                     P.equalities)
        assert again == base

    @pytest.mark.parametrize("coeffs, bound, equalities, bad", [
        ([0.1, 0.2], 0.3, (), "0.1"),
        ([F(1), F(2)], 3.0, (), "3.0"),
        ([F(1), F(2)], F(3), (Equality(("x", "y"), (F(1), 0.5), F(1)),), "0.5"),
    ])
    def test_float_entry_raises(self, coeffs, bound, equalities, bad):
        # Fraction(0.1) is a binary expansion: x + 2y <= 3 would come back as
        # 3602879701896397 x + 7205759403792794 y <= 10808639105689190
        with pytest.raises(ValueError) as err:
            canonical_inequality(("x", "y"), coeffs, bound, equalities)
        assert str(err.value) == f"coefficient or bound {bad} is not an int or a Fraction"
        f = canonical_inequality(("x", "y"), [F(1, 10), F(1, 5)], F(3, 10))
        assert (f.coeffs, f.bound) == ((F(1), F(2)), F(3))

    def test_fallback_when_no_nonnegative_representative(self):
        # hull {x - y = 0}: representatives of -x <= 0 are (-1+t, -t), never
        # componentwise nonnegative, so the pivot coordinate x is eliminated
        eq = Equality(("x", "y"), (F(1), F(-1)), F(0))
        f = canonical_inequality(("x", "y"), [F(-1), F(0)], F(0), [eq])
        assert (f.coeffs, f.bound) == ((F(0), F(-1)), F(0))

    @given(st.lists(st.integers(-4, 4), min_size=5, max_size=5),
           st.integers(-3, 3))
    @settings(max_examples=25, deadline=None)
    def test_admixture_invariance_random(self, mults, extra):
        lg = load_logic("pentagon")
        vs = vertices_from_states(lg)
        P = facet_enumeration(vs)
        odd = [F(1) if a in ("1", "3", "5", "7", "9") else F(0)
               for a in vs.labels]
        base = canonical_inequality(vs.labels, odd, F(2), P.equalities)
        coeffs = list(odd)
        bound = F(2)
        for m, eq in zip(mults, P.equalities):
            coeffs = [c + m * e for c, e in zip(coeffs, eq.coeffs)]
            bound += m * eq.bound
        scale = F(max(extra, 1))
        f = canonical_inequality(vs.labels, [scale * c for c in coeffs],
                                 scale * bound, P.equalities)
        assert f == base

    @given(st.integers(1, 5).flatmap(lambda n: st.integers(1, n).flatmap(lambda q: st.tuples(
        st.lists(st.integers(-4, 4), min_size=n, max_size=n),
        st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                 min_size=q, max_size=q)))))
    @example(([-1, -1], [[1, -1]]))  # no nonnegative representative
    @example(([3, -1, 2], [[1, 1, 1]]))
    @settings(max_examples=100, deadline=None)
    def test_nonneg_representative_matches_lp_per_objective_oracle(self, args):
        # the kernel takes the fraction-free _rref rows and the eliminated
        # coefficients as ints (L times the rational ones), and returns L
        # times the representative
        coeffs, rows = args
        coeffs = [F(v) for v in coeffs]
        rows = [[F(v) for v in row] for row in rows]
        rr, piv = rref(rows)
        assume(len(piv) == len(rows))
        t = nonneg_representative(coeffs, rows)
        expected = None if t is None else [
            c + sum(te * row[i] for te, row in zip(t, rows))
            for i, c in enumerate(coeffs)]
        reduced, L = scale_to_integers(eliminate_pivots(coeffs, rr, piv))
        got = _nonneg_representative(reduced, *_rref(rows))
        assert got == (None if expected is None else [L * s for s in expected])

    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.lists(st.integers(-4, 4), min_size=n, max_size=n),
        st.integers(-4, 4),
        st.lists(st.integers(-2, 2), min_size=n, max_size=n),
        st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                 min_size=1, max_size=n),
        st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                 max_size=2))))
    @example(([-1, 0], 0, [0, 0], [[1, -1]], []))  # no nonnegative representative
    @example(([1, -2, 3], 2, [1, 0, 2], [[1, 1, 0], [0, 1, 1], [1, 0, 1]], []))  # q = n
    @example(([2, -1, 0], 1, [0, 1, 0], [[1, 1, 1]], [(1, 1), (2, 0)]))  # dependent rows
    @settings(max_examples=200, deadline=None)
    def test_canonical_inequality_matches_oracle(self, args):
        # consistent systems: every equality holds at the point x0; the extra
        # rows are sums of existing ones, so the system may have dependent rows
        coeffs, bound, x0, rows, extra = args
        rows = list(rows)
        for i, j in extra:
            rows.append([a + b for a, b in zip(rows[i % len(rows)],
                                               rows[j % len(rows)])])
        labels = tuple(f"x{i}" for i in range(len(coeffs)))
        equalities = [Equality(labels, tuple(F(v) for v in row),
                               F(sum(a * x for a, x in zip(row, x0))))
                      for row in rows]
        f = canonical_inequality(labels, [F(v) for v in coeffs], F(bound), equalities)
        assert (f.coeffs, f.bound) == canonical_form_oracle(coeffs, bound, equalities)

    def test_inconsistent_equalities_rejected(self):
        eqs = [Equality(("x",), (F(1),), F(0)), Equality(("x",), (F(1),), F(1))]
        with pytest.raises(ValueError, match="inconsistent"):
            canonical_inequality(("x",), [F(1)], F(1), eqs)


class TestEvaluateInequality:
    def test_exact_value(self):
        ineq = Inequality(("x", "y"), (F(2), F(-1)), F(1))
        r = evaluate_inequality(ineq, {"x": F(1, 2), "y": F(1, 4)})
        assert r.value == F(3, 4)
        assert r.satisfied

    def test_boundary_counts_as_satisfied(self):
        ineq = Inequality(("x",), (F(1),), F(1))
        assert evaluate_inequality(ineq, {"x": F(1)}).satisfied

    def test_violation(self):
        ineq = Inequality(("x",), (F(1),), F(1))
        r = evaluate_inequality(ineq, {"x": F(3, 2)})
        assert not r.satisfied
        assert r.value == F(3, 2)

    def test_missing_coordinate(self):
        ineq = Inequality(("x", "y"), (F(1), F(1)), F(1))
        with pytest.raises(MissingCoordinate):
            evaluate_inequality(ineq, {"x": F(1)})

    def test_zero_coefficient_not_required(self):
        ineq = Inequality(("x", "y"), (F(1), F(0)), F(1))
        assert evaluate_inequality(ineq, {"x": F(0)}).satisfied

    def test_float_values(self):
        ineq = Inequality(("x",), (F(1),), F(1))
        r = evaluate_inequality(ineq, {"x": 0.25})
        assert r.satisfied and r.value == 0.25


class TestMembership:
    def test_vertex_is_inside(self):
        lg = load_logic("pentagon")
        vs = vertices_from_states(lg)
        point = dict(zip(vs.labels, vs.vertices[0]))
        r = membership(point, vs)
        assert r.inside
        assert sum(r.weights) == 1
        assert all(w >= 0 for w in r.weights)

    def test_mixture_is_inside_with_reproducing_weights(self):
        lg = load_logic("pentagon")
        vs = vertices_from_states(lg)
        n = len(vs.vertices)
        point = {a: sum(v[i] for v in vs.vertices) / n
                 for i, a in enumerate(vs.labels)}
        r = membership(point, vs)
        assert r.inside
        assert sum(r.weights) == 1 and all(w >= 0 for w in r.weights)
        for i, a in enumerate(vs.labels):
            mixed = sum(w * v[i] for w, v in zip(r.weights, vs.vertices))
            assert mixed == point[a]

    def test_exotic_pentagon_outside_full_space(self):
        lg = load_logic("pentagon")
        vs = vertices_from_states(lg)
        odd = ("1", "3", "5", "7", "9")
        point = {a: F(1, 2) if a in odd else F(0) for a in lg.atoms}
        r = membership(point, vs)
        assert not r.inside
        sep = r.separator
        assert {a for a, c in zip(sep.labels, sep.coeffs) if c != 0} == set(odd)
        assert set(sep.coeffs) == {F(0), F(1)}
        assert sep.bound == 2
        assert r.value_at_point == F(5, 2)
        assert r.max_over_vertices == 2

    def test_exotic_pentagon_outside_projected(self):
        lg = load_logic("pentagon")
        vs = vertices_from_states(lg, project=("1", "3", "5", "7", "9"))
        point = {a: F(1, 2) for a in vs.labels}
        r = membership(point, vs)
        assert not r.inside
        assert int_coeffs(r.separator) == (1, 1, 1, 1, 1)
        assert r.separator.bound == 2
        assert r.value_at_point == F(5, 2)
        assert r.max_over_vertices == 2

    def test_outside_points_read_the_cached_facets(self):
        """A point in the hull but outside the polytope takes its separator
        from ``facet_enumeration``: a query on an equal vertex set, built
        separately, reads the facets the first query enumerated."""
        facet_enumeration.cache_clear()
        first, second = (vertices_from_states(load_logic("pentagon")) for _ in range(2))
        assert first == second and first is not second
        point = {a: F(int(a) % 2, 2) for a in first.labels}  # 1/2 on the odd atoms
        for vs in (first, second):
            r = membership(point, vs)
            assert not r.inside and r.separator in facet_enumeration(vs).facets
        assert facet_enumeration.cache_info()[:2] == (3, 1)  # hits, misses

    def test_off_hull_point_gets_equality_separator(self):
        lg = load_logic("pentagon")
        vs = vertices_from_states(lg)
        point = {a: F(1) for a in vs.labels}
        r = membership(point, vs)
        assert not r.inside
        assert r.value_at_point > r.max_over_vertices

    def test_separator_is_tight_on_vertices(self):
        lg = load_logic("triangle4d")
        vs = vertices_from_states(lg)
        point = {a: F(1, 2) if a in ("1", "4", "7") else F(0)
                 for a in vs.labels}
        r = membership(point, vs)
        assert not r.inside
        vals = [dot(r.separator.coeffs, v) for v in vs.vertices]
        assert max(vals) == r.separator.bound == r.max_over_vertices
        assert r.value_at_point > r.max_over_vertices

    def test_missing_coordinate(self):
        lg = load_logic("pentagon")
        vs = vertices_from_states(lg)
        with pytest.raises(MissingCoordinate):
            membership({"1": F(1)}, vs)

    def test_float_coordinate_raises(self):
        # Fraction(0.1) is a binary expansion, and with it the triangle's
        # point (0.1, 0.2, 0.7) leaves the hull x + y + z = 1
        vs = vset(["x", "y", "z"], [[0, 0, 1], [0, 1, 0], [1, 0, 0]])
        with pytest.raises(ValueError) as err:
            membership({"x": 0.1, "y": 0.2, "z": 0.7}, vs)
        assert str(err.value) == "point coordinate 0.1 is not an int or a Fraction"
        assert membership({"x": F(1, 10), "y": F(1, 5), "z": F(7, 10)}, vs).inside

    def test_deterministic(self):
        lg = load_logic("pentagon")
        vs = vertices_from_states(lg)
        point = {a: F(1, 2) if a in ("1", "3", "5", "7", "9") else F(0)
                 for a in lg.atoms}
        assert membership(point, vs) == membership(point, vs)

    def test_single_point_set(self):
        vs = vset(["x", "y"], [[1, 0]])
        r = membership({"x": F(1), "y": F(0)}, vs)
        assert r.inside and r.weights == (F(1),)
        r2 = membership({"x": F(0), "y": F(0)}, vs)
        assert not r2.inside
        empty = vset(["x", "y"], [])
        r3 = membership({"x": F(0), "y": F(0)}, empty)
        assert r3 == MembershipResult(inside=False)

    @given(st.lists(st.integers(0, 100), min_size=11, max_size=11))
    @settings(max_examples=30, deadline=None)
    def test_random_mixtures_inside(self, raw):
        lg = load_logic("pentagon")
        vs = vertices_from_states(lg)
        total = sum(raw)
        if total == 0:
            raw = [1] * len(raw)
            total = len(raw)
        weights = [F(r, total) for r in raw]
        point = {a: sum(w * v[i] for w, v in zip(weights, vs.vertices))
                 for i, a in enumerate(vs.labels)}
        assert membership(point, vs).inside


class TestAxiomImplied:
    def test_triangle_facets_all_but_odd_cycle(self):
        lg = load_logic("triangle4d")
        P = facet_enumeration(vertices_from_states(lg))
        failing = [f for f in P.facets if not axiom_implied(lg, f).implied]
        assert [int_coeffs(f) for f in failing] == [(1, 0, 0, 1, 0, 0, 1, 0, 0)]
        r = axiom_implied(lg, failing[0])
        assert r.optimum == F(3, 2)
        assert r.witness is not None
        # the witness is a measure: nonnegative with unit context sums
        w = dict(zip(lg.atoms, r.witness))
        assert all(v >= 0 for v in w.values())
        for ctx in lg.contexts:
            assert sum(w[a] for a in ctx) == 1

    def test_square_facets_all_implied(self):
        lg = load_logic("square4d")
        P = facet_enumeration(vertices_from_states(lg))
        assert len(P.facets) == 12
        assert all(axiom_implied(lg, f).implied for f in P.facets)

    def test_pentagon_odd_sum_not_implied(self):
        lg = load_logic("pentagon")
        ineq = Inequality(("1", "3", "5", "7", "9"),
                          (F(1),) * 5, F(2))
        r = axiom_implied(lg, ineq)
        assert not r.implied
        assert r.optimum == F(5, 2)

    def test_context_restriction_is_implied(self):
        lg = load_logic("pentagon")
        ineq = Inequality(("1", "2"), (F(1), F(1)), F(1))
        r = axiom_implied(lg, ineq)
        assert r.implied and r.optimum == 1

    def test_nonnegative_axiom_combination_passes(self):
        # twice the {1,2,3} context-sum equality, a nonnegative axiom combo
        lg = load_logic("pentagon")
        ineq = Inequality(("1", "2", "3"), (F(2), F(2), F(2)), F(2))
        assert axiom_implied(lg, ineq).implied

    def test_unknown_atom(self):
        lg = load_logic("pentagon")
        with pytest.raises(UnknownAtom):
            axiom_implied(lg, Inequality(("zz",), (F(1),), F(1)))

    def test_rational_bound_is_exact(self):
        # the float 0.3 of test_public_functions_refuse_floats, as a Fraction
        r = axiom_implied(load_logic("pentagon"), Inequality(("1",), (F(3, 10),), F(3, 10)))
        assert r.implied and r.optimum == F(3, 10)

    def test_region_not_flagged_empty_on_ordinary_logic(self):
        lg = load_logic("pentagon")
        r = axiom_implied(lg, Inequality(("1",), (F(1),), F(1)))
        assert r.implied and not r.region_empty

    def test_empty_region_implies_everything(self):
        from ctxlab.logic import parse_logic
        lg = parse_logic(PRISM)
        r = axiom_implied(lg, Inequality(("1",), (F(1),), F(0)))
        assert (r.implied, r.optimum, r.witness, r.region_empty) == (True, None, None, True)
        assert not enumerate_states(lg)

    def test_invalid_logic_rejected(self):
        from ctxlab.logic import Logic
        lg = Logic(atoms=("x", "y", "z"), contexts=(("x", "y"),))
        with pytest.raises(ValueError):
            axiom_implied(lg, Inequality(("x",), (F(1),), F(1)))

    def test_invalid_logic_names_failed_rules(self):
        # the same refusal, with the same text, as enumerate_states gives
        from ctxlab.logic import Logic
        lg = Logic(atoms=("x", "y", "z"), contexts=(("x", "y"),))
        with pytest.raises(ValueError, match=r"rules: unused-atom\)"):
            axiom_implied(lg, Inequality(("x",), (F(1),), F(1)))


class TestParseInequality:
    def test_numeric_atom_names(self):
        f = parse_inequality("1 + 3 + 5 + 7 + 9 <= 2")
        assert f.labels == ("1", "3", "5", "7", "9")
        assert f.coeffs == (F(1),) * 5
        assert f.bound == 2

    def test_names(self):
        f = parse_inequality("a + b <= 1")
        assert f.labels == ("a", "b")
        assert f.coeffs == (F(1), F(1))
        assert f.bound == 1

    def test_coefficients_and_rationals(self):
        f = parse_inequality("2*x - 1/2*y <= 3/4")
        assert f.labels == ("x", "y")
        assert f.coeffs == (F(2), F(-1, 2))
        assert f.bound == F(3, 4)

    def test_ge_normalized(self):
        f = parse_inequality("x + y >= 1")
        assert f.coeffs == (F(-1), F(-1))
        assert f.bound == -1

    def test_bare_numeral_is_an_atom_not_a_constant(self):
        f = parse_inequality("x + 1 <= 2")
        assert f.labels == ("x", "1")
        assert f.bound == 2

    def test_repeated_atom_accumulates(self):
        f = parse_inequality("x + 2*x <= 1")
        assert f.coeffs == (F(3),)

    @pytest.mark.parametrize("text, labels, coeffs", [
        ("1e-2*1 + 2 <= 1", ("1", "2"), (F(1, 100), F(1))),
        ("2E+3*a - b <= 1", ("a", "b"), (F(2000), F(-1))),
        ("a - 1e-2 * b <= 1", ("a", "b"), (F(1), F(-1, 100))),
        ("-.5e+1*x <= 1", ("x",), (F(-5),)),
        # bare tokens stay atom names, and an 'e' not after a number splits
        ("1e-2 <= 1", ("1e", "2"), (F(1), F(-1))),
        ("x1e-y <= 1", ("x1e", "y"), (F(1), F(-1))),
        ("e-2*x <= 1", ("e", "x"), (F(1), F(-2))),
        ("a + -b <= 1", ("a", "b"), (F(1), F(-1))),
    ])
    def test_exponent_sign_belongs_to_a_starred_coefficient(self, text, labels, coeffs):
        f = parse_inequality(text)
        assert (f.labels, f.coeffs, f.bound) == (labels, coeffs, 1)

    @pytest.mark.parametrize("text, message", [
        ("1" * 4301 + "*x <= 1", "bad coefficient in term '11111111111111111111'...: "),
        ("x <= 1" + "0" * 4300, "bad bound '10000000000000000000'...: "),
    ], ids=["coefficient", "bound"])
    def test_too_many_digits_is_refused_in_one_short_line(self, text, message):
        with pytest.raises(ValueError) as err:
            parse_inequality(text)
        assert str(err.value) == message + "more than 4300 digits"

    def test_bad_input(self):
        with pytest.raises(ValueError):
            parse_inequality("x + y")
        with pytest.raises(ValueError):
            parse_inequality("x <= huh")
        with pytest.raises(ValueError):
            parse_inequality("2*3*x <= 1")


@given(st.integers(2, 8), st.integers(2, 4), st.data())
@settings(max_examples=30, deadline=None)
def test_random_01_polytopes_match_brute_oracle(nverts, dim, data):
    rows = data.draw(st.lists(
        st.tuples(*[st.integers(0, 1) for _ in range(dim)]),
        min_size=nverts, max_size=nverts, unique=True))
    labels = [f"x{i}" for i in range(dim)]
    vs = vset(labels, rows)
    P = facet_enumeration(vs)
    assert facet_pairs(P) == brute_facets(vs)
    for f in P.facets:
        vals = [dot(f.coeffs, v) for v in vs.vertices]
        assert max(vals) == f.bound


@given(st.integers(2, 8), st.integers(2, 4), st.data())
@settings(max_examples=30, deadline=None)
def test_random_rational_polytopes_match_brute_oracle(nverts, dim, data):
    values = [F(0), F(1), F(1, 2), F(-2, 3), F(3)]
    rows = data.draw(st.lists(
        st.tuples(*[st.sampled_from(values) for _ in range(dim)]),
        min_size=nverts, max_size=nverts, unique=True))
    vs = vset([f"x{i}" for i in range(dim)], rows)
    P = facet_enumeration(vs)
    assert facet_pairs(P) == brute_facets(vs)


class TestVertexCoordinates:
    """Vertex coordinates are ints or Fractions, one per label."""

    def test_int_vertices_match_fraction_vertices(self):
        triangle = (("x", "y", "z"), ((0, 0, 1), (1, 0, 0), (0, 1, 0)), (1, 1, 1))
        pentagon = vertices_from_states(load_logic("pentagon"))
        ints = tuple(tuple(int(x) for x in v) for v in pentagon.vertices)
        for labels, rows, counts in (triangle, (pentagon.labels, ints, pentagon.counts)):
            as_int = VertexSet(labels, rows, counts)
            as_fraction = VertexSet(labels, tuple(tuple(F(x) for x in v) for v in rows),
                                    counts)
            # the two sets are equal, so each must be computed past the cache
            facet_enumeration.cache_clear()
            P = facet_enumeration(as_int)
            facet_enumeration.cache_clear()
            assert P == facet_enumeration(as_fraction) and P.facets
            facet_enumeration.cache_clear()
            n = len(labels)
            for point in ([F(1, n)] * n, [1] * n, [2] + [0] * (n - 2) + [-1]):
                point = dict(zip(labels, point))
                assert membership(point, as_int) == membership(point, as_fraction)

    @pytest.mark.parametrize("rows, reason", [
        (((0, 0), (1, 0.5)), "vertex coordinate 0.5 is not an int or a Fraction"),
        (((0.0, 1), (1, 0)), "vertex coordinate 0.0 is not an int or a Fraction"),
        (((0, 0), (1, 0, 1)), "vertex has 3 coordinates for 2 labels"),
        (((0,), (1, 0)), "vertex has 1 coordinates for 2 labels"),
        # the first bad vertex names the reason, whichever check it fails
        (((0, 0.5), (1,)), "vertex coordinate 0.5 is not an int or a Fraction"),
        (((0,), (1, 0.5)), "vertex has 1 coordinates for 2 labels"),
        (((0, F(1, 2)), (1, "1")), "vertex coordinate '1' is not an int or a Fraction"),
    ])
    def test_bad_vertex_sets_raise(self, rows, reason):
        # no such set exists, so neither public function can be handed one
        with pytest.raises(ValueError) as err:
            VertexSet(("x", "y"), rows, (1,) * len(rows))
        assert str(err.value) == reason

    @pytest.mark.parametrize("counts, reason", [
        ((1, 2), "2 counts for 1 vertices"),
        ((), "0 counts for 1 vertices"),
        ((0,), "vertex count 0 is below 1"),
        ((-1,), "vertex count -1 is below 1"),
    ])
    def test_bad_counts_raise(self, counts, reason):
        # a count without a vertex would reach Polytope.counts unchecked
        with pytest.raises(ValueError) as err:
            VertexSet(("x",), ((F(1),),), counts)
        assert str(err.value) == reason

    def test_bool_coordinates_count_as_ints(self):
        assert VertexSet(("x", "y"), ((False, True), (1, F(0))), (1, 1)).vertices

    def test_float_set_is_no_cache_hit_of_the_equal_fraction_set(self):
        # a float set equals and hashes like the Fraction set of the same
        # values, so it would be served that set's cached polytope
        halves = ((F(0), F(0)), (F(1), F(1, 2)), (F(1), F(0)))
        assert facet_enumeration(VertexSet(("x", "y"), halves, (1, 1, 1))).facets
        with pytest.raises(ValueError, match="vertex coordinate 0.5 is not"):
            VertexSet(("x", "y"), ((0, 0), (1, 0.5), (1, 0)), (1, 1, 1))


@pytest.mark.parametrize("call, reason", [
    (lambda: VertexSet(("x", "y"), ((0, 0), (1, 0.5)), (1, 1)),
     "vertex coordinate 0.5 is not an int or a Fraction"),
    (lambda: canonical_inequality(("x", "y"), [F(1), 0.5], F(1)),
     "coefficient or bound 0.5 is not an int or a Fraction"),
    (lambda: membership({"x": F(1, 2), "y": 0.5, "z": 0},
                        vset(["x", "y", "z"], [[0, 0, 1], [0, 1, 0], [1, 0, 0]])),
     "point coordinate 0.5 is not an int or a Fraction"),
    (lambda: axiom_implied(load_logic("pentagon"), Inequality(("1",), (0.5,), F(1))),
     "coefficient or bound 0.5 is not an int or a Fraction"),
    # Fraction(0.3) is just below 3/10: taken as a float, this bound would
    # make 3/10*1 <= 0.3 "not implied" where 3/10*1 <= 3/10 is implied
    (lambda: axiom_implied(load_logic("pentagon"), Inequality(("1",), (F(3, 10),), 0.3)),
     "coefficient or bound 0.3 is not an int or a Fraction"),
], ids=["VertexSet", "canonical_inequality", "membership", "axiom_implied-coefficient",
        "axiom_implied-bound"])
def test_public_functions_refuse_floats(call, reason):
    """The public polytope functions are the one exactness gate: the LP
    below them takes ints and Fractions as given."""
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == reason


def specified_separator(x, vs):
    """The separator ``membership`` specifies for a point x in the affine
    hull (None off it), read off ``facet_enumeration`` by a scan: each facet
    a.x <= b is restricted to the reduced coordinates of ``FractionHull``
    (a'_i = a.B_i and b' = b - a.v0 over its RREF basis B), its polar vertex
    about the centroid c is z = a' / (b' - a'.c), and the facet with the
    largest ratio z.(y_x - c) wins, ties going to the smallest z."""
    ref = FractionHull(vs)
    if any(dot(e.coeffs, x) != e.bound for e in ref.equalities):
        return None
    m = len(ref.reduced)
    c = [sum(col) / m for col in zip(*ref.reduced)]
    d = [y - cj for y, cj in zip(ref.reduce(x), c)]

    def rank(f):
        a = [dot(f.coeffs, row) for row in ref.basis]
        z = [aj / (f.bound - dot(f.coeffs, ref.v0) - dot(a, c))
             for aj in a]
        return -dot(z, d), z

    return min(facet_enumeration(vs).facets, key=rank)


def assert_specified_separator(x, vs, got):
    """``got``, the membership result of x, carries the specified facet when
    x lies in the affine hull but outside the polytope."""
    if not got.inside and (want := specified_separator(x, vs)) is not None:
        assert got.separator == want


@st.composite
def rational_vertex_sets(draw):
    dim = draw(st.integers(1, 4))
    values = [F(0), F(1), F(1, 2), F(-2, 3), F(3)]
    return draw(st.lists(st.tuples(*[st.sampled_from(values)] * dim),
                         min_size=1, max_size=8, unique=True))


@given(rational_vertex_sets(), st.data())
@example([(F(1, 2), F(-2, 3)), (F(3), F(0)), (F(0), F(1))], None)
@example([(F(1, 2), F(0), F(1)), (F(-2, 3), F(1), F(0)), (F(3), F(1, 2), F(1, 2))], None)
@settings(max_examples=60, deadline=None)
def test_hull_matches_fraction_reference_on_rational_sets(rows, data):
    """The integer hull scales by the common denominator of the set; the
    equalities, pivots, reduced coordinates (over that scale) and
    membership certificates equal the Fraction-only construction, and the
    separators follow the tie rule."""
    vs = vset([f"x{i}" for i in range(len(rows[0]))], rows)
    hull, ref = polytope._Hull(vs), FractionHull(vs)
    assert hull.scale == lcm(*(x.denominator for v in rows for x in v))
    assert (hull.equalities, hull.pivots, hull.dim) == (ref.equalities, ref.pivots, ref.dim)
    assert hull.reduced == [tuple(hull.scale * y for y in r) for r in ref.reduced]
    assert all(type(y) is int for r in hull.reduced for y in r)
    verts = vs.vertices
    m = len(verts)
    points = [tuple(sum(v[j] for v in verts) / m for j in range(len(rows[0])))]
    points += [tuple(2 * a - b for a, b in zip(u, w)) for u in verts for w in verts if u != w]
    if data is not None:
        points.append(data.draw(st.tuples(*[st.sampled_from([F(0), F(1, 3), F(-1), F(2)])]
                                          * len(rows[0]))))
    for x in points:
        point = dict(zip(vs.labels, x))
        got = membership(point, vs)
        assert got == fraction_membership(point, vs)
        assert_specified_separator(x, vs, got)
        if got.inside:
            assert all(type(w) is F for w in got.weights)
        else:
            sep = got.separator
            assert all(type(v) is F for v in (*sep.coeffs, sep.bound, got.value_at_point))


@pytest.mark.parametrize("projected", [False, True])
@pytest.mark.parametrize("name", WITH_LOGIC)
def test_carried_rows_match_rebuilt_sets(name, projected):
    """``vertices_from_states`` hands its sorted 0/1 rows to the set it
    builds.  Sets rebuilt with fresh Fraction and with int coordinates
    equal it both ways, hash as its fields do, are cache hits of its
    polytope, and ``_Hull`` reads the same hull off the carried rows as off
    the scaled Fractions."""
    logic = catalog_get(name).logic
    carried = vertices_from_states(logic, project=logic.atoms[::2] if projected else None)
    labels, counts = carried.labels, carried.counts
    as_fraction = VertexSet(labels, tuple(tuple(F(int(x)) for x in v) for v in carried.vertices),
                            counts)
    as_int = VertexSet(labels, tuple(tuple(map(int, v)) for v in carried.vertices), counts)
    for a, b in permutations((carried, as_fraction, as_int), 2):
        assert a == b and hash(a) == hash(b)
    assert hash(carried) == hash((labels, carried.vertices, counts))
    facet_enumeration.cache_clear()
    P = facet_enumeration(carried)
    assert facet_enumeration(as_fraction) is P and facet_enumeration(as_int) is P
    assert facet_enumeration.cache_info()[:2] == (2, 1)  # hits, misses
    facet_enumeration.cache_clear()
    got, want = polytope._Hull(carried), polytope._Hull(as_fraction)
    assert (got.scale, want.scale) == (1, 1)
    for field in ("basis", "pivots", "equality_ints", "reduced"):
        assert getattr(got, field) == getattr(want, field)


@pytest.mark.parametrize("seed,name", enumerate(WITH_LOGIC))
def test_separator_follows_the_tie_rule_on_golden_points(seed, name):
    vs = vertices_from_states(catalog_get(name).logic)
    for x in golden_points(vs.vertices, seed):
        assert_specified_separator(x, vs, membership(dict(zip(vs.labels, x)), vs))


def test_membership_hands_the_lp_ints_only(monkeypatch):
    """``membership`` scales the point once to ints over its common
    denominator: every entry of c, A and b it passes the exact LP is an
    int, for inside mixtures, points off the hull and exotic measures (the
    axiom-region optima of facets the measure axioms do not imply)."""
    queries = []
    for seed, name in enumerate(WITH_STATES):
        logic = catalog_get(name).logic
        vs = vertices_from_states(logic)
        exotic = [axiom_implied(logic, f).witness for f in facet_enumeration(vs).facets]
        for x in golden_points(vs.vertices, seed) + [w for w in exotic if w is not None]:
            queries.append((dict(zip(vs.labels, x)), vs))
    calls = []

    def spy(c, A, b):
        calls.append((c, A, b))
        return solve_standard(c, A, b)

    monkeypatch.setattr(polytope, "solve_standard", spy)  # axiom_implied's LP is done
    verdicts = Counter(membership(point, vs).inside for point, vs in queries)
    assert verdicts[True] and verdicts[False] and calls
    for c, A, b in calls:
        assert all(type(v) is int for v in chain(c, chain.from_iterable(A), b))


@pytest.mark.parametrize("projected", [False, True])
@pytest.mark.parametrize("name", WITH_STATES)
def test_weights_over_large_denominators_match_the_fraction_oracle(name, projected):
    """Mixtures with weights over the primes 983, 991 and 997, so the
    point's common denominator is up to their product: the LP's right-hand
    sides grow by that factor, and the weights still equal the oracle's."""
    logic = catalog_get(name).logic
    vs = vertices_from_states(logic, project=logic.atoms[::2] if projected else None)
    rng = random.Random(997)
    for _ in range(3):
        w = [F(rng.randint(0, 3), rng.choice((983, 991, 997))) for _ in vs.vertices[1:]]
        w.insert(0, 1 - sum(w))
        assert w[0] > 0
        point = {a: sum(wi * v[k] for wi, v in zip(w, vs.vertices))
                 for k, a in enumerate(vs.labels)}
        got = membership(point, vs)
        assert got.inside and got == fraction_membership(point, vs)


@given(st.sampled_from(["pentagon", "triangle4d", "square4d", "specker_bug"]),
       st.lists(st.integers(-3, 3), min_size=2, max_size=2),
       st.integers(1, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_separator_follows_the_tie_rule_on_affine_points(name, raw, den, data):
    vs = vertices_from_states(load_logic(name))
    picks = data.draw(st.lists(st.integers(0, len(vs.vertices) - 1),
                               min_size=3, max_size=3, unique=True))
    weights = [F(r, den) for r in raw]
    weights.append(1 - sum(weights))  # an affine combination: in the hull
    x = tuple(sum(w * vs.vertices[i][j] for w, i in zip(weights, picks))
              for j in range(len(vs.labels)))
    assert_specified_separator(x, vs, membership(dict(zip(vs.labels, x)), vs))


@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.sampled_from([F(0), F(0), F(1), F(-1), F(1, 2), F(-2, 3), F(3)]),
             min_size=n, max_size=n), min_size=1, max_size=6)))
@settings(max_examples=100, deadline=None)
def test_rref_is_reduced_and_spans_the_rows(rows):
    rr, piv = _rref(rows)
    assert piv == sorted(piv) and len(rr) == len(piv)
    assert len(piv) == np.linalg.matrix_rank(np.array(rows, dtype=float))
    for j, row in enumerate(rr):  # primitive int rows, positive on their pivot
        assert all(type(v) is int for v in row) and gcd(*row) == 1
        assert [row[p] > 0 if j == k else row[p] == 0
                for k, p in enumerate(piv)] == [True] * len(piv)
        assert all(v == 0 for v in row[:piv[j]])
    read = [[F(v, row[p]) for v in row] for row, p in zip(rr, piv)]
    for row in rows:  # each input row is its pivot entries times the rref rows
        assert list(row) == [sum((row[p] * r[c] for p, r in zip(piv, read)), F(0))
                             for c in range(len(row))]


@st.composite
def matrices(draw):
    """Int or rational matrices, with zero rows, duplicate rows, negated and
    scaled rows, and rows combining two others (rank deficient)."""
    n = draw(st.integers(1, 6))
    entry = draw(st.sampled_from([
        st.integers(-4, 4),
        st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(-2, 3), F(3)])]))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=1, max_size=5))
    for kind in draw(st.lists(st.sampled_from(
            ["zero", "duplicate", "negated", "combination"]), max_size=4)):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        if kind == "zero":
            rows.append([0] * n)
        elif kind == "duplicate":
            rows.append(list(a))
        elif kind == "negated":
            rows.append([-2 * v for v in a])
        else:
            rows.append([x - 3 * y for x, y in zip(a, b)])
    return draw(st.permutations(rows))


@given(matrices())
@example([])
@example([[0, 0, 0], [0, 0, 0]])
@example([[-2, 4, 1], [1, -2, F(-1, 2)], [0, 0, 3]])
@example([[F(-2, 3), 1], [F(1, 2), F(-3)], [0, 0]])
@settings(max_examples=200, deadline=None)
def test_rref_matches_fraction_reference(rows):
    rr, piv = _rref(rows)
    want, want_piv = rref(rows)
    assert piv == want_piv
    assert [[F(v, row[p]) for v in row] for row, p in zip(rr, piv)] == want


@st.composite
def cones(draw):
    """Constraint rows of random cones {z : M z >= 0}: integer or rational
    entries, with duplicated rows, or with many rows tight on one ray."""
    d = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(["integer", "rational", "duplicates", "one_ray"]))
    entry = (st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(-2, 3), F(3)])
             if kind == "rational" else st.integers(-3, 3).map(F))
    rows = draw(st.lists(st.tuples(*[entry] * d), min_size=d, max_size=d + 5))
    if kind == "duplicates":
        rows += draw(st.lists(st.sampled_from(rows), min_size=1, max_size=4))
        rows = draw(st.permutations(rows))
    elif kind == "one_ray":
        ray = draw(st.tuples(*[st.integers(-2, 2)] * (d - 1))) + (1,)
        tight = draw(st.lists(st.tuples(*[entry] * (d - 1)), min_size=d, max_size=d + 6))
        rows = [a + (-sum(x * r for x, r in zip(a, ray)),) for a in tight] + rows
        rows = draw(st.permutations(rows))
    return [tuple(row) for row in rows]


@given(cones())
@example([(F(1), F(0)), (F(0), F(1)), (F(1), F(1)), (F(1), F(1))])
@example([(F(1), F(0), F(0), F(0)), (F(1), F(1), F(0), F(0)),
          (F(1), F(0), F(1), F(0)), (F(1), F(1), F(1), F(0)),
          (F(1), F(1, 2), F(1, 2), F(1))])  # square pyramid: four rows through (0, 0, 0, 1)
@settings(max_examples=100, deadline=None)
def test_extreme_rays_match_fraction_oracle(M):
    try:
        want = extreme_rays(M)
    except ValueError:
        with pytest.raises(ValueError):
            _extreme_rays(M)
        return
    got = _extreme_rays(M)
    assert got == want
    assert all(type(v) is int for ray in got for v in ray)


def test_extreme_rays_reject_a_cone_that_is_not_pointed():
    with pytest.raises(ValueError):
        _extreme_rays([(F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(1), F(1), F(0))])
