from __future__ import annotations

from fractions import Fraction
from math import acos, asin, pi, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxlab.polytope import parse_inequality
from ctxlab.realization import (FeasibilityWindow, NonOrthonormalContext,
                                _inner, _product,
                                NonUnitState, NonUnitVector, Realization,
                                RepeatedEigenvalue, VectorParseError, angle,
                                born_probabilities, bug_pasting_feasibility,
                                check_realization, maximal_operator,
                                parse_scalar, parse_vector, parse_vectors,
                                projector, quantum_vs_classical,
                                recover_projectors)
from ctxlab.states import MissingAtom
from helpers import DATA, load_logic


def load_realization(name):
    return parse_vectors(DATA.joinpath(name + ".vec").read_text())


class TestParse:
    def test_scalar_tokens(self):
        assert parse_scalar("1") == 1.0
        assert parse_scalar("-3") == -3.0
        assert parse_scalar("1/2") == 0.5
        assert parse_scalar("-1/2") == -0.5
        assert parse_scalar("1/sqrt(2)") == pytest.approx(1 / sqrt(2), abs=0)
        assert parse_scalar("2/sqrt(6)") == pytest.approx(2 / sqrt(6), abs=0)
        assert parse_scalar("(1/2,-1/2)") == complex(0.5, -0.5)

    def test_bad_scalar_tokens(self):
        for tok in ["sqrt(2)", "1.5", "x", "1/sqrt(2", "sqrt-typo", "--1"]:
            with pytest.raises(ValueError):
                parse_scalar(tok)

    def test_vector_line(self):
        r = parse_vectors("vec 1 1/2 1/2 1/2 1/2\n")
        assert r.dimension == 4
        np.testing.assert_array_equal(r.vectors["1"], [0.5, 0.5, 0.5, 0.5])

    def test_comments_and_blanks(self):
        r = parse_vectors("# header\n\nvec a 1 0 0  # basis\nvec b 0 1 0\n")
        assert set(r.vectors) == {"a", "b"}

    def test_complex_vector_dtype(self):
        r = parse_vectors("vec a (0,1) 0\nvec b 1 0\n")
        assert np.iscomplexobj(r.vectors["a"])
        assert not np.iscomplexobj(r.vectors["b"])
        assert r.vectors["a"][0] == 1j

    def test_syntax_error_position(self):
        with pytest.raises(VectorParseError) as err:
            parse_vectors("vec a 1/sqrt(3) sqrt-typo 0\n")
        assert err.value.line == 1
        assert err.value.column == 17

    def test_wrong_component_count(self):
        with pytest.raises(VectorParseError):
            parse_vectors("vec a 1 0 0\nvec b 1 0\n")

    def test_duplicate_atom(self):
        with pytest.raises(VectorParseError):
            parse_vectors("vec a 1 0\nvec a 0 1\n")

    def test_unknown_directive(self):
        with pytest.raises(VectorParseError):
            parse_vectors("vector a 1 0\n")

    def test_empty(self):
        with pytest.raises(VectorParseError):
            parse_vectors("# nothing\n")

    @pytest.mark.parametrize("end", ["\r\n", "\r", "\n"])
    def test_line_ends(self, end):
        r = parse_vectors(end.join(["vec a 1 0", "vec b 0 1", ""]))
        assert (r.dimension, set(r.vectors)) == (2, {"a", "b"})
        with pytest.raises(VectorParseError) as err:
            parse_vectors(end.join(["vec a 1 0", "  vector b 0 1", ""]))
        assert (err.value.line, err.value.column) == (2, 3)

    def test_tabs_separate_tokens_and_count_one_column(self):
        r = parse_vectors("vec\ta\t1\t 0\n")
        assert r.dimension == 2
        with pytest.raises(VectorParseError) as err:
            parse_vectors("vec a\t1\tbad\n")
        assert (err.value.line, err.value.column) == (1, 9)

    def test_hash_glued_to_a_token_starts_a_comment(self):
        r = parse_vectors("vec a 1 0#2\nvec b 0 1#\n")
        assert (r.dimension, set(r.vectors)) == (2, {"a", "b"})
        with pytest.raises(VectorParseError) as err:
            parse_vectors("vec a#1 0\n")
        assert str(err.value) == "line 1, column 1: need an atom id and components"

    def test_comment_only_lines_keep_line_numbers(self):
        with pytest.raises(VectorParseError) as err:
            parse_vectors("# header\n   # indented\n\nvec a 1 0\n\tvec a 0 1 # again\n")
        assert (err.value.line, err.value.column) == (5, 6)

    def test_error_names_the_offending_token_column(self):
        with pytest.raises(VectorParseError) as err:
            parse_vectors("vec a 1 0\nvec  b\t0 x\n")
        assert (err.value.line, err.value.column) == (2, 10)
        assert str(err.value) == "line 2, column 10: bad component token 'x'"

    def test_parse_vector_helper(self):
        v = parse_vector(["1/sqrt(2)", "0", "-1/sqrt(2)", "0"])
        assert v == (1 / sqrt(2), 0.0, -1 / sqrt(2), 0.0)
        assert [type(x) for x in v] == [float] * 4
        assert [type(x) for x in parse_vector(["(0,1)", "1"])] == [complex] * 2


class TestCheckRealization:
    def test_triangle_vectors_validate(self):
        lg = load_logic("triangle4d")
        rep = check_realization(lg, load_realization("triangle4d"))
        assert rep.ok
        assert rep.context_failures == ()
        assert rep.norm_failures == ()
        assert rep.collinear_pairs == ()
        assert rep.missing_atoms == ()

    def test_square_vectors_validate(self):
        lg = load_logic("square4d")
        rep = check_realization(lg, load_realization("square4d"))
        assert rep.ok

    def test_missing_atom_strict(self):
        lg = load_logic("specker_bug")
        with pytest.raises(MissingAtom):
            check_realization(lg, load_realization("specker_bug"))

    def test_partial_bug_realization(self):
        lg = load_logic("specker_bug")
        rep = check_realization(lg, load_realization("specker_bug"),
                                allow_partial=True)
        assert rep.ok
        assert set(rep.missing_atoms) == set(lg.atoms) - {"a", "b"}
        # every context touches an unrealized atom
        assert len(rep.skipped_contexts) == len(lg.contexts)

    def test_all_equal_vectors_fail(self):
        lg = load_logic("pentagon")
        vecs = {a: np.array([1.0, 0.0, 0.0]) for a in lg.atoms}
        rep = check_realization(lg, Realization(3, vecs))
        assert not rep.ok
        assert rep.context_failures
        assert rep.collinear_pairs

    def test_norm_failure_reported(self):
        from ctxlab.logic import Logic
        tiny = Logic(atoms=("a", "b"), contexts=(("a", "b"),))
        rep = check_realization(
            tiny, Realization(2, {"a": np.array([1.0, 0.0]),
                                  "b": np.array([0.0, 2.0])}))
        assert not rep.ok
        assert rep.norm_failures == (("b", 4.0),)
        assert rep.context_failures == ()

    def test_tolerance_respected(self):
        from ctxlab.logic import Logic
        tiny = Logic(atoms=("a", "b"), contexts=(("a", "b"),))
        eps = 1e-11
        vecs = {"a": np.array([1.0, eps]), "b": np.array([0.0, 1.0])}
        assert check_realization(tiny, Realization(2, vecs)).ok
        loose = Realization(2, vecs, tolerance=1e-13)
        assert not check_realization(tiny, loose).ok

    def test_vector_of_wrong_dimension_refused(self):
        from ctxlab.logic import Logic
        tiny = Logic(atoms=("a", "b"), contexts=(("a", "b"),))
        r = Realization(2, {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0, 0.0])})
        with pytest.raises(ValueError, match=r"^vector for 'b' is not 2-dimensional$"):
            check_realization(tiny, r)


class TestBorn:
    def test_preparation_basis_gives_indicator(self):
        lg = load_logic("triangle4d")
        r = load_realization("triangle4d")
        p = born_probabilities(lg, r, "1")
        assert p["1"] == pytest.approx(1.0, abs=1e-12)
        for other in ("2", "3", "4"):
            assert p[other] == pytest.approx(0.0, abs=1e-12)

    def test_bug_one_ninth(self):
        lg = load_logic("specker_bug")
        r = load_realization("specker_bug")
        p = born_probabilities(lg, r, "a")
        assert p["b"] == pytest.approx(1 / 9, abs=1e-12)
        assert p["a"] == pytest.approx(1.0, abs=1e-12)
        assert set(p) == {"a", "b"}

    def test_values_pinned_to_the_bit(self):
        # the Born rule adds products left to right with no fused
        # multiply-add, so an exactly orthogonal pair reads exactly 0
        p = born_probabilities(load_logic("specker_bug"),
                               load_realization("specker_bug"), "a")
        assert (p["a"], p["b"]) == (1.0000000000000004, 0.11111111111111117)
        p = born_probabilities(load_logic("square4d"),
                               load_realization("square4d"), "2")
        assert p["3"] == 0.0 and all(type(x) is float for x in p.values())

    def test_two_dim_basis(self):
        from ctxlab.logic import Logic
        lg = Logic(atoms=("0", "1"), contexts=(("0", "1"),))
        r = Realization(2, {"0": np.array([1.0, 0.0]),
                            "1": np.array([0.0, 1.0])})
        p = born_probabilities(lg, r, np.array([1.0, 0.0]))
        assert (p["0"], p["1"]) == (1.0, 0.0)

    def test_non_unit_state_rejected(self):
        lg = load_logic("triangle4d")
        r = load_realization("triangle4d")
        with pytest.raises(NonUnitState):
            born_probabilities(lg, r, np.array([1.0, 1.0, 0.0, 0.0]))

    def test_psi_of_wrong_length_refused(self):
        lg = load_logic("triangle4d")
        r = load_realization("triangle4d")
        with pytest.raises(ValueError, match=r"^psi is not 4-dimensional$"):
            born_probabilities(lg, r, np.array([1.0, 0.0, 0.0]))

    def test_atom_vector_of_wrong_length_refused(self):
        # a hand-built realization is not checked on construction
        from ctxlab.logic import Logic
        lg = Logic(atoms=("0", "1"), contexts=(("0", "1"),))
        r = Realization(2, {"0": (1.0, 0.0), "1": (0.0, 1.0, 0.0)})
        with pytest.raises(ValueError):
            born_probabilities(lg, r, "0")

    def test_unrealized_psi_atom(self):
        lg = load_logic("specker_bug")
        r = load_realization("specker_bug")
        with pytest.raises(MissingAtom):
            born_probabilities(lg, r, "3")

    @given(st.lists(st.floats(-1, 1), min_size=4, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_context_sums_are_one(self, raw):
        vec = np.array(raw)
        norm = np.linalg.norm(vec)
        if norm < 1e-3:
            vec = np.array([1.0, 0.0, 0.0, 0.0])
            norm = 1.0
        psi = vec / norm
        lg = load_logic("triangle4d")
        r = load_realization("triangle4d")
        p = born_probabilities(lg, r, psi)
        for ctx in lg.contexts:
            assert sum(p[a] for a in ctx) == pytest.approx(1.0, abs=1e-9)


def _exact_inner(u, v) -> tuple[Fraction, Fraction]:
    """sum(conj(x) * y) in exact rationals, as (real, imaginary) parts."""
    re = im = Fraction(0)
    for x, y in zip(u, v):
        a, b, c, d = map(Fraction, (complex(x).real, complex(x).imag,
                                    complex(y).real, complex(y).imag))
        re += a * c + b * d
        im += a * d - b * c
    return re, im


_UNIT = st.floats(-1, 1)
_COMPONENT = st.one_of(_UNIT, st.builds(complex, _UNIT, _UNIT))


class TestInner:
    @given(st.integers(1, 6).flatmap(
        lambda n: st.tuples(*[st.tuples(_COMPONENT, _COMPONENT)] * n)))
    @settings(max_examples=200, deadline=None)
    def test_matches_exact_and_vdot(self, pairs):
        u, v = zip(*pairs)
        got = _inner(u, v)
        assert type(got) is complex
        # relative to the terms' size, plus a floor for products that underflow
        tol = 1e-15 * sum(abs(x) * abs(y) for x, y in pairs) + 1e-300
        re, im = _exact_inner(u, v)
        assert abs(Fraction(got.real) - re) <= Fraction(tol)
        assert abs(Fraction(got.imag) - im) <= Fraction(tol)
        assert abs(got - np.vdot(np.array(u), np.array(v))) <= 2 * tol

    @given(st.tuples(_COMPONENT, _COMPONENT), st.lists(_COMPONENT, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_swapped_negated_pair_is_exactly_orthogonal(self, xy, rest):
        # (x, y, 0...) against (conj y, -conj x, r...): each product rounds
        # the same way with opposite sign, so a fused multiply-add would
        # leave the first product's rounding error where the sum is 0
        x, y = xy
        zeros = [0.0] * len(rest)
        u = (x, y, *zeros)
        v = (y.conjugate(), -x.conjugate(), *rest)
        assert _exact_inner(u, v) == (0, 0)
        assert _inner(u, v) == 0


@st.composite
def _contexts(draw):
    """An orthonormal basis of dimension 1-5, real or complex: the columns
    of the Q factor of a drawn matrix; and distinct integer eigenvalues."""
    n = draw(st.integers(1, 5))
    entries = st.lists(_UNIT, min_size=n * n, max_size=n * n)
    m = np.array(draw(entries)).reshape(n, n)
    if draw(st.booleans()):
        m = m + 1j * np.array(draw(entries)).reshape(n, n)
    q = np.linalg.qr(m)[0]
    eigenvalues = draw(st.permutations(range(-n, n + 1)))[:n]
    return [tuple(q[:, k].tolist()) for k in range(n)], [float(x) for x in eigenvalues]


class TestOperators:
    def test_projector_standard_basis(self):
        np.testing.assert_allclose(projector([1.0, 0.0]),
                                   [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)
        np.testing.assert_allclose(projector([0.0, 1.0]),
                                   [[0.0, 0.0], [0.0, 1.0]], atol=1e-15)

    def test_projector_diagonal_ray(self):
        v = np.array([1.0, 1.0]) / sqrt(2)
        np.testing.assert_allclose(projector(v),
                                   [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)

    def test_projector_complex_is_hermitian(self):
        v = np.array([1.0, 1j]) / sqrt(2)
        E = np.asarray(projector(v))
        np.testing.assert_allclose(E, E.conj().T, atol=1e-12)
        np.testing.assert_allclose(E @ E, E, atol=1e-12)

    def test_projector_rejects_non_unit(self):
        with pytest.raises(NonUnitVector):
            projector([1.0, 1.0])

    def test_maximal_operator_diag(self):
        basis = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        A = maximal_operator(basis, (3.0, 7.0))
        np.testing.assert_allclose(A, np.diag([3.0, 7.0]), atol=1e-15)

    def test_maximal_operator_binary_is_projector(self):
        v = np.array([1.0, 1.0]) / sqrt(2)
        w = np.array([1.0, -1.0]) / sqrt(2)
        A = maximal_operator([v, w], (0.0, 1.0))
        np.testing.assert_allclose(A, projector(w), atol=1e-12)

    def test_repeated_eigenvalue(self):
        basis = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        with pytest.raises(RepeatedEigenvalue):
            maximal_operator(basis, (1.0, 1.0))

    def test_non_orthonormal_rejected(self):
        v = np.array([1.0, 0.0])
        with pytest.raises(NonOrthonormalContext):
            maximal_operator([v, v], (1.0, 2.0))
        with pytest.raises(NonOrthonormalContext):
            maximal_operator([v, np.array([0.0, 2.0])], (1.0, 2.0))

    def test_count_mismatch(self):
        with pytest.raises(ValueError):
            maximal_operator([np.array([1.0, 0.0])], (1.0, 2.0))

    def test_empty_context_rejected(self):
        with pytest.raises(ValueError):
            maximal_operator([], [])

    def test_recover_needs_one_eigenvalue_per_dimension(self):
        with pytest.raises(ValueError):
            recover_projectors(np.diag([1.0, 2.0, 3.0]), [1.0, 2.0])
        with pytest.raises(ValueError):
            recover_projectors(np.diag([1.0, 2.0]), [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            recover_projectors(np.array([1.0, 2.0]), [1.0, 2.0])

    def test_recover_diag(self):
        Es = recover_projectors(np.diag([1.0, 2.0, 3.0]), (1.0, 2.0, 3.0))
        for i, E in enumerate(Es):
            expect = np.zeros((3, 3))
            expect[i, i] = 1.0
            np.testing.assert_allclose(E, expect, atol=1e-12)

    def test_recover_triangle_context(self):
        lg = load_logic("triangle4d")
        r = load_realization("triangle4d")
        ctx = lg.contexts[0]
        vecs = [r.vectors[a] for a in ctx]
        lam = (1.0, 2.0, 3.0, 4.0)
        A = maximal_operator(vecs, lam)
        Es = map(np.asarray, recover_projectors(A, lam))
        eye = np.zeros_like(A)
        for E, v in zip(Es, vecs):
            np.testing.assert_allclose(E, projector(v), atol=1e-12)
            np.testing.assert_allclose(E @ E, E, atol=1e-12)
            eye = eye + E
        np.testing.assert_allclose(eye, np.eye(4), atol=1e-12)

    def test_recover_rejects_repeats(self):
        with pytest.raises(RepeatedEigenvalue):
            recover_projectors(np.diag([1.0, 2.0]), (1.0, 1.0))

    @given(_contexts())
    @settings(max_examples=200, deadline=None)
    def test_operator_and_projectors_match_numpy(self, context):
        vecs, lam = context
        A = maximal_operator(vecs, lam)
        us = np.array(vecs)
        expect = sum(x * np.outer(u, u.conj()) for x, u in zip(lam, us))
        # relative to the size of the terms, plus a floor for underflow
        size = sum(abs(x) * np.outer(abs(u), abs(u)) for x, u in zip(lam, us))
        assert np.all(np.abs(np.asarray(A) - expect) <= 1e-14 * size + 1e-300)
        for E, u in zip(recover_projectors(A, lam), vecs):
            assert np.max(np.abs(np.asarray(E) - np.asarray(projector(u)))) <= 1e-12

    def test_rational_context_round_trips_exactly(self):
        # Fractions in give exact Fractions out, no float in between
        basis = [tuple(Fraction(x, 3) for x in row)
                 for row in ((1, 2, 2), (2, 1, -2), (2, -2, 1))]
        A = maximal_operator(basis, (1, 2, 3))
        assert {type(x) for row in A for x in row} == {Fraction}
        Es = recover_projectors(A, (1, 2, 3))
        for E, u in zip(Es, basis):
            assert E == projector(u)
            assert _product(E, E) == E
        assert [[sum(E[r][c] for E in Es) for c in range(3)] for r in range(3)] == [
            [1, 0, 0], [0, 1, 0], [0, 0, 1]]


class TestAngle:
    def test_same_ray_zero(self):
        v = np.array([1.0, 0.0])
        assert angle(v, v) == 0.0
        assert angle(v, -v) == 0.0

    def test_orthogonal_right_angle(self):
        assert angle([1.0, 0.0], [0.0, 1.0]) == pytest.approx(pi / 2, abs=0)

    def test_bug_pair_cabello_angle(self):
        r = load_realization("specker_bug")
        got = angle(r.vectors["a"], r.vectors["b"])
        assert got == pytest.approx(acos(1 / 3), abs=1e-12)

    def test_symmetric(self):
        u = np.array([1.0, 2.0, 2.0]) / 3
        v = np.array([0.0, 1.0, 0.0])
        assert angle(u, v) == angle(v, u)

    def test_rejects_non_unit(self):
        with pytest.raises(NonUnitVector):
            angle([1.0, 1.0], [1.0, 0.0])


class TestNaN:
    """NaN compares false both ways, so every tolerance test must reject it."""

    def test_nan_components_fail_the_check(self):
        from ctxlab.logic import Logic
        tiny = Logic(atoms=("a", "b"), contexts=(("a", "b"),))
        nan = float("nan")
        rep = check_realization(
            tiny, Realization(2, {"a": np.array([nan, 0.0]),
                                  "b": np.array([0.0, 1.0])}))
        assert not rep.ok
        assert [a for a, _ in rep.norm_failures] == ["a"]
        assert [f.pair for f in rep.context_failures] == [("a", "b")]

    def test_nan_psi_rejected(self):
        lg = load_logic("triangle4d")
        r = load_realization("triangle4d")
        with pytest.raises(NonUnitState):
            born_probabilities(lg, r, np.array([float("nan"), 0.0, 0.0, 0.0]))

    def test_nan_vector_rejected_by_angle(self):
        with pytest.raises(NonUnitVector):
            angle([float("nan"), 0.0], [1.0, 0.0])
        with pytest.raises(NonUnitVector):
            angle([1.0, 0.0], [0.0, float("nan")])

    def test_nan_vector_rejected_by_projector(self):
        with pytest.raises(NonUnitVector):
            projector([float("nan"), 0.0])

    def test_nan_vector_rejected_by_maximal_operator(self):
        e0 = np.array([1.0, 0.0])
        with pytest.raises(NonOrthonormalContext):
            maximal_operator([np.array([float("nan"), 0.0]), e0], (1.0, 2.0))
        with pytest.raises(NonOrthonormalContext):
            maximal_operator([e0, np.array([float("nan"), 1.0])], (1.0, 2.0))


class TestFeasibility:
    def test_window(self):
        w = bug_pasting_feasibility()
        assert isinstance(w, FeasibilityWindow)
        assert w.tifs_min_angle == pytest.approx(1.2310, abs=1e-4)
        assert w.tits_max_angle == pytest.approx(0.3398, abs=1e-4)
        assert w.tifs_min_angle == acos(1 / 3)
        assert w.tits_max_angle == asin(1 / 3)
        assert not w.feasible


class TestQuantumVsClassical:
    def test_bug_ten_ninths(self):
        lg = load_logic("specker_bug")
        r = load_realization("specker_bug")
        ineq = parse_inequality("a + b <= 1")
        rep = quantum_vs_classical(lg, r, "a", [ineq])
        assert rep.violated == (ineq,)
        ((_, value, satisfied),) = rep.evaluations
        assert not satisfied
        assert value == pytest.approx(10 / 9, abs=1e-12)

    def test_basis_state_satisfies_axiom_implied_bounds(self):
        lg = load_logic("triangle4d")
        r = load_realization("triangle4d")
        ineq = parse_inequality("1 + 2 + 3 <= 1")
        rep = quantum_vs_classical(lg, r, "4", [ineq])
        assert rep.violated == ()
        ((_, value, satisfied),) = rep.evaluations
        assert satisfied and value == pytest.approx(0.0, abs=1e-12)
