"""Exact simplex: optima, duals, Farkas certificates, Bland termination."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ctxlab.exactlp import (INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lexicographic,
                            solve_standard)

F = Fraction


def test_simple_optimum():
    # min -x subject to x + s = 5
    res = solve_standard([-1, 0], [[1, 1]], [5])
    assert res.status == OPTIMAL
    assert res.objective == -5
    assert res.x == (F(5), F(0))


def test_two_constraint_optimum():
    # min -x - y subject to x + s1 = 2, y + s2 = 3
    res = solve_standard([-1, -1, 0, 0],
                         [[1, 0, 1, 0], [0, 1, 0, 1]],
                         [2, 3])
    assert res.objective == -5
    assert res.x[:2] == (F(2), F(3))


def test_negative_rhs_handled():
    # -x = -4  with x >= 0  means x = 4
    res = solve_standard([1], [[-1]], [-4])
    assert res.status == OPTIMAL
    assert res.x == (F(4),)


def test_infeasible_farkas_certificate():
    # x + y = -1 with x, y >= 0 cannot hold
    res = solve_standard([0, 0], [[1, 1]], [-1])
    assert res.status == INFEASIBLE
    y = res.farkas
    A, b = [[1, 1]], [-1]
    for j in range(2):
        assert sum(y[i] * A[i][j] for i in range(1)) <= 0
    assert sum(yi * bi for yi, bi in zip(y, b)) > 0


def test_infeasible_system_of_two():
    # x1 + x2 = 1 and x1 + x2 = 2 cannot both hold
    res = solve_standard([0, 0], [[1, 1], [1, 1]], [1, 2])
    assert res.status == INFEASIBLE
    y = res.farkas
    assert y[0] + y[1] <= 0 and -(y[0] + y[1]) <= 0
    assert y[0] + 2 * y[1] > 0


def test_unbounded():
    # min -x with no constraints at all
    res = solve_standard([-1], [], [])
    assert res.status == UNBOUNDED


def test_unbounded_with_constraint():
    # min -x subject to x - s = 1: x can grow with s
    res = solve_standard([-1, 0], [[1, -1]], [1])
    assert res.status == UNBOUNDED


def test_redundant_row_kept_harmless():
    # second row is twice the first
    res = solve_standard([-1, 0], [[1, 1], [2, 2]], [3, 6])
    assert res.status == OPTIMAL
    assert res.objective == -3


def test_beale_cycling_example_terminates():
    # the classic degenerate instance that cycles under naive pivoting
    c = [F(-3, 4), 150, F(-1, 50), 6, 0, 0, 0]
    A = [
        [F(1, 4), -60, F(-1, 25), 9, 1, 0, 0],
        [F(1, 2), -90, F(-1, 50), 3, 0, 1, 0],
        [0, 0, 1, 0, 0, 0, 1],
    ]
    b = [0, 0, 1]
    res = solve_standard(c, A, b)
    assert res.status == OPTIMAL
    assert res.objective == F(-1, 20)


def test_strong_duality_on_fixed_instance():
    c = [2, 3, 0, 0]
    A = [[1, 2, 1, 0], [3, 1, 0, 1]]
    b = [4, 6]
    res = solve_standard(c, A, b)
    assert res.status == OPTIMAL
    y = res.dual
    assert sum(yi * bi for yi, bi in zip(y, b)) == res.objective
    for j in range(4):
        assert sum(y[i] * A[i][j] for i in range(2)) <= c[j]


def test_determinism():
    c = [1, -2, 3, 0, 0]
    A = [[1, 1, 1, 1, 0], [2, -1, 1, 0, 1]]
    b = [4, 2]
    first = solve_standard(c, A, b)
    second = solve_standard(c, A, b)
    assert first == second


def test_ragged_matrix_rejected():
    with pytest.raises(ValueError):
        solve_standard([1, 2], [[1]], [1])


small_ints = st.integers(-4, 4)

# (m, n, A, b, c) with A m x n
lp_instances = st.integers(1, 3).flatmap(lambda m: st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(m), st.just(n),
    st.lists(st.lists(small_ints, min_size=n, max_size=n), min_size=m, max_size=m),
    st.lists(small_ints, min_size=m, max_size=m),
    st.lists(small_ints, min_size=n, max_size=n),
)))


@given(lp_instances)
@settings(max_examples=120, deadline=None)
def test_matches_float_solver(args):
    scipy = pytest.importorskip("scipy")
    from scipy.optimize import linprog

    _, _, A, b, c = args
    exact = solve_standard(c, A, b)
    ref = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    if exact.status == OPTIMAL:
        assert ref.status == 0
        assert abs(float(exact.objective) - ref.fun) < 1e-7
    elif exact.status == INFEASIBLE:
        assert ref.status == 2
        # certificate really proves it
        y = exact.farkas
        m, n = len(A), len(c)
        for j in range(n):
            assert sum(y[i] * A[i][j] for i in range(m)) <= 0
        assert sum(y[i] * b[i] for i in range(m)) > 0
    else:
        assert ref.status == 3


# ------------------------------------------------------ lexicographic objectives

@given(lp_instances)
@settings(max_examples=120, deadline=None)
def test_single_objective_lexicographic_is_solve_standard(args):
    _, _, A, b, c = args
    lex = solve_lexicographic([c], A, b)
    std = solve_standard(c, A, b)
    assert (lex.status, lex.x, lex.objective, lex.dual, lex.farkas) == \
        (std.status, std.x, std.objective, std.dual, std.farkas)


def test_second_objective_breaks_tie():
    # x + y - s = 1: min x + y is 1 on the whole segment x + y = 1, s = 0
    A, b = [[1, 1, -1]], [1]
    assert solve_lexicographic([[1, 1, 0], [1, 0, 0]], A, b).x == (F(0), F(1), F(0))
    res = solve_lexicographic([[1, 1, 0], [0, 1, 0]], A, b)
    assert res.x == (F(1), F(0), F(0))
    # objective and dual certify the first objective
    assert res.objective == 1
    assert res.dual == (F(1),)


@given(lp_instances, st.lists(small_ints, min_size=4, max_size=4))
@settings(max_examples=120, deadline=None)
def test_second_objective_matches_pinned_lp(args, c2):
    # lexicographic optimum == minimize c2 over the face where c.x is optimal,
    # written out as a second LP with the first optimum as an extra row
    _, n, A, b, c = args
    c2 = c2[:n]
    lex = solve_lexicographic([c, c2], A, b)
    first = solve_standard(c, A, b)
    if first.status != OPTIMAL:
        assert lex.status == first.status
        return
    pinned = solve_standard(c2, A + [c], b + [first.objective])
    assert lex.status == pinned.status
    if lex.status == OPTIMAL:
        assert sum(ci * xi for ci, xi in zip(c, lex.x)) == first.objective
        assert sum(ci * xi for ci, xi in zip(c2, lex.x)) == pinned.objective
        assert lex.objective == first.objective


def test_lexicographic_infeasible_farkas_certificate():
    # x1 + x2 = 1 and x1 + x2 = 2 cannot both hold
    A, b = [[1, 1], [1, 1]], [1, 2]
    res = solve_lexicographic([[1, 0], [0, 1]], A, b)
    assert res.status == INFEASIBLE
    y = res.farkas
    for j in range(2):
        assert sum(y[i] * A[i][j] for i in range(2)) <= 0
    assert sum(yi * bi for yi, bi in zip(y, b)) > 0


def test_lexicographic_unbounded():
    # x - s = 1: min -x is unbounded, and so is min -s after min 0
    A, b = [[1, -1]], [1]
    assert solve_lexicographic([[-1, 0], [1, 0]], A, b).status == UNBOUNDED
    assert solve_lexicographic([[0, 0], [0, -1]], A, b).status == UNBOUNDED


def test_lexicographic_rejects_bad_objectives():
    with pytest.raises(ValueError):
        solve_lexicographic([], [[1]], [1])
    with pytest.raises(ValueError):
        solve_lexicographic([[1, 0], [1]], [[1, 1]], [1])
