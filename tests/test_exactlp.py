"""Exact simplex: optima, duals, Farkas certificates, Bland termination,
and agreement with the Fraction reference tableau in ``lp_oracle``."""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from math import gcd, lcm
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ctxlab import exactlp
from ctxlab.exactlp import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lexicographic, solve_standard
from ctxlab.logic import parse_rational, scale_to_integers

import lp_oracle

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


def test_lexicographic_rejects_rhs_length_mismatch():
    with pytest.raises(ValueError, match="rhs length mismatch"):
        solve_lexicographic([[1, 0]], [[1, 1]], [1, 2])


# ------------------------------------------------ integer rows vs the reference

# zero-heavy rational entries: degenerate vertices, zero and sparse rows
rationals = st.one_of(st.just(F(0)), st.integers(-3, 3).map(F),
                      st.fractions(min_value=-4, max_value=4, max_denominator=7))


@st.composite
def rational_lps(draw):
    """(costs, A, b): up to 4 rows of rationals, some of them appended as
    multiples of others (zero rows when the multiple is 0), rhs of either
    sign, one to three objectives."""
    m = draw(st.integers(0, 4))
    n = draw(st.integers(1, 5))
    row = st.lists(rationals, min_size=n, max_size=n)
    A = draw(st.lists(row, min_size=m, max_size=m))
    b = draw(st.lists(rationals, min_size=m, max_size=m))
    if m:
        for k, f in draw(st.lists(st.tuples(st.integers(0, m - 1), rationals),
                                  max_size=2)):
            A.append([f * v for v in A[k]])
            b.append(f * b[k])
    costs = draw(st.lists(row, min_size=1, max_size=3))
    return costs, A, b


def assert_matches_oracle(costs, A, b):
    got = solve_lexicographic(costs, A, b)
    want = lp_oracle.solve_lexicographic(costs, A, b)
    assert (got.status, got.x, got.objective, got.dual, got.farkas) == \
        (want.status, want.x, want.objective, want.dual, want.farkas)
    return got


def assert_integer_tableau(t):
    """Every row integral and primitive, positive in its basic column and 0
    in the other basic columns; the cost row integral, primitive and 0 on
    the basis."""
    for i, (row, bv) in enumerate(zip(t.rows, t.basis)):
        assert all(type(v) is int for v in row)
        assert gcd(*row) == 1 and row[bv] > 0
        assert all(other[bv] == 0 for k, other in enumerate(t.rows) if k != i)
    if t.cost:
        assert all(type(v) is int for v in t.cost)
        assert gcd(*t.cost) in (0, 1)
        assert all(t.cost[bv] == 0 for bv in t.basis)


@contextmanager
def checked_tableau():
    """Check the integer-row invariants after every pivot and cost row."""
    pivot, set_costs = exactlp._Tableau.pivot, exactlp._Tableau.set_costs

    def checked_pivot(t, r, col):
        pivot(t, r, col)
        assert_integer_tableau(t)

    def checked_set_costs(t, costs):
        set_costs(t, costs)
        assert_integer_tableau(t)

    with mock.patch.object(exactlp._Tableau, "pivot", checked_pivot), \
            mock.patch.object(exactlp._Tableau, "set_costs", checked_set_costs):
        yield


@given(rational_lps())
@settings(max_examples=400, deadline=None)
def test_integer_tableau_matches_fraction_oracle(lp):
    with checked_tableau():
        assert_matches_oracle(*lp)


@contextmanager
def recorded_pivots(cls):
    """Record the (row, col) of every pivot ``cls._Tableau`` makes."""
    path, pivot = [], cls._Tableau.pivot

    def recording_pivot(t, r, col):
        path.append((r, col))
        pivot(t, r, col)

    with mock.patch.object(cls._Tableau, "pivot", recording_pivot):
        yield path


@given(rational_lps())
@settings(max_examples=400, deadline=None)
def test_integer_tableau_takes_the_oracle_pivot_path(lp):
    """Equal results are not enough: both kernels pivot on the same
    entries in the same order."""
    with recorded_pivots(exactlp) as got:
        solve_lexicographic(*lp)
    with recorded_pivots(lp_oracle) as want:
        lp_oracle.solve_lexicographic(*lp)
    assert got == want


def test_artificial_driven_out_on_negative_pivot():
    # -x1 - x2 = 0 forces x = 0.  Phase 1 is optimal at once with the
    # artificial basic at zero, and driving it out pivots on the -1 of x1.
    # The row must then be negated, or min -x1 + x2 reads as unbounded.
    with checked_tableau():
        res = assert_matches_oracle([[-1, 1]], [[-1, -1]], [0])
    assert res.status == OPTIMAL and res.x == (0, 0)
    # the same on a row of scale 2: -2 x2 - x3/2 = 0 forces x2 = x3 = 0
    with checked_tableau():
        res = assert_matches_oracle([[-2, 1, 0]],
                                    [[F(1, 2), 1, 0], [0, -2, F(-1, 2)]], [2, 0])
    assert (res.x, res.objective, res.dual) == ((4, 0, 0), -8, (-4, 0))


def test_large_scales_stay_exact():
    # rows over distinct primes 101..139: every row's scale and the cost
    # row's entries run to products of several primes before the gcds
    # bring them back down
    primes = [101, 103, 107, 109, 113, 127, 131, 137, 139]
    A = [[F(1 + (i * j) % 5, primes[(i + j) % 9]) for j in range(6)]
         + [F(1) if k == i else F(0) for k in range(4)] for i in range(4)]
    b = [F(i + 1, primes[-1 - i]) for i in range(4)]
    costs = [[F(-1, primes[j % 9]) for j in range(6)] + [F(0)] * 4,
             [F(0)] * 6 + [F(1, 7)] * 4]
    with checked_tableau():
        res = assert_matches_oracle(costs, A, b)
    assert res.status == OPTIMAL


@contextmanager
def installed_cost_rows():
    """Record every cost row ``exactlp._Tableau.set_costs`` installs."""
    rows, set_costs = [], exactlp._Tableau.set_costs

    def recording_set_costs(t, costs):
        rows.append(list(costs))
        set_costs(t, costs)

    with mock.patch.object(exactlp._Tableau, "set_costs", recording_set_costs):
        yield rows


def test_unique_first_optimum_installs_no_later_cost_row():
    # x + y + s = 1: min x + y is 0 at the one point s = 1, where x and y
    # both have reduced cost 1 and are barred, so no later objective could
    # pivot and none is installed
    costs = [[1, 1, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    with installed_cost_rows() as rows:
        res = assert_matches_oracle(costs, [[1, 1, 1]], [1])
    assert len(rows) == 2  # phase 1 and the first objective
    assert (res.x, res.objective, res.dual) == ((0, 0, 1), 0, (0,))


def test_tied_optimal_face_still_refines():
    # the LP of a canonical form with a tie: x - y = 0 on the hull, so every
    # representative (1 + t, 1 - t) of x + y <= 2 has coefficient sum 2 and
    # s0 + s1 = 2 is optimal throughout; the second objective moves to
    # s = (0, 2), the lexicographically smallest, and bars s0, which
    # leaves the third nothing to do
    costs = [[1, 1], [1, 0], [0, 1]]
    with installed_cost_rows() as rows:
        res = assert_matches_oracle(costs, [[1, 1]], [2])
    assert [r[:2] for r in rows[1:]] == costs[:2]
    assert (res.x, res.objective) == ((0, 2), 2)


_RATIONAL = st.one_of(st.integers(-10**6, 10**6),
                      st.fractions(max_denominator=10**4))


@given(st.lists(_RATIONAL, max_size=12))
@settings(max_examples=200, deadline=None)
def test_scale_to_integers_matches_fraction_reference(values):
    """The one scaling kernel: scale is the lcm of the denominators and the
    ints are the values times it, exactly."""
    ints, scale = scale_to_integers(values)
    want = lcm(*(F(v).denominator for v in values))
    assert scale == want
    assert ints == [int(F(v) * want) for v in values]
    assert all(type(v) is int for v in ints)


def test_scale_to_integers_of_nothing():
    assert scale_to_integers([]) == ([], 1)


def test_scale_to_integers_copies_int_rows():
    # callers update the returned row in place (_rref, _Tableau.pivot), so
    # an all-int input must come back equal but never as the same list
    values = [3, 0, -2]
    ints, scale = scale_to_integers(values)
    assert (ints, scale) == ([3, 0, -2], 1) and ints is not values
    ints[0] = 99
    assert values == [3, 0, -2]
    ints, scale = scale_to_integers((True, False, 2))
    assert (ints, scale) == ([1, 0, 2], 1)
    assert [type(v) for v in ints] == [int, int, int]


@pytest.mark.parametrize("text", ["1e4300", "-2.5E-4300", "1e0004300", " 7e1 ", "3/4"])
def test_parse_rational_reads_exponents_up_to_the_limit(text):
    assert parse_rational(text) == Fraction(text)


@pytest.mark.parametrize("text", ["1e4301", "1e-4301", "1e5_000", "1e" + "9" * 5000,
                                  "1e100000000"])
def test_parse_rational_refuses_larger_exponents_before_building_them(text):
    with pytest.raises(OverflowError, match="exponent magnitude over 4300"):
        parse_rational(text)


@pytest.mark.parametrize("text", ["9" * 4300, "1_" * 4299 + "1", "9" * 4300 + "." + "9" * 4300],
                         ids=["4300-digits", "underscores-not-counted", "two-runs-of-4300"])
def test_parse_rational_reads_digit_runs_up_to_the_limit(text):
    assert parse_rational(text) == Fraction(text)


@pytest.mark.parametrize("text", ["1" * 4301, "-" + "1_" * 4300 + "1", "1/" + "7" * 4301,
                                  "0." + "5" * 4301, "1e" + "0" * 4301 + "1"],
                         ids=["integer", "underscored", "denominator", "decimals", "exponent"])
def test_parse_rational_refuses_digit_runs_past_the_limit(text):
    # Python's int refuses them too, with a ValueError that names no place
    with pytest.raises(OverflowError, match="^more than 4300 digits$"):
        parse_rational(text)
