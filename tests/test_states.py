"""State enumeration, classification, mixtures, measures, certificates."""

from __future__ import annotations

import copy
import dataclasses
import itertools
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ctxlab.logic import InvalidInput, Logic, parse_logic
from ctxlab.states import (
    ConditionFailed,
    ForeignStates,
    MissingAtom,
    MixtureWeights,
    PairProperty,
    StateSpaceReport,
    TwoValuedState,
    UnknownAtom,
    WeightCountMismatch,
    WeightsNotNormalized,
    _columns,
    _rows,
    atom_state_sets,
    certify_value_indefiniteness,
    check_measure,
    classify_states,
    convex_mixture,
    enumerate_states,
    pair_property,
    states_table,
)
from ctxlab.catalog import catalog_get, catalog_list
from ctxlab.logic import same_structure
from ctxlab.polytope import vertices_from_states
from ctxlab.urn import partition_representation, urn_simulate
from helpers import load_logic
import reference_sets
import state_oracle
from state_oracle import BRUTE_FORCE_ATOM_LIMIT, TooLarge, brute_force_states


NO_STATE_CYCLE = parse_logic("context 1 2\ncontext 2 3\ncontext 3 1\n")


def cycle(k: int) -> Logic:
    """k three-atom contexts (s_i, m_i, s_i+1) closed into a cycle."""
    return parse_logic("".join(f"context s{i} m{i} s{(i + 1) % k}\n" for i in range(k)))


def chain(n: int) -> Logic:
    """n two-atom contexts (c_i, c_i+1) in a row: two alternating states."""
    return parse_logic("".join(f"context c{i} c{i + 1}\n" for i in range(n)))


def catalog_logics() -> list[Logic]:
    return [e.logic for e in map(catalog_get, catalog_list()) if e.logic is not None]


def assert_matches_oracle(logic, states=None):
    assert classify_states(logic, states) == state_oracle.classify_states(logic, states)
    assert atom_state_sets(logic, states) == state_oracle.atom_state_sets(logic, states)


class TestEnumerate:
    def test_single_context_indicators_sorted(self):
        states = enumerate_states(parse_logic("context 1 2 3\n"))
        assert [s.bits for s in states] == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]

    def test_counts_match_reference(self):
        for name, expected in reference_sets.STATE_COUNTS.items():
            states = enumerate_states(load_logic(name))
            assert len(states) == expected, name

    def test_state_sets_match_reference_families(self):
        for name, sets in reference_sets.INDEX_SETS.items():
            logic = load_logic(name)
            enumerated = {s.bits for s in enumerate_states(logic)}
            rebuilt = reference_sets.rebuild_states(name, logic.atoms)
            assert enumerated == rebuilt, name

    def test_two_atom_odd_cycle_has_no_state(self):
        assert enumerate_states(NO_STATE_CYCLE) == ()

    def test_every_context_has_one_true_atom(self):
        logic = load_logic("specker_bug_combo")
        for s in enumerate_states(logic):
            for ctx in logic.contexts:
                assert sum(s[a] for a in ctx) == 1

    def test_output_is_sorted_and_duplicate_free(self):
        states = enumerate_states(load_logic("square4d"))
        bits = [s.bits for s in states]
        assert bits == sorted(bits)
        assert len(set(bits)) == len(bits)

    def test_invalid_logic_rejected(self):
        with pytest.raises(ValueError):
            enumerate_states(Logic(("a", "b", "x"), (("a", "b"),)))

    def test_empty_logic_has_one_empty_state(self):
        states = enumerate_states(Logic((), ()))
        assert states == brute_force_states(Logic((), ()))
        assert [s.bits for s in states] == [()]

    def test_deep_chain_has_two_alternating_states(self):
        n = 10_000
        logic = parse_logic("".join(f"context c{i} c{i + 1}\n" for i in range(n)))
        states = enumerate_states(logic)
        assert [s.bits for s in states] == [
            tuple((i + j) % 2 for i in range(n + 1)) for j in (0, 1)]

    def test_cycle24_has_lucas_many_states(self):
        # the Lucas number L_24: the k-cycle's count is L_k (perfbench/gen.py)
        assert len(enumerate_states(cycle(24))) == 103_682

    def test_peres24_has_no_state(self):
        # Peres' 24 rays of R^4: (1,0,0,0), (1,±1,0,0), (1,±1,±1,±1) up to
        # sign and permutation; the contexts are its orthogonal bases
        rays = sorted({tuple(c if next(x for x in v if x) > 0 else -c for c in v)
                       for base in ((1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 1))
                       for signs in itertools.product((1, -1), repeat=4)
                       for v in itertools.permutations([b * s for b, s in zip(base, signs)])})
        names = ["r" + "".join("m" if c < 0 else str(c) for c in r) for r in rays]
        bases = [q for q in itertools.combinations(range(len(rays)), 4)
                 if all(sum(x * y for x, y in zip(rays[i], rays[j])) == 0
                        for i, j in itertools.combinations(q, 2))]
        logic = Logic(tuple(names), tuple(tuple(names[i] for i in q) for q in bases))
        assert (len(logic.atoms), len(logic.contexts)) == (24, 24)
        assert enumerate_states(logic) == ()


class TestBruteForce:
    """The exhaustive reference enumerator of ``state_oracle``."""

    def test_agrees_with_enumeration_on_small_logics(self):
        for name in ("triangle4d", "square4d", "pentagon", "specker_bug",
                     "specker_bug_extended"):
            logic = load_logic(name)
            assert brute_force_states(logic) == enumerate_states(logic), name

    def test_too_large_guard(self):
        logic = load_logic("indefinite_fig5c")
        assert len(logic.atoms) > BRUTE_FORCE_ATOM_LIMIT
        with pytest.raises(TooLarge):
            brute_force_states(logic)

    def test_zero_state_logic(self):
        assert brute_force_states(NO_STATE_CYCLE) == ()


class TestTwoValuedState:
    """The bytes-backed state keeps the contract of the frozen dataclass it
    replaced: value equality and hash, repr, frozenness, pickling."""

    @pytest.mark.parametrize("name", ["pentagon", "specker_bug_combo", "tifs_fig5a"])
    def test_enumerated_equal_built_from_tuples(self, name):
        states = enumerate_states(load_logic(name))
        rebuilt = tuple(TwoValuedState(s.atoms, tuple(s.bits)) for s in states)
        assert rebuilt == states
        assert [hash(s) for s in rebuilt] == [hash(s) for s in states]
        assert set(rebuilt) == set(states) and len(set(states)) == len(states)

    def test_not_equal_across_atom_order_bits_or_type(self):
        s = TwoValuedState(("a", "b"), (0, 1))
        assert s != TwoValuedState(("b", "a"), (0, 1))
        assert s != TwoValuedState(("a", "b"), (1, 0))
        assert s != (("a", "b"), (0, 1)) and s != b"\x00\x01" and s != (0, 1)
        assert s == TwoValuedState(("a", "b"), [0, 1])

    def test_repr(self):
        assert (repr(TwoValuedState(("a", "b"), [0, 1]))
                == "TwoValuedState(atoms=('a', 'b'), bits=(0, 1))")
        s = enumerate_states(parse_logic("context x y\n"))[0]
        assert repr(s) == "TwoValuedState(atoms=('x', 'y'), bits=(0, 1))"

    @pytest.mark.parametrize("attr", ["atoms", "bits", "_raw", "other"])
    def test_frozen(self, attr):
        s = enumerate_states(load_logic("pentagon"))[3]
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(s, attr, (1,))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(s, attr)
        assert s == enumerate_states(load_logic("pentagon"))[3]

    def test_pickle_and_copy_round_trips(self):
        for s in (*enumerate_states(load_logic("pentagon")), TwoValuedState((), ())):
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                back = pickle.loads(pickle.dumps(s, protocol))
                assert back == s and type(back) is TwoValuedState and back.bits == s.bits
            for twin in (copy.copy(s), copy.deepcopy(s)):
                assert twin == s and hash(twin) == hash(s) and repr(twin) == repr(s)

    def test_bits_is_a_tuple_of_ints(self):
        for s in (*enumerate_states(load_logic("pentagon")),
                  TwoValuedState(("a", "b", "c"), [0, 1, 0])):
            assert type(s.bits) is tuple
            assert all(type(b) is int and b in (0, 1) for b in s.bits)
        assert TwoValuedState(("a", "b", "c"), [0, 1, 0]).bits == (0, 1, 0)

    def test_bit_string_and_lookup(self):
        logic = load_logic("specker_bug_combo")
        for s in enumerate_states(logic):
            assert s.bit_string() == "".join(str(b) for b in s.bits)
            assert [s[a] for a in logic.atoms] == list(s.bits)
        s = TwoValuedState(("a", "b"), [1, 0])
        assert s.bit_string() == "10" and s["a"] == 1 and s["b"] == 0
        with pytest.raises(UnknownAtom):
            s["c"]
        assert TwoValuedState((), ()).bit_string() == ""


class TestClassify:
    def test_specker_bug_separating_unital(self):
        report = classify_states(load_logic("specker_bug"))
        assert report.count == 14
        assert report.unital and report.separating
        assert report.non_unital_atoms == () and report.inseparable_pairs == ()

    def test_combo_inseparable_pairs(self):
        report = classify_states(load_logic("specker_bug_combo"))
        assert report.count == 82
        assert report.unital
        assert not report.separating
        assert set(report.inseparable_pairs) >= {("a", "a'"), ("b", "b'")}

    def test_indefinite_fig5c_non_unital_atoms(self):
        report = classify_states(load_logic("indefinite_fig5c"))
        assert report.count == 8
        assert not report.unital
        assert report.non_unital_atoms == ("a", "2", "13", "15", "16", "17", "25", "27")

    def test_fig5_sides_single_antecedent_state(self):
        for name in ("tifs_fig5a", "tits_fig5b"):
            logic = load_logic(name)
            sets = atom_state_sets(logic)
            assert len(sets["a"]) == 1, name
            assert classify_states(logic).non_unital_atoms == ("16",), name

    def test_zero_state_logic_reports(self):
        report = classify_states(NO_STATE_CYCLE)
        assert report.count == 0
        assert not report.unital
        assert report.non_unital_atoms == ("1", "2", "3")
        assert report.separating and report.inseparable_pairs == ()

    def test_pair_ordering_follows_atom_order(self):
        report = classify_states(load_logic("specker_bug_combo"))
        for x, y in report.inseparable_pairs:
            logic = load_logic("specker_bug_combo")
            assert logic.atom_index[x] < logic.atom_index[y]


class TestColumnsMatchOracle:
    """The bytes-column classification against the per-state loops."""

    def test_catalog(self):
        logics = catalog_logics()
        assert len(logics) >= 9
        for logic in logics:
            assert_matches_oracle(logic)

    @pytest.mark.parametrize("k", range(3, 15))
    def test_cycles(self, k):
        assert_matches_oracle(cycle(k))

    def test_chain_pairs_by_parity(self):
        n = 600
        logic = chain(n)
        report = classify_states(logic)
        # c_i and c_j agree in both states exactly when i and j have the same parity
        want = tuple((f"c{i}", f"c{j}") for i in range(n + 1) for j in range(i + 2, n + 1, 2))
        assert len(want) == 301 * 300 // 2 + 300 * 299 // 2
        assert report == StateSpaceReport(count=2, unital=True, non_unital_atoms=(),
                                          separating=False, inseparable_pairs=want)
        assert_matches_oracle(logic)

    def test_zero_state_logic(self):
        assert_matches_oracle(NO_STATE_CYCLE)
        assert atom_state_sets(NO_STATE_CYCLE) == {a: frozenset() for a in "123"}

    def test_explicit_states_argument(self):
        logic = load_logic("specker_bug_combo")
        states = enumerate_states(logic)
        assert_matches_oracle(logic, states)
        assert_matches_oracle(logic, states[5:40])



def _urn(logic, states):
    return urn_simulate(logic, states, [Fraction(1, len(states))] * len(states), 0, 10, seed=1)


class TestForeignStates:
    """States are read by position, so they must be over the logic's atoms in
    its order; any other atom tuple is refused, even one of the same size."""

    @pytest.mark.parametrize("fn", [classify_states, atom_state_sets, partition_representation,
                                    vertices_from_states, _urn, states_table])
    def test_rejected(self, fn):
        logic = load_logic("pentagon")
        permuted = Logic(atoms=logic.atoms[::-1], contexts=logic.contexts)
        renamed = Logic(atoms=tuple(a + "'" for a in logic.atoms),
                        contexts=tuple(tuple(a + "'" for a in c) for c in logic.contexts))
        own = enumerate_states(logic)
        for other in (permuted, renamed, load_logic("specker_bug"), parse_logic("context x y\n")):
            states = enumerate_states(other)
            with pytest.raises(ForeignStates):
                fn(logic, states)
            with pytest.raises(ForeignStates):
                fn(logic, own[:3] + states[:1])

    def test_equal_atom_tuple_accepted(self):
        logic = load_logic("pentagon")
        copy = Logic(atoms=tuple(list(logic.atoms)), contexts=logic.contexts)
        states = enumerate_states(copy)
        assert states[0].atoms is not logic.atoms
        assert classify_states(logic, states) == classify_states(logic)

    @pytest.mark.parametrize("weights", [[0, 1], [1, 0], [Fraction(1, 2)] * 2])
    def test_mixture_of_states_over_other_atoms(self, weights):
        # no logic to check against: every state must be over the first
        # state's atoms, whatever the weights
        mixed = (enumerate_states(parse_logic("context x y\n"))[0],
                 enumerate_states(parse_logic("context u v\n"))[0])
        with pytest.raises(ForeignStates, match="atoms of the first state"):
            convex_mixture(mixed, weights)

    def test_mixture_of_states_over_an_equal_atom_tuple(self):
        logic = load_logic("pentagon")
        states = enumerate_states(logic)
        copy = enumerate_states(Logic(atoms=tuple(list(logic.atoms)), contexts=logic.contexts))
        weights = [Fraction(1, 11)] * 11
        assert convex_mixture(states[:5] + copy[5:], weights) == convex_mixture(states, weights)


class TestPairProperty:
    def test_specker_bug_tifs(self):
        logic = load_logic("specker_bug")
        assert pair_property(logic, "a", "b") is PairProperty.TRUE_IMPLIES_FALSE

    def test_extended_tits(self):
        logic = load_logic("specker_bug_extended")
        assert pair_property(logic, "a", "a'") is PairProperty.TRUE_IMPLIES_TRUE

    def test_indefinite_fig5c_antecedent_never_true(self):
        logic = load_logic("indefinite_fig5c")
        assert pair_property(logic, "a", "b") is PairProperty.ANTECEDENT_NEVER_TRUE

    def test_unconstrained(self):
        assert pair_property(load_logic("pentagon"), "1", "4") is PairProperty.UNCONSTRAINED

    def test_reflexive_pair(self):
        assert pair_property(load_logic("pentagon"), "1", "1") is PairProperty.TRUE_IMPLIES_TRUE

    def test_unknown_atom(self):
        with pytest.raises(UnknownAtom):
            pair_property(load_logic("pentagon"), "1", "zz")

    @pytest.mark.parametrize("logic", catalog_logics(), ids=lambda lg: lg.name)
    def test_every_ordered_pair_matches_oracle(self, logic):
        expected = {frozenset(): PairProperty.ANTECEDENT_NEVER_TRUE,
                    frozenset({0}): PairProperty.TRUE_IMPLIES_FALSE,
                    frozenset({1}): PairProperty.TRUE_IMPLIES_TRUE,
                    frozenset({0, 1}): PairProperty.UNCONSTRAINED}
        for a in logic.atoms:
            for t in logic.atoms:
                values = frozenset(state_oracle.pair_target_values(logic, a, t))
                assert pair_property(logic, a, t) is expected[values], (a, t)


class TestMixtures:
    def test_pentagon_uniform(self):
        logic = load_logic("pentagon")
        states = enumerate_states(logic)
        p = convex_mixture(states, [Fraction(1, 11)] * 11)
        assert type(p) is dict
        sets = reference_sets.INDEX_SETS["pentagon"]
        for atom in logic.atoms:
            assert p[atom] == Fraction(len(sets[atom]), 11)

    def test_indicator_weights_recover_state(self):
        states = enumerate_states(load_logic("specker_bug"))
        k = 5
        weights = [Fraction(0)] * len(states)
        weights[k] = Fraction(1)
        p = convex_mixture(states, weights)
        assert all(p[a] == b for a, b in zip(states[k].atoms, states[k].bits))

    def test_no_states_no_weights_is_not_normalized(self):
        # an empty weight tuple sums to 0, so there is no empty mixture
        with pytest.raises(WeightsNotNormalized, match=r"^weights sum to 0, not 1$"):
            convex_mixture((), ())

    def test_weight_count_mismatch(self):
        states = enumerate_states(load_logic("pentagon"))
        with pytest.raises(WeightCountMismatch):
            convex_mixture(states, [Fraction(1)])

    def test_unnormalized_weights(self):
        with pytest.raises(WeightsNotNormalized):
            MixtureWeights((Fraction(1, 2), Fraction(1, 3)))
        with pytest.raises(WeightsNotNormalized):
            MixtureWeights((Fraction(3, 2), Fraction(-1, 2)))

    def test_text_weights_refuse_huge_exponents_before_building_them(self):
        # Fraction("1e5000") would build 10**5000 and sum it; the refusal is
        # a domain error, which ``except ValueError`` catches too
        with pytest.raises(InvalidInput, match="^exponent magnitude over 4300$"):
            MixtureWeights(("1e5000",))
        with pytest.raises(InvalidInput, match="^cannot convert Infinity to integer ratio$"):
            MixtureWeights((float("inf"),))

    def test_text_weight_with_zero_denominator_is_a_domain_error(self):
        with pytest.raises(InvalidInput, match="^zero denominator in a weight$"):
            MixtureWeights((Fraction(1, 2), "1/0"))


class TestCheckMeasure:
    def test_exotic_pentagon_half_measure(self):
        logic = load_logic("pentagon")
        half = Fraction(1, 2)
        p = {a: (half if int(a) % 2 else Fraction(0)) for a in logic.atoms}
        report = check_measure(logic, p, tolerance=0)
        assert report.ok

    def test_constant_one_fails_every_context(self):
        logic = load_logic("pentagon")
        report = check_measure(logic, {a: Fraction(1) for a in logic.atoms})
        assert not report.ok
        assert len(report.context_sum_failures) == len(logic.contexts)

    def test_negative_value_flagged(self):
        logic = parse_logic("context x y\n")
        report = check_measure(logic, {"x": Fraction(3, 2), "y": Fraction(-1, 2)})
        assert report.nonneg_failures == (("y", Fraction(-1, 2)),)

    def test_float_tolerance(self):
        logic = parse_logic("context x y z\n")
        p = {"x": 0.2, "y": 0.7, "z": 0.1}  # sums to 1 - 1 ulp
        assert not check_measure(logic, p, tolerance=0).ok
        assert check_measure(logic, p, tolerance=1e-9).ok

    def test_missing_atom(self):
        with pytest.raises(MissingAtom):
            check_measure(load_logic("pentagon"), {"1": Fraction(1)})

    @pytest.mark.parametrize("tolerance", [0, 1e-9])
    def test_nan_atom_fails(self, tolerance):
        logic = load_logic("pentagon")
        p = {a: (Fraction(1, 2) if int(a) % 2 else Fraction(0)) for a in logic.atoms}
        p["1"] = float("nan")
        report = check_measure(logic, p, tolerance=tolerance)
        assert not report.ok
        assert [a for a, _ in report.nonneg_failures] == ["1"]
        assert ([i for i, _ in report.context_sum_failures]
                == [i for i, ctx in enumerate(logic.contexts) if "1" in ctx])


class TestCertifyValueIndefiniteness:
    def test_fig5_pair_certifies(self):
        cert = certify_value_indefiniteness(load_logic("tifs_fig5a"),
                                            load_logic("tits_fig5b"), "a", "b")
        assert cert.pasted_state_count == 8
        assert same_structure(cert.pasted, load_logic("indefinite_fig5c"))

    def test_tits_side_failure_names_condition(self):
        bug = load_logic("specker_bug")
        with pytest.raises(ConditionFailed) as err:
            certify_value_indefiniteness(bug, bug, "a", "b")
        assert err.value.which == "tits-side"
        assert err.value.witness is not None
        assert err.value.witness["a"] == 1 and err.value.witness["b"] == 0
        # the first such state in canonical order
        assert err.value.witness == next(
            s for s in enumerate_states(bug) if s["a"] == 1 and s["b"] == 0)

    def test_tifs_side_failure(self):
        tits = load_logic("tits_fig5b")
        with pytest.raises(ConditionFailed) as err:
            certify_value_indefiniteness(tits, load_logic("tifs_fig5a"), "a", "b")
        assert err.value.which == "tifs-side"
        assert err.value.witness == next(
            s for s in enumerate_states(tits) if s["a"] == 1 and s["b"] == 1)


class TestSerialization:
    def test_table_shape(self):
        logic = load_logic("pentagon")
        table = states_table(logic)
        lines = table.strip().splitlines()
        assert len(lines) == 12
        assert lines[0].split() == ["state"] + list(logic.atoms)
        assert lines[1].split()[0] == "0"


@st.composite
def small_valid_logics(draw, max_atoms=8, max_contexts=4):
    n = draw(st.integers(2, max_atoms))
    atoms = tuple(str(i) for i in range(1, n + 1))
    n_ctx = draw(st.integers(1, max_contexts))
    contexts, seen = [], set()
    for _ in range(n_ctx):
        size = draw(st.integers(2, min(4, n)))
        members = tuple(draw(st.permutations(list(atoms)))[:size])
        if frozenset(members) not in seen:
            seen.add(frozenset(members))
            contexts.append(members)
    used = {a for c in contexts for a in c}
    return Logic(tuple(a for a in atoms if a in used), tuple(contexts))


@given(small_valid_logics(max_atoms=12, max_contexts=8), st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
def test_enumeration_matches_brute_force(logic, rng):
    from ctxlab.logic import validate_logic
    if not validate_logic(logic).ok:
        return
    expected = brute_force_states(logic)
    assert enumerate_states(logic) == expected
    # the search picks its own context order, so the declared order of the
    # contexts, and of the atoms inside each, must not show in the result
    contexts = [tuple(rng.sample(c, len(c))) for c in logic.contexts]
    rng.shuffle(contexts)
    assert enumerate_states(Logic(logic.atoms, tuple(contexts))) == expected


@given(st.lists(st.integers(0, 100), min_size=11, max_size=11).filter(lambda w: sum(w) > 0))
@settings(max_examples=60, deadline=None)
def test_mixtures_satisfy_measure_axioms(raw):
    logic = load_logic("pentagon")
    states = enumerate_states(logic)
    total = sum(raw)
    weights = [Fraction(w, total) for w in raw]
    p = convex_mixture(states, weights)
    assert check_measure(logic, p, tolerance=0).ok


def _weights_outcome(fn, values):
    """The type and value of each weight ``fn`` returns for the values, or
    the type and message of what it raises."""
    try:
        weights = fn(tuple(values))
    except Exception as err:
        return type(err), str(err)
    return [(type(w), w) for w in weights]


def _as_text(w: Fraction) -> str:
    return f"{w.numerator}/{w.denominator}"


@st.composite
def weight_inputs(draw):
    """Weight tuples as ints, Fractions, floats and "p/q" strings: half of
    them convex (then perhaps one entry negated or one more appended), half
    arbitrary, the empty tuple among them."""
    if draw(st.booleans()):
        raw = draw(st.lists(st.integers(0, 9), min_size=1, max_size=7).filter(any))
        ws = [Fraction(r, sum(raw)) for r in raw]
        change = draw(st.sampled_from(("none", "negate", "append")))
        if change == "negate":
            i = draw(st.integers(0, len(ws) - 1))
            ws[i] = -ws[i]
        elif change == "append":
            ws.append(draw(st.fractions(max_denominator=20)))
        forms = [lambda w: w, _as_text]
        return [draw(st.sampled_from(forms + [int] * (w.denominator == 1) +
                                     [float] * (w.denominator & (w.denominator - 1) == 0)))(w)
                for w in ws]
    return draw(st.lists(st.one_of(
        st.integers(-3, 5),
        st.fractions(max_denominator=50),
        st.floats(allow_nan=True, allow_infinity=True),
        st.fractions(max_denominator=50).map(_as_text),
        st.sampled_from(("1/0", "abc", "0.25", "-1/3"))), max_size=6))


@given(weight_inputs())
@example([float("inf")])
@example([float("-inf")])
@settings(max_examples=400, deadline=None)
def test_mixture_weights_accept_and_reject_like_fraction_sums(values):
    assert (_weights_outcome(lambda v: MixtureWeights(v).weights, values)
            == _weights_outcome(state_oracle.mixture_weights, values))


def test_mixture_weights_messages():
    for values, message in (((), "weights sum to 0, not 1"),
                            ((Fraction(1, 2), Fraction(1, 3)), "weights sum to 5/6, not 1"),
                            ((Fraction(3, 2), Fraction(-1, 2)), "negative weight"),
                            ((2, "-1"), "negative weight")):
        with pytest.raises(WeightsNotNormalized) as err:
            MixtureWeights(values)
        assert str(err.value) == message


_CUT = st.tuples(st.integers(0, 10 ** 6), st.integers(1, 10 ** 6)).map(
    lambda t: Fraction(min(t), t[1]))


@given(st.sampled_from([n for n in catalog_list() if catalog_get(n).logic is not None]),
       st.lists(_CUT, min_size=90, max_size=90))
@settings(max_examples=60, deadline=None)
def test_mixture_matches_fraction_sum_oracle(name, cuts):
    # weights are the gaps between sorted cut points in [0, 1]: mixed
    # denominators, zeros where cuts coincide
    states = enumerate_states(catalog_get(name).logic)
    ends = [Fraction(0), *sorted(cuts[:len(states) - 1]), Fraction(1)]
    weights = [b - a for a, b in zip(ends, ends[1:])]
    assert dict(convex_mixture(states, weights)) == state_oracle.convex_mixture(states, weights)


@given(small_valid_logics())
@settings(max_examples=150, deadline=None)
def test_classification_matches_oracle_on_brute_force_states(logic):
    from ctxlab.logic import validate_logic
    if not validate_logic(logic).ok:
        return
    assert_matches_oracle(logic, brute_force_states(logic))


@given(small_valid_logics(), st.data())
@settings(max_examples=150, deadline=None)
def test_readers_match_oracle_from_public_bits(logic, data):
    from ctxlab.logic import validate_logic
    if not validate_logic(logic).ok:
        return
    project = data.draw(st.permutations(logic.atoms).flatmap(
        lambda p: st.integers(0, len(p)).map(lambda k: p[:k])))
    for states in (enumerate_states(logic), brute_force_states(logic)):
        assert _columns(logic, states) == state_oracle.columns(logic, states)
        for atoms in (logic.atoms, project):
            assert list(_rows(logic, states, atoms)) == state_oracle.rows(logic, states, atoms)
        for labels in (None, project):
            vset = vertices_from_states(logic, states, labels)
            assert vset == state_oracle.vertices_from_states(logic, states, labels)
            assert all(type(x) is Fraction for v in vset.vertices for x in v)


_MEASURE_VALUES = st.one_of(
    st.fractions(min_value=-1, max_value=2, max_denominator=12),
    st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3)]))


@given(st.sampled_from([n for n in catalog_list() if catalog_get(n).logic is not None]),
       st.data())
@settings(max_examples=200, deadline=None)
def test_check_measure_matches_per_value_sums(name, data):
    # all-Fraction assignments at tolerance 0 take the integer-numerator
    # path; an int or float value, or a tolerance, takes the value sums
    logic = catalog_get(name).logic
    p = {a: data.draw(_MEASURE_VALUES) for a in logic.atoms}
    if data.draw(st.booleans()):
        states = enumerate_states(logic)
        ws = data.draw(st.lists(st.integers(0, 5), min_size=len(states),
                                max_size=len(states)).filter(any))
        p = dict(convex_mixture(states, [Fraction(w, sum(ws)) for w in ws]))
        if data.draw(st.booleans()):
            p[data.draw(st.sampled_from(logic.atoms))] += data.draw(_MEASURE_VALUES)
    mixed = data.draw(st.sampled_from(["fractions", "int", "float"]))
    if mixed != "fractions":
        a = data.draw(st.sampled_from(logic.atoms))
        p[a] = int(p[a]) if mixed == "int" else float(p[a])
    tolerance = data.draw(st.sampled_from([0, 0.0, Fraction(0), Fraction(1, 10), 0.1, 1e-9]))
    got = check_measure(logic, p, tolerance)
    assert got == state_oracle.check_measure(logic, p, tolerance)
    assert ([type(t) for _, t in got.context_sum_failures]
            == [type(t) for _, t in state_oracle.check_measure(logic, p, tolerance)
                .context_sum_failures])
