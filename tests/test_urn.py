"""Tests for partition representations and urn sampling."""

from __future__ import annotations

import math
import random
import sys
import tracemalloc
from fractions import Fraction
from itertools import accumulate
from types import SimpleNamespace

import pytest

from ctxlab.logic import Logic, parse_logic
from ctxlab.states import (MixtureWeights, TwoValuedState, WeightCountMismatch,
                           convex_mixture, enumerate_states)
from ctxlab.urn import (RNG_ID, UnknownContext, partition_representation,
                        urn_simulate)

from ctxlab import urn
from ctxlab.catalog import catalog_get, catalog_list
from helpers import load_logic
from reference_sets import INDEX_SETS, STATE_COUNTS
import state_oracle
import urn_oracle


def uniform(n: int) -> MixtureWeights:
    return MixtureWeights((Fraction(1, n),) * n)


def indicator(n: int, k: int) -> MixtureWeights:
    return MixtureWeights(tuple(Fraction(1 if i == k else 0) for i in range(n)))


class TestPartitionRepresentation:

    def test_pentagon_shape(self):
        logic = load_logic("pentagon")
        rep = partition_representation(logic)
        assert rep.state_count == 11
        assert set(rep.atom_sets) == set(logic.atoms)
        assert all(s <= frozenset(range(1, 12)) for s in rep.atom_sets.values())
        assert rep.faithful

    @pytest.mark.parametrize("name", sorted(INDEX_SETS))
    def test_block_sizes_match_reference(self, name):
        # |S_a| is invariant under state renumbering, so the sizes must
        # agree with the reference families atom by atom
        logic = load_logic(name)
        rep = partition_representation(logic)
        assert {a: len(s) for a, s in rep.atom_sets.items()} == \
            {a: len(s) for a, s in INDEX_SETS[name].items()}
        assert rep.state_count == STATE_COUNTS[name]

    def test_contexts_partition_indices(self):
        logic = load_logic("specker_bug")
        rep = partition_representation(logic)
        full = frozenset(range(1, rep.state_count + 1))
        for ctx in logic.contexts:
            blocks = [rep.atom_sets[a] for a in ctx]
            assert frozenset().union(*blocks) == full
            assert sum(len(b) for b in blocks) == rep.state_count

    def test_faithful_flags(self):
        assert partition_representation(load_logic("specker_bug")).faithful
        assert not partition_representation(load_logic("specker_bug_combo")).faithful
        rep = partition_representation(load_logic("indefinite_fig5c"))
        assert not rep.faithful
        assert rep.atom_sets["a"] == frozenset()

    def test_single_context(self):
        logic = Logic(atoms=("x", "y", "z"), contexts=(("x", "y", "z"),))
        rep = partition_representation(logic)
        assert sorted(rep.atom_sets.values(), key=sorted) == \
            [frozenset({1}), frozenset({2}), frozenset({3})]
        assert rep.faithful

    def test_catalog_matches_per_state_oracle(self):
        checked = 0
        for name in catalog_list():
            logic = catalog_get(name).logic
            states = enumerate_states(logic) if logic is not None else ()
            if not states:
                continue
            sets = {a: frozenset(i + 1 for i in v)
                    for a, v in state_oracle.atom_state_sets(logic, states).items()}
            report = state_oracle.classify_states(logic, states)
            rep = partition_representation(logic)
            assert rep.atom_sets == sets, name
            assert rep.state_count == len(states), name
            assert rep.faithful == (report.unital and report.separating), name
            checked += 1
        assert checked >= 9

    def test_bad_states_rejected(self):
        logic = Logic(atoms=("x", "y", "z"), contexts=(("x", "y", "z"),))
        dead = TwoValuedState(atoms=("x", "y", "z"), bits=(0, 0, 0))
        with pytest.raises(ValueError):
            partition_representation(logic, (dead,))


class TestUrnSimulate:

    def test_indicator_weights_reproduce_state_bits(self):
        logic = load_logic("pentagon")
        states = enumerate_states(logic)
        for k in (0, 4, 10):
            res = urn_simulate(logic, states, indicator(11, k), 1, 50, seed=7)
            for a in res.context:
                assert res.frequencies[a] == Fraction(states[k][a])

    def test_true_atom_read_by_name(self):
        logic = load_logic("specker_bug_combo")
        states = enumerate_states(logic)
        res = urn_simulate(logic, states, uniform(len(states)), 5, 4000, seed=11)
        # the same draws, with each ball's true atom looked up by atom name
        counts = {a: 0 for a in res.context}
        rng = random.Random(11)
        for _ in range(4000):
            s = states[rng.getrandbits(64) * len(states) >> 64]
            counts[next(a for a in res.context if s[a] == 1)] += 1
        assert res.counts == counts

    def test_single_draw_is_one_hot(self):
        logic = load_logic("pentagon")
        res = urn_simulate(logic, None, uniform(11), 0, 1, seed=123)
        values = sorted(res.frequencies.values())
        assert values == [Fraction(0), Fraction(0), Fraction(1)]
        assert sorted(res.counts.values()) == [0, 0, 1]

    def test_frequencies_sum_to_one_exactly(self):
        logic = load_logic("specker_bug")
        res = urn_simulate(logic, None, uniform(14), 3, 997, seed=5)
        assert sum(res.frequencies.values(), Fraction(0)) == 1
        for a in res.context:
            assert res.frequencies[a] == Fraction(res.counts[a], res.draws)

    def test_metadata_echoed(self):
        logic = load_logic("pentagon")
        res = urn_simulate(logic, None, uniform(11), 0, 10, seed=42)
        assert res.rng == RNG_ID == "mt19937-u64"
        assert res.seed == 42
        assert res.draws == 10
        assert res.context_index == 0
        assert res.context == ("1", "2", "3")

    def test_deterministic_given_seed(self):
        logic = load_logic("pentagon")
        a = urn_simulate(logic, None, uniform(11), 2, 500, seed=11)
        b = urn_simulate(logic, None, uniform(11), 2, 500, seed=11)
        c = urn_simulate(logic, None, uniform(11), 2, 500, seed=12)
        assert a.counts == b.counts
        assert a.counts != c.counts

    def test_unknown_context(self):
        logic = load_logic("pentagon")
        with pytest.raises(UnknownContext):
            urn_simulate(logic, None, uniform(11), 5, 10, seed=1)
        with pytest.raises(UnknownContext):
            urn_simulate(logic, None, uniform(11), -1, 10, seed=1)

    def test_draw_count_positive(self):
        logic = load_logic("pentagon")
        with pytest.raises(ValueError):
            urn_simulate(logic, None, uniform(11), 0, 0, seed=1)

    @pytest.mark.parametrize("seed", [None, 7.0, "7", True])
    def test_seed_must_be_int(self, seed, monkeypatch):
        logic = load_logic("pentagon")
        monkeypatch.setattr(urn, "random", SimpleNamespace(Random=lambda seed: pytest.fail("drew")))
        with pytest.raises(ValueError, match="seed must be an int"):
            urn_simulate(logic, None, uniform(11), 0, 10, seed=seed)

    @pytest.mark.parametrize("seed", [-1, -5, -(2 ** 70)])
    def test_seed_must_be_nonnegative(self, seed, monkeypatch):
        # random.Random seeds from the absolute value, so -5 would draw
        # what 5 draws while reporting another seed
        logic = load_logic("pentagon")
        monkeypatch.setattr(urn, "random", SimpleNamespace(Random=lambda seed: pytest.fail("drew")))
        with pytest.raises(ValueError, match=f"seed must be nonnegative, not {seed}$"):
            urn_simulate(logic, None, uniform(11), 0, 10, seed=seed)

    def test_state_without_true_atom_refused(self):
        logic = Logic(atoms=("x", "y", "z"), contexts=(("x", "y", "z"),))
        states = (TwoValuedState(atoms=("x", "y", "z"), bits=(0, 1, 0)),
                  TwoValuedState(atoms=("x", "y", "z"), bits=(0, 0, 0)))
        with pytest.raises(ValueError, match="state 2 has no true atom in context 0"):
            urn_simulate(logic, states, (Fraction(1, 2),) * 2, 0, 10, seed=1)

    @pytest.mark.parametrize("draws", [True, False, 2.5, 10.0, "10", None])
    def test_draw_count_must_be_int(self, draws, monkeypatch):
        logic = load_logic("pentagon")
        monkeypatch.setattr(urn, "random", SimpleNamespace(Random=lambda seed: pytest.fail("drew")))
        with pytest.raises(ValueError, match="draw count must be an int"):
            urn_simulate(logic, None, uniform(11), 0, draws, seed=1)

    def test_draw_count_fits_ssize_t(self):
        logic = load_logic("pentagon")
        with pytest.raises(ValueError, match="at most"):
            urn_simulate(logic, None, uniform(11), 0, sys.maxsize + 1, seed=1)

    def test_weight_count_checked(self):
        logic = load_logic("pentagon")
        with pytest.raises(WeightCountMismatch):
            urn_simulate(logic, None, uniform(10), 0, 10, seed=1)

    def test_plain_sequence_weights_accepted(self):
        logic = load_logic("pentagon")
        raw = [Fraction(1, 11)] * 11
        res = urn_simulate(logic, None, raw, 0, 20, seed=3)
        assert sum(res.frequencies.values(), Fraction(0)) == 1

    def test_pentagon_uniform_frequencies(self):
        # uniform mixture over the 11 states: exact probabilities on the
        # first context are 3/11, 5/11, 3/11
        logic = load_logic("pentagon")
        res = urn_simulate(logic, None, uniform(11), 0, 100_000, seed=20260822)
        expected = {"1": Fraction(3, 11), "2": Fraction(5, 11), "3": Fraction(3, 11)}
        for a, p in expected.items():
            assert abs(res.frequencies[a] - p) <= Fraction(1, 100)

    @pytest.mark.parametrize("name", ["triangle4d", "square4d", "pentagon",
                                      "specker_bug", "specker_bug_extended"])
    def test_convergence_to_mixture_probabilities(self, name):
        # every atom of every context lands within 0.01 of its exact
        # mixture probability at 100000 draws
        logic = load_logic(name)
        states = enumerate_states(logic)
        weights = uniform(len(states))
        exact = convex_mixture(states, weights)
        for i in range(len(logic.contexts)):
            res = urn_simulate(logic, states, weights, i, 100_000, seed=600 + i)
            for a in res.context:
                assert abs(res.frequencies[a] - exact[a]) <= Fraction(1, 100)


def weights_of_kind(kind: str, n: int) -> list[Fraction]:
    """Convex weights over n states: ``uniform``; ``sparse`` (seeded, zero
    at both ends); ``dyadic`` (1/2, 1/4, ..., the last two equal, so the
    late thresholds sit exactly on multiples of 2^-64 or below them);
    ``wide`` (seeded numerators up to 10^20 over their sum)."""
    rng = random.Random(n)
    if kind == "uniform":
        return [Fraction(1, n)] * n
    if kind == "dyadic":
        return [Fraction(1, 2 ** min(i + 1, n - 1)) for i in range(n)]
    if kind == "sparse":
        raw = [0] + [rng.choice((0, 0, 1, 2, 3)) for _ in range(n - 3)] + [1, 0]
    else:
        raw = [rng.randrange(10 ** 20) for _ in range(n)]
    return [Fraction(r, sum(raw)) for r in raw]


class ScriptedBits:
    """Stands in for ``random.Random``: getrandbits(64 * m) returns the
    next m given values packed low word first, as CPython packs m
    successive getrandbits(64) values."""

    def __init__(self, values):
        self._values = iter(values)

    def getrandbits(self, k):
        assert k % 64 == 0
        return sum(next(self._values) << 64 * i for i in range(k // 64))


class TestUrnMatchesOracle:
    """Counts equal those of the per-draw Fraction sampler in
    ``tests/urn_oracle.py`` for the same seed."""

    @pytest.mark.parametrize("draws", [1, 2000])
    @pytest.mark.parametrize("kind", ["uniform", "sparse", "dyadic", "wide"])
    @pytest.mark.parametrize("name", ["pentagon", "specker_bug_combo"])
    def test_counts(self, name, kind, draws):
        logic = load_logic(name)
        states = enumerate_states(logic)
        weights = weights_of_kind(kind, len(states))
        for i in range(min(4, len(logic.contexts))):
            res = urn_simulate(logic, states, weights, i, draws, seed=31 + i)
            assert res.counts == urn_oracle.urn_counts(logic, states, weights, i, draws, 31 + i)

    @pytest.mark.parametrize("name,kind", [("pentagon", "sparse"),
                                           ("specker_bug_combo", "wide")])
    def test_counts_at_100000_draws(self, name, kind):
        logic = load_logic(name)
        states = enumerate_states(logic)
        weights = weights_of_kind(kind, len(states))
        res = urn_simulate(logic, states, weights, 1, 100_000, seed=2018)
        assert res.counts == urn_oracle.urn_counts(logic, states, weights, 1, 100_000, 2018)

    @pytest.mark.parametrize("context_index", [0, 5])
    def test_more_than_255_balls_across_blocks(self, context_index):
        # the 12-cycle has 322 states, so balls 255 and up are only ever
        # bisected, and 100000 draws span two blocks of 2^16
        logic = parse_logic("".join(f"context s{i} m{i} s{(i + 1) % 12}\n" for i in range(12)))
        states = enumerate_states(logic)
        assert len(states) == 322
        weights = uniform(322)
        res = urn_simulate(logic, states, weights, context_index, 100_000, seed=33)
        assert res.counts == urn_oracle.urn_counts(logic, states, weights, context_index,
                                                   100_000, 33)

    @pytest.mark.parametrize("kind", ["uniform", "sparse", "dyadic", "wide"])
    def test_draws_on_and_next_to_every_threshold(self, kind, monkeypatch):
        # 64-bit draws at floor and ceil of every ball's threshold c * 2^64
        # and one off them, where a threshold rounded the wrong way would
        # credit the wrong atom
        logic = load_logic("specker_bug_combo")
        states = enumerate_states(logic)
        weights = weights_of_kind(kind, len(states))
        top = (1 << 64) - 1
        bits = [0, top]
        for c in accumulate(weights):
            t = c * (1 << 64)
            bits += [min(max(v, 0), top)
                     for v in (math.floor(t) - 1, math.floor(t), math.ceil(t), math.ceil(t) + 1)]
        # some draws have a top byte whose 2^56-wide range a ball threshold
        # splits, others one inside a single ball's range; the sampler keeps
        # only the ball thresholds where the true atom changes (see
        # test_draws_on_and_next_to_every_run_bound)
        split = {t >> 56 for t in (math.ceil(c * (1 << 64)) for c in accumulate(weights))
                 if t % (1 << 56)}
        assert {b >> 56 in split for b in bits} == {True, False}
        monkeypatch.setattr(urn, "random", SimpleNamespace(Random=lambda seed: ScriptedBits(bits)))
        for i in range(len(logic.contexts)):
            res = urn_simulate(logic, states, weights, i, len(bits), seed=0)
            want = urn_oracle.urn_counts(logic, states, weights, i, len(bits), 0,
                                         rng=ScriptedBits(bits))
            assert res.counts == want


def wide_context_logic() -> Logic:
    """A 300-atom context a0..a299 pasted to the context a0 b c at a0:
    599 states, and context positions 255 and up in context 0."""
    return parse_logic("context " + " ".join(f"a{i}" for i in range(300))
                       + "\ncontext a0 b c\n")


def run_bounds(states, weights, context) -> list[int]:
    """ceil(c * 2^64) for each cumulative weight c after which the next
    positive-weight state has another true atom in the context."""
    atom = [next(a for a in context if s[a]) for s in states]
    live = [(c, a) for c, w, a in zip(accumulate(weights), weights, atom) if w]
    return [math.ceil(c * (1 << 64)) for (c, a), (_, b) in zip(live, live[1:]) if a != b]


def sandwich_zeros(states, context) -> list[Fraction]:
    """Equal weights, except zero for each state whose two neighbours
    share a true atom in the context that it does not have."""
    atom = [next(a for a in context if s[a]) for s in states]
    zero = {j for j in range(1, len(states) - 1) if atom[j - 1] == atom[j + 1] != atom[j]}
    assert zero
    return [Fraction(0 if j in zero else 1, len(states) - len(zero))
            for j in range(len(states))]


class TestRuns:
    """Counts per run of states that share a true atom, against
    ``tests/urn_oracle.py``."""

    @pytest.mark.parametrize("kind", ["uniform", "sparse", "wide"])
    @pytest.mark.parametrize("context_index", [0, 1])
    def test_context_of_more_than_255_atoms(self, kind, context_index):
        # context 0's positions 255..299 are never in the table, so their
        # draws are always bisected
        logic = wide_context_logic()
        states = enumerate_states(logic)
        assert len(states) == 599
        weights = weights_of_kind(kind, len(states))
        res = urn_simulate(logic, states, weights, context_index, 2000, seed=71)
        assert res.counts == urn_oracle.urn_counts(logic, states, weights, context_index,
                                                   2000, 71)
        if context_index == 0:
            assert sum(res.counts[f"a{i}"] for i in range(255, 300)) > 0

    @pytest.mark.parametrize("context_index", [1, 3, 4])
    def test_zero_weight_states_inside_a_run(self, context_index):
        # a zero-weight state with another true atom between two states
        # with the same true atom: the two share one run (draws on its
        # bounds are in test_draws_on_and_next_to_every_run_bound)
        logic = load_logic("pentagon")
        states = enumerate_states(logic)
        weights = sandwich_zeros(states, logic.contexts[context_index])
        res = urn_simulate(logic, states, weights, context_index, 3000, seed=9)
        assert res.counts == urn_oracle.urn_counts(logic, states, weights, context_index,
                                                   3000, 9)

    @pytest.mark.parametrize("name,kind", [("pentagon", "zeros"),
                                           ("specker_bug_combo", "uniform"),
                                           ("specker_bug_combo", "dyadic"),
                                           ("specker_bug_combo", "wide"),
                                           ("wide", "uniform"), ("wide", "sparse")])
    def test_draws_on_and_next_to_every_run_bound(self, name, kind, monkeypatch):
        logic = wide_context_logic() if name == "wide" else load_logic(name)
        states = enumerate_states(logic)
        top = (1 << 64) - 1
        for i, context in enumerate(logic.contexts):
            if kind == "zeros" and i not in (1, 3, 4):
                continue
            weights = (sandwich_zeros(states, context) if kind == "zeros"
                       else weights_of_kind(kind, len(states)))
            bounds = run_bounds(states, weights, context)
            assert bounds
            bits = [0, top] + [min(b + e, top) for b in bounds for e in (-1, 0, 1)]
            monkeypatch.setattr(urn, "random",
                                SimpleNamespace(Random=lambda seed: ScriptedBits(bits)))
            res = urn_simulate(logic, states, weights, i, len(bits), seed=0)
            assert res.counts == urn_oracle.urn_counts(logic, states, weights, i, len(bits), 0,
                                                       rng=ScriptedBits(bits))


class TestBlockDraws:
    """The bulk draws read the same stream and keep memory bounded."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 2018, 2 ** 70 + 3])
    @pytest.mark.parametrize("k", [1, 2, 3, 1000])
    def test_bulk_bits_are_packed_single_draws(self, seed, k):
        one_by_one = random.Random(seed)
        packed = sum(one_by_one.getrandbits(64) << 64 * i for i in range(k))
        assert random.Random(seed).getrandbits(64 * k) == packed

    def test_memory_bounded_by_the_block(self):
        logic = load_logic("pentagon")
        states = enumerate_states(logic)
        weights = uniform(len(states))
        draws = 4 * urn._BLOCK + 1
        tracemalloc.start()
        try:
            res = urn_simulate(logic, states, weights, 0, draws, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(res.counts.values()) == draws
        assert peak < 4 << 20
