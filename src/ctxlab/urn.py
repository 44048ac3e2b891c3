"""Partition-logic representations and generalized urn simulation.

Each atom becomes the set of state indices where it is true; every context
then induces a partition of the state-index set, and drawing "balls" (state
indices) from an urn with mixture weights reproduces the convex-mixture
probabilities empirically.  State indices are 1-based throughout this module,
matching the canonical enumeration order used in probability formulas.
"""

from __future__ import annotations

import random
import sys
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import accumulate, compress, repeat
from typing import Mapping, Sequence

from ctxlab.logic import Logic, LogicError, _Record
from ctxlab.states import (MixtureWeights, TwoValuedState, _columns, _rows,
                           _scaled_weights, enumerate_states)

RNG_ID = "mt19937-u64"


class UnknownContext(LogicError):
    """Context index outside the logic's context list."""


class PartitionRepresentation(_Record):
    """Atoms as 1-based state-index sets; faithful when the state space is
    separating (sets pairwise distinct) and unital (sets nonempty)."""

    atom_sets: Mapping[str, frozenset[int]]
    state_count: int
    faithful: bool


class UrnResult(_Record):
    """Empirical per-atom frequencies for one context; exact rationals that
    sum to 1, plus the seed and generator id for reproducibility."""

    context_index: int
    context: tuple[str, ...]
    draws: int
    seed: int
    rng: str
    counts: Mapping[str, int]
    frequencies: Mapping[str, Fraction]


def partition_representation(logic: Logic,
                             states: Sequence[TwoValuedState] | None = None,
                             ) -> PartitionRepresentation:
    """Partition-logic view of the two-valued states.

    Verifies the defining invariant: within every context the atom sets are
    disjoint and cover all state indices.
    """
    if states is None:
        states = enumerate_states(logic)
    n = len(states)
    indices = range(1, n + 1)
    sets = {a: frozenset(compress(indices, col))
            for a, col in zip(logic.atoms, _columns(logic, states))}
    full = frozenset(indices)
    for ctx in logic.contexts:
        blocks = [sets[a] for a in ctx]
        if frozenset().union(*blocks) != full or sum(map(len, blocks)) != n:
            raise ValueError(
                f"context {ctx} does not partition the state indices; "
                "states are not the two-valued states of this logic")
    values = list(sets.values())
    return PartitionRepresentation(atom_sets=sets, state_count=n,
                                   faithful=all(values) and len(set(values)) == len(values))


def urn_simulate(logic: Logic,
                 states: Sequence[TwoValuedState] | None,
                 weights: MixtureWeights | Sequence,
                 context_index: int,
                 draws: int,
                 seed: int) -> UrnResult:
    """Draw ball types with the mixture weights; report per-atom frequencies
    of being the true atom in the chosen context.

    Sampling compares an exact rational uniform variate (64 random bits over
    2^64) against exact cumulative weight thresholds, so the only floating
    point anywhere is in the caller's hands.  Deterministic given the seed.
    Both sides are integers: with the weights as numerators over their
    common denominator D (see :class:`~ctxlab.states.MixtureWeights`), the
    cumulative weight c_i = C_i / D becomes the threshold ceil(c_i * 2^64),
    computed as ``-((-C_i << 64) // D)`` with no Fraction, and each draw
    is one integer bisect over the thresholds.
    """
    if states is None:
        states = enumerate_states(logic)
    nums, d = _scaled_weights(weights, states)
    if draws < 1:
        raise ValueError("need at least one draw")
    if draws > sys.maxsize:
        raise ValueError(f"at most {sys.maxsize} draws")
    if not 0 <= context_index < len(logic.contexts):
        raise UnknownContext(
            f"context index {context_index} not in 0..{len(logic.contexts) - 1}")
    context = logic.contexts[context_index]

    # scaled[i] = ceil(c_i * 2^64) = -((-C_i * 2^64) // D) for the exact
    # cumulative weights c_i = C_i / D (floor division of the negated
    # numerator rounds up); for integer p, p/2^64 < c_i iff p < scaled[i],
    # so the integer bisect below reproduces the rational comparison exactly
    scaled = [-((-c << 64) // d) for c in accumulate(nums)]

    # ball type -> true atom of this context, precomputed per state
    true_atom = [context[row.index(1)] for row in _rows(logic, states, context)]

    # u = bits/2^64 < 1 = c_last, so the bisect always lands on a ball;
    # the draws are counted per ball in one pass, then folded onto atoms
    rng = random.Random(seed)
    balls = Counter(map(partial(bisect_right, scaled), map(rng.getrandbits, repeat(64, draws))))
    counts = {a: 0 for a in context}
    for ball, k in balls.items():
        counts[true_atom[ball]] += k

    frequencies = {a: Fraction(c, draws) for a, c in counts.items()}
    return UrnResult(context_index=context_index, context=context,
                     draws=draws, seed=seed, rng=RNG_ID, counts=counts,
                     frequencies=frequencies)
