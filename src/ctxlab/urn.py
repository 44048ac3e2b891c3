"""Partition-logic representations and generalized urn simulation.

Each atom becomes the set of state indices where it is true; every context
then induces a partition of the state-index set, and drawing "balls" (state
indices) from an urn with mixture weights reproduces the convex-mixture
probabilities empirically.  State indices are 1-based throughout this module,
matching the canonical enumeration order used in probability formulas.
Urn draws take their 64-bit integers from one ``getrandbits`` call per
block of 2^16 and are counted per run of consecutive states that share
their true atom in the drawn context (see :func:`urn_simulate`).
"""

from __future__ import annotations

import random
import sys
from bisect import bisect_right
from fractions import Fraction
from itertools import compress
from typing import Mapping, Sequence

from ctxlab.logic import Logic, LogicError, _Record
from ctxlab.states import (MixtureWeights, TwoValuedState, _columns,
                           _scaled_weights, enumerate_states)

RNG_ID = "mt19937-u64"

_BLOCK = 1 << 16  # draws per getrandbits call
_TOP = 7 if sys.byteorder == "little" else 0  # top byte's offset in a word


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
    point anywhere is in the caller's hands.  Deterministic given the seed,
    which must be a nonnegative int (``random.Random`` seeds from the
    absolute value, so -5 would draw what 5 draws), and the draw count must
    be an int too (bools are refused).
    Both sides are integers: with the weights as numerators over their
    common denominator D (see :class:`~ctxlab.states.MixtureWeights`), the
    cumulative weight c = C / D becomes the threshold ceil(c * 2^64),
    computed as ``-((-C << 64) // D)`` with no Fraction.

    Consecutive positive-weight states with the same true atom in the
    context form one run, and only the thresholds where the true atom
    changes are kept; a draw lands in the run with the number of those
    thresholds at or below its 64 bits, which gives the same count per
    atom as finding its state.  A block of up to 2^16 draws is one
    ``getrandbits(64 * size)`` call, which equals ``size`` successive
    ``getrandbits(64)`` values packed low word first (CPython fills it from
    32-bit words, least significant first), so memory is bounded by the
    block and the stream is unchanged.  A 256-entry table maps a draw's
    top byte to the context position of the run owning all of its 2^56
    values, and each position's hits are one ``bytes.count``; a byte that
    a run threshold splits, or whose run's position is 255 or more, maps
    to the marker 255, and only those marked draws are bisected.
    """
    for name, value in (("seed", seed), ("draw count", draws)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an int, not {type(value).__name__}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, not {seed}")
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

    # each state's true atom, as its position in the context: one pass
    # over the context's columns, last column first so that a state's
    # first true atom wins
    true_pos = [-1] * len(states)
    for k, col in reversed(list(enumerate(_columns(logic, states, context)))):
        i = col.find(1)
        while i >= 0:
            true_pos[i] = k
            i = col.find(1, i + 1)
    if -1 in true_pos:
        raise ValueError(f"state {true_pos.index(-1) + 1} has no true atom in "
                         f"context {context_index}")

    # runs of consecutive positive-weight states with the same true atom;
    # a run ends at bounds[r] = ceil(C / D * 2^64) = -((-C * 2^64) // D)
    # for the exact cumulative weight C / D of its last state (floor division
    # of the negated numerator rounds up), and owner[r] is its position;
    # for integer p, p/2^64 < C/D iff p < bounds[r], so the integer
    # bisect below reproduces the rational comparison exactly
    cum, ends, owner = 0, [], []
    for w, k in zip(nums, true_pos):
        if w:
            cum += w
            if owner and owner[-1] == k:
                ends[-1] = cum
            else:
                ends.append(cum)
                owner.append(k)
    bounds = [-((-c << 64) // d) for c in ends]

    # table[j] = the position of the run whose range [previous bound,
    # bound) covers [j, j + 1) * 2^56, for positions 0..254; else 255
    table = bytearray(b"\xff" * 256)
    for k, lo, hi in zip(owner, [0, *bounds], bounds):
        lo, hi = -(-lo >> 56), hi >> 56
        if k < 255 and lo < hi:
            table[lo:hi] = bytes((k,)) * (hi - lo)
    listed = set(table) - {255}

    # u = bits/2^64 < 1 = the last bound, so the bisect always lands on a
    # run; table hits are counted per position, marked draws one by one
    rng = random.Random(seed)
    hits = [0] * len(context)
    for start in range(0, draws, _BLOCK):
        size = min(_BLOCK, draws - start)
        blob = rng.getrandbits(64 * size).to_bytes(8 * size, sys.byteorder)
        marks = blob[_TOP::8].translate(table)
        for k in listed:
            hits[k] += marks.count(k)
        i = marks.find(255)
        if i >= 0:
            words = memoryview(blob).cast("Q")
            while i >= 0:
                hits[owner[bisect_right(bounds, words[i])]] += 1
                i = marks.find(255, i + 1)
    counts = dict(zip(context, hits))

    frequencies = {a: Fraction(c, draws) for a, c in counts.items()}
    return UrnResult(context_index=context_index, context=context,
                     draws=draws, seed=seed, rng=RNG_ID, counts=counts,
                     frequencies=frequencies)
