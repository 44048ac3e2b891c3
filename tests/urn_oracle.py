"""Reference urn sampler: one exact rational comparison per draw.

Each draw reads ``getrandbits(64)`` from ``random.Random(seed)`` as the
Fraction u = bits / 2^64 and picks the first state whose Fraction
cumulative weight exceeds u; the drawn state's true atom in the context is
then looked up by name.  This is the definition ``urn.urn_simulate``
implements with integer thresholds, written without them.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate

from ctxlab.logic import Logic


def urn_counts(logic: Logic, states, weights, context_index: int, draws: int,
               seed: int, rng=None) -> dict[str, int]:
    """Per-atom counts of ``draws`` draws; ``rng`` replaces
    ``random.Random(seed)`` when given."""
    context = logic.contexts[context_index]
    cumulative = list(accumulate(Fraction(w) for w in weights))
    rng = random.Random(seed) if rng is None else rng
    counts = dict.fromkeys(context, 0)
    for _ in range(draws):
        u = Fraction(rng.getrandbits(64), 1 << 64)
        state = states[bisect_right(cumulative, u)]
        counts[next(a for a in context if state[a])] += 1
    return counts
