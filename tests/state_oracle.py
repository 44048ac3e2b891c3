"""Reference for the state-space bookkeeping: per-state set building.

The loops ``atom_state_sets`` and ``classify_states`` ran before they read
one bytes column per atom.  Each state's bits are walked atom by atom into
one Python set per atom; atoms with equal sets are grouped and the pairs
sorted by atom index.  Slow on large state spaces, so only meant as an
oracle.

Also the all-Fraction weight check and by-name sum that ``MixtureWeights``
and ``convex_mixture`` ran before they moved to integer numerators over a
common denominator, the per-context sum ``check_measure`` runs on any
assignment, and the state readers (columns, rows, 0/1 vertices) rebuilt
from each state's public ``bits`` tuple and ``Fraction(b)`` per coordinate.

And ``brute_force_states``, the exhaustive reference for
``enumerate_states``: every one of the 2^n bit vectors checked against the
one-true-atom-per-context rule, refused above ``BRUTE_FORCE_ATOM_LIMIT``
atoms.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Mapping, Sequence

from ctxlab.logic import InvalidInput, Logic
from ctxlab.polytope import VertexSet
from ctxlab.states import (MeasureReport, StateSpaceReport, TwoValuedState,
                           WeightsNotNormalized, enumerate_states)


BRUTE_FORCE_ATOM_LIMIT = 24


class TooLarge(Exception):
    """Brute-force enumeration refused: atom count above the hard limit."""


def brute_force_states(logic: Logic) -> tuple[TwoValuedState, ...]:
    """Check all 2^n bit vectors against the one-true-atom-per-context rule.

    Independent of ``enumerate_states`` on purpose; refuses logics with
    more than ``BRUTE_FORCE_ATOM_LIMIT`` atoms.
    """
    n = len(logic.atoms)
    if n > BRUTE_FORCE_ATOM_LIMIT:
        raise TooLarge(f"{n} atoms exceeds the brute-force limit of {BRUTE_FORCE_ATOM_LIMIT}")
    idx = logic.atom_index
    # first atom is the most significant bit, so numeric order = lex order
    masks = [sum(1 << (n - 1 - idx[a]) for a in ctx) for ctx in logic.contexts]
    out = []
    for v in range(1 << n):
        if all((v & m).bit_count() == 1 for m in masks):
            bits = tuple((v >> (n - 1 - k)) & 1 for k in range(n))
            out.append(TwoValuedState(logic.atoms, bits))
    return tuple(out)


def atom_state_sets(logic: Logic,
                    states: Sequence[TwoValuedState] | None = None) -> dict[str, frozenset[int]]:
    """For each atom, the set of state indices where it is valued 1."""
    if states is None:
        states = enumerate_states(logic)
    sets: dict[str, set[int]] = {a: set() for a in logic.atoms}
    for i, s in enumerate(states):
        for a, b in zip(s.atoms, s.bits):
            if b:
                sets[a].add(i)
    return {a: frozenset(v) for a, v in sets.items()}


def classify_states(logic: Logic,
                    states: Sequence[TwoValuedState] | None = None) -> StateSpaceReport:
    """Count states and report unitality and separability.

    A logic with no states at all is reported non-unital on every atom and
    vacuously separating.
    """
    if states is None:
        states = enumerate_states(logic)
    count = len(states)
    sets = atom_state_sets(logic, states)
    non_unital = tuple(a for a in logic.atoms if not sets[a])
    if count == 0:
        return StateSpaceReport(count=0, unital=False, non_unital_atoms=tuple(logic.atoms),
                                separating=True, inseparable_pairs=())
    idx = logic.atom_index
    pairs = []
    groups: dict[frozenset[int], list[str]] = {}
    for a in logic.atoms:
        groups.setdefault(sets[a], []).append(a)
    for members in groups.values():
        members.sort(key=idx.__getitem__)
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                pairs.append((members[i], members[j]))
    pairs.sort(key=lambda p: (idx[p[0]], idx[p[1]]))
    return StateSpaceReport(count=count, unital=not non_unital, non_unital_atoms=non_unital,
                            separating=not pairs, inseparable_pairs=tuple(pairs))


def pair_target_values(logic: Logic, antecedent: str, target: str) -> set[int]:
    """The target's values over the states where the antecedent is true,
    read state by state by atom name."""
    return {s[target] for s in enumerate_states(logic) if s[antecedent]}


def mixture_weights(values) -> tuple[Fraction, ...]:
    """Each value as a Fraction; raises what ``Fraction`` raises, but
    :class:`InvalidInput` where that is ``OverflowError`` (an infinite
    float) or ``ZeroDivisionError`` ("1/0"), or :class:`WeightsNotNormalized`
    for a negative weight or a sum other than 1."""
    try:
        ws = tuple(Fraction(w) for w in values)
    except OverflowError as err:
        raise InvalidInput(str(err)) from None
    except ZeroDivisionError:
        raise InvalidInput("zero denominator in a weight") from None
    if any(w < 0 for w in ws):
        raise WeightsNotNormalized("negative weight")
    if sum(ws, Fraction(0)) != 1:
        raise WeightsNotNormalized(f"weights sum to {sum(ws, Fraction(0))}, not 1")
    return ws


def convex_mixture(states: Sequence[TwoValuedState], weights) -> dict[str, Fraction]:
    """Per atom of the first state, the sum of the weights of the states
    where it is true, added by atom name."""
    if not states:
        return {}
    probs = {a: Fraction(0) for a in states[0].atoms}
    for w, s in zip(mixture_weights(weights), states):
        for a, b in zip(s.atoms, s.bits):
            if b:
                probs[a] += w
    return probs


def check_measure(logic: Logic, assignment: Mapping, tolerance=0) -> MeasureReport:
    """Nonnegativity and per-context sums added value by value."""
    nonneg = tuple((a, assignment[a]) for a in logic.atoms if not assignment[a] >= -tolerance)
    bad_sums = []
    for i, ctx in enumerate(logic.contexts):
        total = sum(assignment[a] for a in ctx)
        if not abs(total - 1) <= tolerance:
            bad_sums.append((i, total))
    return MeasureReport(ok=not nonneg and not bad_sums, nonneg_failures=nonneg,
                         context_sum_failures=tuple(bad_sums))


def columns(logic: Logic, states: Sequence[TwoValuedState]) -> list[bytes]:
    """Per atom of the logic, its value in each state."""
    return [bytes(s.bits[j] for s in states) for j in range(len(logic.atoms))]


def rows(logic: Logic, states: Sequence[TwoValuedState],
         atoms: Sequence[str]) -> list[tuple[int, ...]]:
    """Per state, the named atoms' values."""
    positions = [logic.atoms.index(a) for a in atoms]
    return [tuple(s.bits[j] for j in positions) for s in states]


def vertices_from_states(logic: Logic, states: Sequence[TwoValuedState],
                         project: Sequence[str] | None = None) -> VertexSet:
    """The states as counted, sorted 0/1 vertices over ``project``."""
    labels = logic.atoms if project is None else tuple(project)
    counted = Counter(tuple(Fraction(b) for b in row) for row in rows(logic, states, labels))
    ordered = sorted(counted)
    return VertexSet(labels, tuple(ordered), tuple(counted[v] for v in ordered))
