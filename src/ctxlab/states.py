"""Two-valued states on a logic: enumeration, classification, certificates.

A two-valued state assigns 0 or 1 to every atom so that each context contains
exactly one atom valued 1.  States are returned in a canonical order: sorted
lexicographically by their bit string over the logic's atom order.  State
indices used in reports are 0-based positions in that order.

A state keeps its bits as one ``bytes`` value, one 0/1 byte per atom.
:func:`enumerate_states` writes the bits of all the states it finds into
one blob and gives each state a slice of it, so no per-state tuple of ints
is built; ``TwoValuedState.bits`` builds one on request.  The readers here
work on the bytes: ``_columns`` joins them again and slices one column per
atom, ``_rows`` zips the columns of the named atoms only.  States passed in
are read by atom position through ``_columns``, ``_rows`` and
``convex_mixture``, which refuse states that are not over the logic's (or
the first state's) atoms in its order (:class:`ForeignStates`).  The other
positional readers take states this module enumerated itself, or read a
state through its own ``atoms``: ``pair_property`` and the witness searches
of ``certify_value_indefiniteness`` index the bytes of
:func:`enumerate_states`'s states by the logic's atom positions, and
``TwoValuedState.__getitem__`` and ``bit_string`` read a state's own bytes.

The states come from a frontier search (:func:`_true_masks`): a dynamic
program over the contexts that groups partial states by their values on
the atoms a later context still holds.  The states are sorted once at the
end, so the order in which the search took the contexts never shows.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from functools import lru_cache
from itertools import compress, repeat
from typing import Iterable, Mapping, Sequence, Union

# MissingAtom and PairProperty live in the base layer and are re-exported here
from ctxlab.logic import (InvalidInput, Logic, LogicError, MissingAtom, PairProperty, _Record,
                          parse_rational, paste_logics, scale_to_integers, validate_logic)

Number = Union[Fraction, float]


class UnknownAtom(LogicError):
    pass


class WeightCountMismatch(LogicError):
    pass


class WeightsNotNormalized(LogicError):
    pass


class ForeignStates(LogicError):
    """States that are not over the logic's atoms in the logic's order."""


class ConditionFailed(LogicError):
    """One of the indefiniteness certificate conditions does not hold.

    ``which`` names the failed condition; ``witness`` is an offending state
    when one exists.
    """

    def __init__(self, which: str, message: str, witness: "TwoValuedState | None" = None):
        super().__init__(f"{which}: {message}")
        self.which = which
        self.witness = witness


class TwoValuedState:
    """One {0,1} assignment; ``atoms`` fixes the coordinate order of ``bits``.

    The bits are kept as one private ``bytes`` value, byte i holding atom
    i's value, and ``bits`` returns them as a tuple of ints.  Frozen like a
    ctxlab record, whose ``__setattr__`` and ``__delattr__`` it shares:
    equal when the class, the atoms and the bits are equal, hashable, and
    assignment or deletion raises ``dataclasses.FrozenInstanceError``.
    ``atoms`` is kept as a tuple.  Construction raises ``ValueError`` for
    bits whose count is not that of ``atoms``, a bit that is not 0 or 1, or
    an atom named twice.
    """

    __slots__ = ("atoms", "_raw")

    def __init__(self, atoms: Sequence[str], bits: Sequence[int]):
        atoms, raw = tuple(atoms), bytes(bits)
        if len(raw) != len(atoms):
            raise ValueError(f"state has {len(raw)} bits for {len(atoms)} atoms")
        stray = raw.translate(None, b"\x00\x01")
        if stray:
            raise ValueError(f"state bit {stray[0]} is not 0 or 1")
        if len(set(atoms)) < len(atoms):
            repeated = next(a for i, a in enumerate(atoms) if a in atoms[:i])
            raise ValueError(f"state repeats atom {repeated!r}")
        _set_atoms(self, atoms)
        _set_raw(self, raw)

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple(self._raw)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.atoms == other.atoms and self._raw == other._raw

    def __hash__(self) -> int:
        return hash((self.atoms, self._raw))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(atoms={self.atoms!r}, bits={self.bits!r})"

    __setattr__ = _Record.__setattr__
    __delattr__ = _Record.__delattr__

    def __reduce__(self):
        return type(self), (self.atoms, self._raw)

    def __getitem__(self, atom: str) -> int:
        try:
            return self._raw[self.atoms.index(atom)]
        except ValueError:
            raise UnknownAtom(f"no atom {atom!r} in this state") from None

    def bit_string(self) -> str:
        return self._raw.translate(_BIT_CHARS).decode()


# the slots' own setters, which the frozen __setattr__ does not block
_set_atoms = TwoValuedState.atoms.__set__
_set_raw = TwoValuedState._raw.__set__
_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")  # '0'/'1' characters to bits
_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")  # and back


class StateSpaceReport(_Record):
    count: int
    unital: bool
    non_unital_atoms: tuple[str, ...]
    separating: bool
    inseparable_pairs: tuple[tuple[str, str], ...]


class MeasureReport(_Record):
    """Result of checking the probability-measure axioms on an assignment.

    Nonnegativity and per-context unit sums are checked numerically.
    Exclusivity within a context needs no check: a per-atom assignment
    gives each atom one number, so it cannot double-count a context.
    """

    ok: bool
    nonneg_failures: tuple[tuple[str, Number], ...]
    context_sum_failures: tuple[tuple[int, Number], ...]


class IndefinitenessCertificate(_Record):
    """Witness that the antecedent atom can carry no consistent value.

    The first logic forces target false whenever the antecedent is true, the
    second forces it true, and their pasting consequently admits no state at
    all with the antecedent true.
    """

    antecedent: str
    target: str
    tifs_logic: Logic
    tits_logic: Logic
    pasted: Logic
    pasted_state_count: int


def _check_valid(logic: Logic) -> None:
    report = validate_logic(logic)
    if not report.ok:
        rules = sorted({v.rule for v in report.violations})
        raise InvalidInput(f"logic does not validate (rules: {', '.join(rules)})")


def _true_masks(logic: Logic) -> list[int]:
    """The true masks of all states of a valid logic, in no set order; atom
    i sits at bit n-1-i of a true mask.

    The search takes the contexts one at a time and keeps the partial
    states, each an assignment to the atoms seen so far, grouped by their
    values on the boundary: the seen atoms that a later context still
    holds.  Two partial states that agree there have the same completions,
    so each step branches once per group, on the boundary atom of the
    context that is already true or on each of its free atoms, and applies
    the choice to every member's full true mask.  Groups that reach the
    same boundary values merge.

    A boundary key is a pair (true, false) of masks over boundary slots,
    not over atom bits: an atom takes a free slot when it is first seen and
    gives it back after the context that holds it last, so the keys stay as
    narrow as the boundary however many atoms the logic has.

    The next context is one with the most atoms already seen, taken from a
    bucket queue indexed by that count (stale entries are skipped when
    popped), so ordering costs time linear in the total context size.
    """
    n = len(logic.atoms)
    get = logic.atom_index.__getitem__
    contexts = [list(map(get, c)) for c in logic.contexts]
    around: list[list[int]] = [[] for _ in range(n)]  # the contexts of each atom
    for ci, c in enumerate(contexts):
        for i in c:
            around[i].append(ci)
    left = list(map(len, around))  # contexts of each atom still to come
    seen = [0] * len(contexts)  # atoms seen, per context; -1 once taken
    buckets = [list(range(len(contexts) - 1, -1, -1))]
    buckets += [[] for _ in range(max(map(len, contexts), default=0))]
    top = 0
    slot = [0] * n  # each seen atom's slot bit; 0 for an atom not seen yet
    spare = 0  # slot bits given back
    fresh = 1  # the lowest slot bit never used
    # bit n of every true mask is a constant 1: bin() then keeps the leading
    # zeros, and the empty logic still gives one state with bits ()
    groups = {(0, 0): [1 << n]}
    for _ in contexts:
        while True:
            bucket = buckets[top]
            if not bucket:
                top -= 1
                continue
            ci = bucket.pop()
            if seen[ci] == top:
                break
        seen[ci] = -1
        ctx = retire = 0
        picks = []  # (slot bit, true-mask bit) per atom of the context
        for i in contexts[ci]:
            b = slot[i]
            if not b:  # first sight of atom i
                if spare:
                    b = spare & -spare
                    spare ^= b
                else:
                    b = fresh
                    fresh <<= 1
                slot[i] = b
                for d in around[i]:
                    c = seen[d]
                    if c >= 0:
                        seen[d] = c = c + 1
                        buckets[c].append(d)
                        if c > top:
                            top = c
            ctx |= b
            picks.append((b, 1 << (n - 1 - i)))
            left[i] -= 1
            if not left[i]:
                retire |= b
        spare |= retire
        keep = ~retire
        merged: dict[tuple[int, int], list[int]] = {}
        for (true, false), members in groups.items():
            hit = true & ctx
            if hit:
                if not hit & (hit - 1):  # exactly one true atom already
                    key = (true & keep, (false | ctx ^ hit) & keep)
                    if (old := merged.get(key)) is None:
                        merged[key] = members
                    else:
                        old += members
                continue
            for b, g in picks:
                if b & false:
                    continue
                key = ((true | b) & keep, (false | ctx ^ b) & keep)
                grown = [m | g for m in members]
                if (old := merged.get(key)) is None:
                    merged[key] = grown
                else:
                    old += grown
        groups = merged
    # a valid logic puts every atom in a context, so in the end every atom
    # has left the boundary and all surviving states share the empty key
    return groups.get((0, 0), [])


@lru_cache(maxsize=256)
def enumerate_states(logic: Logic) -> tuple[TwoValuedState, ...]:
    """All two-valued states of a valid logic, canonically ordered.

    A frontier search (:func:`_true_masks`) collects the true mask of every
    state, an int with atom i at bit n-1-i.  The numeric order of the true
    masks is the lexicographic order of the bit strings, so sorting them
    gives the canonical order, whatever order the search took the contexts
    in.  The search keeps no stack and no recursion, so neither Python's
    recursion limit nor the depth of the logic bounds it.  The test suite
    checks it against an exhaustive search over all 2^n bit vectors.
    """
    _check_valid(logic)
    n = len(logic.atoms)
    found = _true_masks(logic)
    found.sort()
    # bin() writes each true mask as "0b1" and its n bits: one translate
    # turns all of them, joined, into one blob of 0/1 bytes, and each state
    # keeps a slice of it, the bytes after the "0b1" of its n+3 byte chunk
    blob = "".join(map(bin, found)).encode().translate(_BIT_VALUES)
    raws = [blob[i:i + n] for i in range(3, len(blob) + 1, n + 3)]
    # bare instances, then their two slots set by C-level passes
    states = tuple(map(object.__new__, repeat(TwoValuedState, len(raws))))
    deque(map(_set_atoms, states, repeat(logic.atoms)), maxlen=0)
    deque(map(_set_raw, states, raws), maxlen=0)
    return states


def _require_atoms(states: Sequence[TwoValuedState], atoms: tuple[str, ...],
                   owner: str) -> None:
    """Raise :class:`ForeignStates` unless every state is over ``atoms`` in
    their order; ``owner`` names where the atoms come from."""
    for s in states:
        if s.atoms is not atoms and s.atoms != atoms:
            raise ForeignStates(f"states are not over the atoms of {owner} in its order")


def _columns(logic: Logic, states: Sequence[TwoValuedState],
             atoms: Sequence[str] | None = None) -> list[bytes]:
    """One bytes column per atom of ``atoms`` (default: every atom of the
    logic): byte i of atom j's column is its value in state i, sliced as
    ``blob[j::n]`` from all states' bits joined.  Raises
    :class:`ForeignStates` unless every state is over the logic's atoms in
    the logic's order, as :func:`enumerate_states` gives them."""
    _require_atoms(states, logic.atoms, f"logic {logic.name or '<anonymous>'}")
    n = len(logic.atoms)
    blob = b"".join([s._raw for s in states])
    positions = range(n) if atoms is None else [logic.atom_index[a] for a in atoms]
    return [blob[j::n] for j in positions]


def _rows(logic: Logic, states: Sequence[TwoValuedState],
          atoms: Sequence[str]) -> Iterable[tuple[int, ...]]:
    """Per state, the named atoms' values: their :func:`_columns` zipped, or
    ``()`` for each state when no atom is named (a zip of nothing is empty)."""
    cols = _columns(logic, states, atoms)
    return zip(*cols) if atoms else repeat((), len(states))


def atom_state_sets(logic: Logic,
                    states: Sequence[TwoValuedState] | None = None) -> dict[str, frozenset[int]]:
    """For each atom, the set of state indices where it is valued 1: the
    positions of the 1 bytes in its column (see :func:`_columns`)."""
    if states is None:
        states = enumerate_states(logic)
    indices = range(len(states))
    return {a: frozenset(compress(indices, col))
            for a, col in zip(logic.atoms, _columns(logic, states))}


def classify_states(logic: Logic,
                    states: Sequence[TwoValuedState] | None = None) -> StateSpaceReport:
    """Count states and report unitality and separability.

    Reads one bytes column per atom (see :func:`_columns`).  An atom is
    non-unital when its column holds no 1, and two atoms are inseparable
    when their columns are equal.  Pairing each atom, in atom order, with
    the later atoms of its column's group lists the pairs in index order.

    A logic with no states at all is reported non-unital on every atom and
    vacuously separating.
    """
    if states is None:
        states = enumerate_states(logic)
    count = len(states)
    if count == 0:
        return StateSpaceReport(count=0, unital=False, non_unital_atoms=tuple(logic.atoms),
                                separating=True, inseparable_pairs=())
    cols = _columns(logic, states)
    non_unital = tuple(compress(logic.atoms, [1 not in col for col in cols]))
    groups: dict[bytes, list[str]] = {}
    for a, col in zip(logic.atoms, cols):
        groups.setdefault(col, []).append(a)
    pairs = []
    for col in cols:
        # the group's atoms before this one were popped on their own turn
        later = groups[col]
        a = later.pop(0)
        pairs.extend(zip(repeat(a), later))
    return StateSpaceReport(count=count, unital=not non_unital, non_unital_atoms=non_unital,
                            separating=not pairs, inseparable_pairs=tuple(pairs))


def pair_property(logic: Logic, antecedent: str, target: str) -> PairProperty:
    """Relation forced on ``target`` across states where ``antecedent`` is true."""
    for a in (antecedent, target):
        if a not in logic.atom_index:
            raise UnknownAtom(f"no atom {a!r} in logic {logic.name or '<anonymous>'}")
    i, t = logic.atom_index[antecedent], logic.atom_index[target]
    target_values = {s._raw[t] for s in enumerate_states(logic) if s._raw[i]}
    if not target_values:
        return PairProperty.ANTECEDENT_NEVER_TRUE
    if target_values == {0}:
        return PairProperty.TRUE_IMPLIES_FALSE
    if target_values == {1}:
        return PairProperty.TRUE_IMPLIES_TRUE
    return PairProperty.UNCONSTRAINED


class MixtureWeights(_Record):
    """Nonnegative rational weights summing to exactly one.

    Strings are read by ``logic.parse_rational``, other non-``Fraction``
    values by ``Fraction(value)``; a value too large to read (an infinite
    float, ``"1e5000"``) or a zero denominator (``"1/0"``) raises
    ``InvalidInput``.  The checks run on the integer numerators over the
    weights' common denominator (``logic.scale_to_integers``), kept as
    ``_scaled``; :func:`convex_mixture` and ``urn_simulate`` read them
    through :func:`_scaled_weights`.
    """

    weights: tuple[Fraction, ...]

    def __post_init__(self):
        try:
            ws = tuple(w if isinstance(w, Fraction) else parse_rational(w) if isinstance(w, str)
                       else Fraction(w) for w in self.weights)
        except OverflowError as err:
            raise InvalidInput(str(err)) from None
        except ZeroDivisionError:  # only text reaches it: "1/0"
            raise InvalidInput("zero denominator in a weight") from None
        object.__setattr__(self, "weights", ws)
        nums, d = scale_to_integers(ws)
        # d > 0, so each numerator has its weight's sign
        if min(nums, default=0) < 0:
            raise WeightsNotNormalized("negative weight")
        if sum(nums) != d:
            try:
                total = str(Fraction(sum(nums), d))
            except ValueError:  # past Python's int-to-str digit limit
                total = "a number too long to print"
            raise WeightsNotNormalized(f"weights sum to {total}, not 1")
        object.__setattr__(self, "_scaled", (nums, d))

    def __len__(self) -> int:
        return len(self.weights)

    def __iter__(self):
        return iter(self.weights)


def _scaled_weights(weights: MixtureWeights | Iterable,
                    states: Sequence[TwoValuedState]) -> tuple[list[int], int]:
    """The weights as integer numerators over their common denominator D
    (see :class:`MixtureWeights`), after checking there is one per state."""
    if not isinstance(weights, MixtureWeights):
        weights = MixtureWeights(tuple(weights))
    if len(weights) != len(states):
        raise WeightCountMismatch(f"{len(weights)} weights for {len(states)} states")
    return weights._scaled


def convex_mixture(states: Sequence[TwoValuedState],
                   weights: MixtureWeights | Iterable) -> dict[str, Fraction]:
    """Exact convex combination of states; one weight per state.

    Every state must be over the first state's atoms in their order
    (:class:`ForeignStates` otherwise).  Each atom's probability is the sum
    of the integer numerators (see :class:`MixtureWeights`) of the states
    where it is true, over the common denominator.
    """
    nums, d = _scaled_weights(weights, states)
    atoms = states[0].atoms
    _require_atoms(states, atoms, "the first state")
    positions = range(len(atoms))
    acc = [0] * len(atoms)
    for w, s in zip(nums, states):
        if w:
            for j in compress(positions, s._raw):
                acc[j] += w
    return {a: Fraction(c, d) for a, c in zip(atoms, acc)}


def check_measure(logic: Logic, assignment: Mapping[str, Number],
                  tolerance: Number = 0) -> MeasureReport:
    """Check nonnegativity and per-context unit sums of an assignment.

    ``tolerance`` 0 means exact comparison (the natural mode for rational
    assignments); pass a small float for floating-point inputs.  A NaN value
    fails both checks.  When the tolerance is 0 and every value is a
    ``Fraction``, the sums run on integer numerators over the values' common
    denominator (``logic.scale_to_integers``); a failing total is reported
    as the same ``Fraction`` either way.
    """
    for a in logic.atoms:
        if a not in assignment:
            raise MissingAtom(f"assignment lacks atom {a!r}")
    values = [assignment[a] for a in logic.atoms]
    exact = tolerance == 0 and all(isinstance(v, Fraction) for v in values)
    if exact:
        # integer numerators over the common denominator keep the values'
        # signs, and a context sums to 1 iff its numerators sum to it
        nums, one = scale_to_integers(values)
        value = dict(zip(logic.atoms, nums))
    else:
        value, one = assignment, 1
    nonneg = tuple((a, v) for a, v in zip(logic.atoms, values) if not value[a] >= -tolerance)
    bad_sums = []
    for i, ctx in enumerate(logic.contexts):
        total = sum([value[a] for a in ctx])
        if not abs(total - one) <= tolerance:
            bad_sums.append((i, Fraction(total, one) if exact else total))
    return MeasureReport(ok=not nonneg and not bad_sums,
                         nonneg_failures=nonneg,
                         context_sum_failures=tuple(bad_sums))


def certify_value_indefiniteness(tifs_logic: Logic, tits_logic: Logic,
                                 antecedent: str, target: str) -> IndefinitenessCertificate:
    """Certify that no consistent truth value can be assigned to ``antecedent``.

    Three conditions, checked in order:

    (i)   in ``tifs_logic``, antecedent true forces target false;
    (ii)  in ``tits_logic``, antecedent true forces target true;
    (iii) the pasting of the two admits no state with antecedent true.

    (iii) always follows from (i) and (ii), since a state of the pasting
    restricts to a state of each input; checking it on the pasted state
    space is a consistency check of the enumeration.
    Raises :class:`ConditionFailed` naming the first condition that fails.
    """
    for which, ordinal, side, needed, offending in (
            ("tifs-side", "first", tifs_logic, PairProperty.TRUE_IMPLIES_FALSE, 1),
            ("tits-side", "second", tits_logic, PairProperty.TRUE_IMPLIES_TRUE, 0)):
        prop = pair_property(side, antecedent, target)
        if prop is not needed:
            i, t = side.atom_index[antecedent], side.atom_index[target]
            witness = next((s for s in enumerate_states(side)
                            if s._raw[i] == 1 and s._raw[t] == offending), None)
            raise ConditionFailed(
                which, f"{ordinal} logic has {prop.value}, needs {needed.value}", witness)
    pasted = paste_logics(tifs_logic, tits_logic)
    pasted_states = enumerate_states(pasted)
    i = pasted.atom_index[antecedent]
    if (offender := next((s for s in pasted_states if s._raw[i] == 1), None)) is not None:
        raise ConditionFailed("pasted-antecedent",
                              "pasted logic still has a state with the antecedent true",
                              offender)
    return IndefinitenessCertificate(antecedent=antecedent, target=target,
                                     tifs_logic=tifs_logic, tits_logic=tits_logic,
                                     pasted=pasted, pasted_state_count=len(pasted_states))


def states_table(logic: Logic, states: Sequence[TwoValuedState] | None = None) -> str:
    """Plain-text truth table: one row per state, one column per atom."""
    if states is None:
        states = enumerate_states(logic)
    widths = [max(len(a), 1) for a in logic.atoms]
    lines = ["state " + " ".join(a.rjust(w) for a, w in zip(logic.atoms, widths))]
    cells = [("0".rjust(w), "1".rjust(w)) for w in widths]
    for i, row in enumerate(_rows(logic, states, logic.atoms)):
        lines.append(f"{i:>5} " + " ".join([c[b] for c, b in zip(cells, row)]))
    return "\n".join(lines) + "\n"
