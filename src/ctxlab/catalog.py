"""Built-in logic fixtures with their expected state-space metadata.

Each entry bundles a logic shipped as a data file, the classification the
state machinery must reproduce, any known vector realization, and short notes.
A realization's vector file is parsed on the first read of
``entry.realization``, so listing or loading entries never needs numpy, and
the realization module is imported only by that read.  The expected pair
properties are ``ctxlab.logic.PairProperty`` values, so the catalog never
loads the state layer.  The angle window of
``impossible_fig6`` is two ``math`` calls, defined here and re-exported by
``ctxlab.realization``.
One entry, ``impossible_fig6``, intentionally carries no logic at all: it is
the record of an angle-window obstruction, so only its feasibility data is
meaningful and structure-requiring operations must be refused by callers.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from importlib import resources
from itertools import combinations
from math import acos, asin
from typing import TYPE_CHECKING

from ctxlab.logic import Logic, LogicError, PairProperty, _Record, parse_logic

if TYPE_CHECKING:
    from ctxlab.realization import Realization


class UnknownEntry(LogicError):
    """Requested name is not in the catalog."""


class FeasibilityWindow(_Record):
    """Angle constraints a single pair of atoms would have to satisfy."""

    tifs_min_angle: float
    tits_max_angle: float
    feasible: bool


def bug_pasting_feasibility() -> FeasibilityWindow:
    """Angle window for gluing the true-implies-false and true-implies-true
    bug variants onto one atom pair in dimension 3: the pair would need an
    angle of at least arccos(1/3) and at most arcsin(1/3) simultaneously."""
    lo = acos(1 / 3)
    hi = asin(1 / 3)
    return FeasibilityWindow(tifs_min_angle=lo, tits_max_angle=hi,
                             feasible=lo <= hi)


class ExpectedStates(_Record):
    """Classification the states module must reproduce for an entry."""

    state_count: int
    separating: bool
    unital: bool
    non_unital_atoms: tuple[str, ...] = ()
    inseparable_pairs: tuple[tuple[str, str], ...] = ()
    special_pairs: tuple[tuple[str, str, PairProperty], ...] = ()


class CatalogEntry(_Record):
    """One fixture; ``realized`` says whether it ships a vector file."""

    name: str
    logic: Logic | None
    expected: ExpectedStates | None
    realized: bool = False
    notes: str = ""
    angle_window: FeasibilityWindow | None = None

    @cached_property
    def realization(self) -> Realization | None:
        """The shipped vectors, parsed on first read; None if not realized."""
        if not self.realized:
            return None
        from ctxlab.realization import parse_vectors
        return parse_vectors(_data_text(self.name + ".vec"))


# the eight fig5c atoms true in no state; their pairs are exactly the
# coinciding value patterns, so they are also the inseparable pairs
_FIG5C_NEVER_TRUE = ("a", "2", "13", "15", "16", "17", "25", "27")

# name -> (expected states, ships vectors, notes), in listing order; the one
# entry without expected states is the angle-window record
_ENTRIES = {
    "triangle4d": (
        ExpectedStates(14, separating=True, unital=True), True,
        "cycle of three three-atom contexts; smallest odd cycle, "
        "vector-realizable in dimension four"),
    "square4d": (
        ExpectedStates(34, separating=True, unital=True), True,
        "cycle of four three-atom contexts in dimension four; its correlation "
        "polytope is cut out by the axiom inequalities"),
    "pentagon": (
        ExpectedStates(11, separating=True, unital=True), False,
        "cycle of five three-atom contexts; the odd-cycle inequality "
        "separates its polytope from the axiom region"),
    "specker_bug": (
        ExpectedStates(14, separating=True, unital=True, special_pairs=(
            ("a", "b", PairProperty.TRUE_IMPLIES_FALSE),)), True,
        "two pasted context chains forcing one extreme atom to exclude the "
        "other (true implies false)"),
    "specker_bug_extended": (
        ExpectedStates(22, separating=True, unital=True, special_pairs=(
            ("a", "a'", PairProperty.TRUE_IMPLIES_TRUE),)), False,
        "bug plus a joining layer so one extreme atom forces a second one "
        "true (true implies true)"),
    "specker_bug_combo": (
        ExpectedStates(82, separating=False, unital=True,
                       inseparable_pairs=(("a", "a'"), ("b", "b'"))), False,
        "two bugs pasted so the forced pairs collapse: paired atoms take "
        "equal values in every state"),
    "tifs_fig5a": (
        ExpectedStates(
            13, separating=False, unital=False, non_unital_atoms=("16",),
            inseparable_pairs=(("15", "27"), ("17", "25")),
            special_pairs=(("a", "b", PairProperty.TRUE_IMPLIES_FALSE),)),
        False,
        "large pasting with a single antecedent-true state that forces the "
        "target false; one atom is true in no state"),
    "tits_fig5b": (
        ExpectedStates(
            13, separating=False, unital=False, non_unital_atoms=("16",),
            inseparable_pairs=(("15", "27"), ("17", "25")),
            special_pairs=(("a", "b", PairProperty.TRUE_IMPLIES_TRUE),)),
        False,
        "companion pasting forcing the same target true; one atom is true "
        "in no state"),
    "indefinite_fig5c": (
        ExpectedStates(
            8, separating=False, unital=False,
            non_unital_atoms=_FIG5C_NEVER_TRUE,
            inseparable_pairs=tuple(combinations(_FIG5C_NEVER_TRUE, 2)),
            special_pairs=(("a", "b", PairProperty.ANTECEDENT_NEVER_TRUE),)),
        False,
        "pasting of the two companions; the antecedent can no longer be "
        "true in any state"),
    "impossible_fig6": (
        None, False,
        "angle-window record: forcing a target false needs end rays at least "
        "arccos(1/3) apart, forcing it true at most arcsin(1/3), so no "
        "rank-one realization does both"),
}

CATALOG_NAMES = tuple(_ENTRIES)


def _data_text(filename: str) -> str:
    return (resources.files("ctxlab") / "data" / filename).read_text()


def catalog_list() -> tuple[str, ...]:
    """All entry names, in fixed order."""
    return CATALOG_NAMES


@lru_cache(maxsize=None)
def catalog_get(name: str) -> CatalogEntry:
    """Full entry for a catalog name; raises UnknownEntry otherwise."""
    if name not in CATALOG_NAMES:
        raise UnknownEntry(f"no catalog entry {name!r}; "
                           f"known: {', '.join(CATALOG_NAMES)}")
    expected, realized, notes = _ENTRIES[name]
    if expected is None:
        return CatalogEntry(name=name, logic=None, expected=None, notes=notes,
                            angle_window=bug_pasting_feasibility())
    return CatalogEntry(name=name, logic=parse_logic(_data_text(name + ".logic")),
                        expected=expected, realized=realized, notes=notes)
