"""Orthogonality hypergraphs: atoms grouped into overlapping measurement contexts.

A logic is a finite set of atoms together with a list of contexts.  A context
is an ordered tuple of at least two distinct atoms; atoms may be shared
between contexts (intertwined).  Contexts compare as unordered sets for
deduplication and pasting, but keep their declared atom order for display.

The text format is line oriented::

    # pentagon
    logic pentagon
    context 1 2 3
    context 3 4 5
    ...

An optional ``logic <name>`` header must come first.  ``atom <id> [label...]``
lines pre-declare atoms (labels are ignored); atoms first seen inside a
context are appended in first-occurrence order.  ``#`` starts a comment.
Atom ids are tokens over ``[A-Za-z0-9_']``.

This is the base layer, so it also holds the vocabulary the layers above
share: the domain error types, the :class:`PairProperty` verdicts, the
base class of every record and exact-number input (:func:`parse_rational`,
:func:`scale_to_integers`).
``ctxlab.states`` re-exports ``PairProperty`` and ``MissingAtom``, while
``ctxlab.catalog`` and ``ctxlab.realization`` take them from here and so
never load the state layer.
"""

from __future__ import annotations

import enum
import re
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import attrgetter
from typing import Sequence

ATOM_TOKEN = re.compile(r"[A-Za-z0-9_']+\Z")
MAX_EXPONENT = 4300  # Python's default int digit limit, sys.int_info.default_max_str_digits
_EXPONENT = re.compile(r"[eE][-+]?([0-9_]+)\s*\Z")
_DIGITS = re.compile(r"[\d_]+")

_DOT_PALETTE = (
    "#1b9e77", "#d95f02", "#7570b3", "#e7298a", "#66a61e", "#e6ab02",
    "#a6761d", "#666666", "#1f78b4", "#b2182b", "#542788", "#35978f",
)


class LogicError(Exception):
    """Base of every ctxlab domain error.

    Each layer's own exception classes derive from it, so ``except
    LogicError`` catches them all.  Malformed arguments, such as a float
    coordinate, raise ``ValueError`` instead.
    """


class InvalidInput(LogicError, ValueError):
    """An invalid logic, a duplicate atom id or an unparseable inequality:
    a domain error that ``except ValueError`` catches too."""


class LogicParseError(LogicError):
    """Syntax or structure error in the logic text format.

    Carries the 1-based ``line`` and ``column`` of the offending token.
    """

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class PasteInvalid(LogicError):
    """Pasting two logics produced (or started from) an invalid logic."""

    def __init__(self, message: str, report: "ValidationReport"):
        super().__init__(message)
        self.report = report


class MissingAtom(LogicError):
    """A probability assignment lacks a value for some atom of the logic."""


class PairProperty(enum.Enum):
    """What every two-valued state with the antecedent true does to the target."""

    TRUE_IMPLIES_FALSE = "TrueImpliesFalse"
    TRUE_IMPLIES_TRUE = "TrueImpliesTrue"
    ANTECEDENT_NEVER_TRUE = "AntecedentNeverTrue"
    UNCONSTRAINED = "Unconstrained"


class _Record:
    """A frozen dataclass's behaviour without its generated code.  The fields
    are the annotations, base classes' first; a class attribute of the same
    name is a default.  ``identity=True`` keeps identity equality and hash.
    """

    def __init_subclass__(cls, identity: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(dict.fromkeys((*getattr(cls, "__match_args__", ()),
                                     *cls.__dict__.get("__annotations__", ()))))
        cls.__match_args__ = names
        defaults = {n: getattr(cls, n) for n in names if hasattr(cls, n)}
        cls._spec = names, frozenset(names), defaults, hasattr(cls, "__post_init__")
        get = attrgetter(*names)  # a tuple only for two or more names
        cls._values = get if len(names) > 1 else staticmethod(lambda r: (get(r),))
        if identity:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs):
        names, name_set, defaults, post_init = self._spec
        count = len(args) + len(kwargs)
        if args:
            kwargs.update(zip(names, args))
        if count != len(args) or count != len(names):  # keywords, defaults or a bad call
            given = len(kwargs)  # fewer than count: a repeated field or too many positionals
            if given < len(names):
                kwargs = {**defaults, **kwargs}
            if given != count or kwargs.keys() != name_set:
                raise TypeError(f"{type(self).__qualname__}() takes ({', '.join(names)}), got "
                                f"{len(args)} positional and {count - len(args)} keyword "
                                f"arguments, unmatched {sorted(name_set ^ kwargs.keys())}")
        # a fresh dict rather than the instance's own: attribute reads stay fast
        object.__setattr__(self, "__dict__", kwargs)
        if post_init:
            self.__post_init__()

    def __repr__(self) -> str:
        shown = ", ".join(f"{n}={v!r}" for n, v in zip(self.__match_args__, self._values(self)))
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        mine, theirs = self.__dict__, other.__dict__
        if len(mine) == len(theirs) == len(self.__match_args__):  # no cached values
            return mine == theirs
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Violation(_Record):
    """One validation rule failure, as data."""

    rule: str
    message: str
    offenders: tuple = ()


class ValidationReport(_Record):
    ok: bool
    violations: tuple[Violation, ...] = ()

    def by_rule(self, rule: str) -> list[Violation]:
        return [v for v in self.violations if v.rule == rule]


class Logic(_Record):
    """An orthogonality hypergraph.

    ``atoms`` keeps declaration order; that order is the canonical coordinate
    order used everywhere downstream (state bit strings, polytope axes).
    ``contexts`` are tuples of atom ids.

    The constructor only rejects structurally ambiguous input (duplicate atom
    ids).  Everything else, including atoms missing from every context, is
    reported by :func:`validate_logic` as data rather than raised.
    """

    atoms: tuple[str, ...]
    contexts: tuple[tuple[str, ...], ...]
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        object.__setattr__(self, "contexts", tuple(tuple(c) for c in self.contexts))
        seen = set()
        for a in self.atoms:
            if a in seen:
                raise InvalidInput(f"duplicate atom id {a!r}")
            seen.add(a)

    @cached_property
    def atom_index(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.atoms)}

    @cached_property
    def context_sets(self) -> tuple[frozenset[str], ...]:
        return tuple(frozenset(c) for c in self.contexts)

    def __repr__(self) -> str:
        label = self.name or "<anonymous>"
        return (f"Logic({label}: {len(self.atoms)} atoms, "
                f"{len(self.contexts)} contexts)")


def _token_lines(text: str):
    """``(lineno, tokens)`` for each line of ``text`` with a token left after
    cutting its ``#`` comment; a token is ``(word, 1-based column)``."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if tokens := [(m[0], m.start() + 1) for m in re.finditer(r"\S+", raw.split("#", 1)[0])]:
            yield lineno, tokens


def parse_rational(text: str) -> Fraction:
    """``Fraction(text)``, but an exponent over ``MAX_EXPONENT`` in magnitude
    raises ``OverflowError`` first: ``Fraction`` builds 10**|e|, seconds of
    work at |e| = 10**7.  So does a run of more digits, which int refuses."""
    m = _EXPONENT.search(text)
    if m and (len(e := m[1].replace("_", "").lstrip("0")) > 4 or int(e or 0) > MAX_EXPONENT):
        raise OverflowError(f"exponent magnitude over {MAX_EXPONENT}")
    if any(len(run) - run.count("_") > MAX_EXPONENT for run in _DIGITS.findall(text)):
        raise OverflowError(f"more than {MAX_EXPONENT} digits")
    return Fraction(text)


def _quote(text: str) -> str:
    """``repr(text)``, cut to 20 characters past ``MAX_EXPONENT`` ones."""
    return repr(text) if len(text) <= MAX_EXPONENT else f"{text[:20]!r}..."


def scale_to_integers(values: Sequence) -> tuple[list[int], int]:
    """``(ints, scale)`` with ints = scale * values, where scale is the lcm of
    the denominators of the values (ints or Fractions; 1 for no values): the
    smallest positive integer multiple of the vector.  The one place that
    turns exact rationals into an integer row.  The list is always new, so
    callers may update it in place."""
    if set(map(type, values)) <= {int}:  # already integral: copy, scale 1
        return list(values), 1
    ratios = [v.as_integer_ratio() for v in values]
    scale = lcm(*{q for _, q in ratios})
    return [p * (scale // q) for p, q in ratios] if scale > 1 else [p for p, _ in ratios], scale


def parse_logic(text: str) -> Logic:
    """Parse the text format into a :class:`Logic`.

    Raises :class:`LogicParseError` with line/column on syntax errors,
    duplicate contexts, or a duplicate atom inside one context.
    """
    name = ""
    atoms: dict[str, None] = {}  # in order of first appearance
    contexts: dict[frozenset[str], tuple[str, ...]] = {}
    saw_directive = False

    for lineno, tokens in _token_lines(text):
        (word, col), args = tokens[0], tokens[1:]

        if word == "logic":
            if saw_directive:
                raise LogicParseError("'logic' header must come first", lineno, col)
            if len(args) != 1:
                raise LogicParseError("'logic' takes exactly one name", lineno, col)
            name = args[0][0]
        elif word == "atom":
            if not args:
                raise LogicParseError("'atom' needs an id", lineno, col)
            ident, icol = args[0]
            if not ATOM_TOKEN.match(ident):
                raise LogicParseError(f"bad atom id {ident!r}", lineno, icol)
            if ident in atoms:
                raise LogicParseError(f"atom {ident!r} already declared", lineno, icol)
            atoms[ident] = None
            # remaining tokens are a free-form label, ignored
        elif word == "context":
            if len(args) < 2:
                raise LogicParseError("a context needs at least two atoms", lineno, col)
            members: list[str] = []
            for ident, icol in args:
                if not ATOM_TOKEN.match(ident):
                    raise LogicParseError(f"bad atom id {ident!r}", lineno, icol)
                if ident in members:
                    raise LogicParseError(
                        f"atom {ident!r} repeated in one context", lineno, icol)
                members.append(ident)
                atoms.setdefault(ident)
            key = frozenset(members)
            if key in contexts:
                raise LogicParseError("duplicate context", lineno, col)
            contexts[key] = tuple(members)
        else:
            raise LogicParseError(f"unknown directive {word!r}", lineno, col)
        saw_directive = True

    return Logic(atoms=tuple(atoms), contexts=tuple(contexts.values()), name=name)


def serialize_logic(logic: Logic) -> str:
    """Inverse of :func:`parse_logic` up to comments and labels; raises
    :class:`InvalidInput` for a name, atom id or context that would not read back."""
    if logic.name and not re.match(r"[^\s#]+\Z", logic.name):
        raise InvalidInput(f"logic name {logic.name!r} is not one token without '#'")
    for a in (*logic.atoms, *(a for c in logic.contexts for a in c)):
        if not ATOM_TOKEN.match(a):
            raise InvalidInput(f"bad atom id {a!r}")
    sets = logic.context_sets  # unused atoms and strict subsets read back equal
    for v in validate_logic(logic).violations:
        if v.rule in ("undeclared-atom", "context-too-small", "context-duplicate-atom") or (
                v.rule == "subset-context" and sets[v.offenders[0]] == sets[v.offenders[1]]):
            raise InvalidInput(v.message)
    lines = []
    if logic.name:
        lines.append(f"logic {logic.name}")
    for a in logic.atoms:
        lines.append(f"atom {a}")
    for c in logic.contexts:
        lines.append("context " + " ".join(c))
    return "\n".join(lines) + "\n"


def validate_logic(logic: Logic) -> ValidationReport:
    """Check structural rules, returning all violations as data.

    Rules checked:

    ``atom-token``
        every atom id matches ``[A-Za-z0-9_']+``
    ``context-too-small``
        every context has at least two atoms
    ``context-duplicate-atom``
        no atom appears twice inside one context
    ``undeclared-atom``
        contexts only use atoms from the atom list
    ``unused-atom``
        every atom sits in at least one context
    ``subset-context``
        no context's atom set is contained in another's (equal sets count)
    """
    violations: list[Violation] = []

    for a in logic.atoms:
        if not ATOM_TOKEN.match(a):
            violations.append(Violation("atom-token", f"bad atom id {a!r}", (a,)))

    used: set[str] = set()
    for i, ctx in enumerate(logic.contexts):
        if len(ctx) < 2:
            violations.append(Violation(
                "context-too-small", f"context {i} has {len(ctx)} atom(s)", (i,)))
        seen_here: set[str] = set()
        for a in ctx:
            if a in seen_here:
                violations.append(Violation(
                    "context-duplicate-atom",
                    f"atom {a!r} repeated in context {i}", (i, a)))
            seen_here.add(a)
            if a not in logic.atom_index:
                violations.append(Violation(
                    "undeclared-atom", f"context {i} uses undeclared atom {a!r}",
                    (i, a)))
            used.add(a)

    for a in logic.atoms:
        if a not in used:
            violations.append(Violation("unused-atom", f"atom {a!r} in no context", (a,)))

    sets = logic.context_sets
    holders: dict[str, set[int]] = {}  # atom -> the contexts that hold it
    for j, s in enumerate(sets):
        for a in s:
            holders.setdefault(a, set()).add(j)
    for i, s in enumerate(sets):
        # its supersets hold all of its atoms: intersecting from the smallest
        # set keeps each step small, and an empty context is in every context
        holding = sorted((holders[a] for a in s), key=len) or [set(range(len(sets)))]
        for j in sorted(set.intersection(*holding)):
            if i != j and (i < j or s != sets[j]):
                violations.append(Violation(
                    "subset-context",
                    f"context {i} is a subset of context {j}", (i, j)))

    return ValidationReport(ok=not violations, violations=tuple(violations))


def canonical_logic(logic: Logic) -> Logic:
    """Same logic with contexts sorted by their sorted atom-index tuples."""
    idx = logic.atom_index
    ordered = sorted(logic.contexts, key=lambda c: sorted(map(idx.__getitem__, c)))
    return Logic(atoms=logic.atoms, contexts=tuple(ordered), name=logic.name)


def paste_logics(first: Logic, second: Logic) -> Logic:
    """Paste two logics by identifying equal atom ids.

    Atoms keep the order (first logic's declarations, then the second's new
    ones).  Contexts equal as sets are merged, keeping the earliest declared
    atom order; the result's contexts are sorted canonically by their sorted
    atom-index tuples.  Pasting is associative, and commutative up to this
    canonical ordering.

    Raises :class:`PasteInvalid` when an input or the combined logic fails
    :func:`validate_logic`.
    """
    for label, l in (("first", first), ("second", second)):
        report = validate_logic(l)
        if not report.ok:
            raise PasteInvalid(f"{label} input logic is invalid", report)

    atoms = tuple(dict.fromkeys(first.atoms + second.atoms))
    merged: dict[frozenset[str], tuple[str, ...]] = {}
    for ctx in first.contexts + second.contexts:
        merged.setdefault(frozenset(ctx), tuple(ctx))

    if first.name and second.name:
        name = first.name if first.name == second.name else f"{first.name}+{second.name}"
    else:
        name = first.name or second.name

    pasted = canonical_logic(Logic(atoms=atoms, contexts=tuple(merged.values()), name=name))

    report = validate_logic(pasted)
    if not report.ok:
        raise PasteInvalid("pasted logic is invalid", report)
    return pasted


def same_structure(a: Logic, b: Logic) -> bool:
    """True when two logics have equal atom sets and equal context sets."""
    return (set(a.atoms) == set(b.atoms)
            and set(a.context_sets) == set(b.context_sets))


def export_greechie_dot(logic: Logic) -> str:
    """Render the hypergraph as Graphviz DOT, one colored clique per context.

    Output is deterministic: atoms in declaration order, contexts in stored
    order, colors cycling through a fixed palette.
    """
    def q(s: str) -> str:
        return '"' + s.replace('"', r'\"') + '"'

    lines = [f"graph {q(logic.name or 'logic')} {{"]
    lines.append("  node [shape=circle fontsize=10 margin=0.02];")
    for a in logic.atoms:
        lines.append(f"  {q(a)};")
    for i, ctx in enumerate(logic.contexts):
        color = _DOT_PALETTE[i % len(_DOT_PALETTE)]
        lines.append(f"  // context {i}: {' '.join(ctx)}")
        for u in range(len(ctx)):
            for v in range(u + 1, len(ctx)):
                lines.append(
                    f"  {q(ctx[u])} -- {q(ctx[v])} [color={q(color)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
