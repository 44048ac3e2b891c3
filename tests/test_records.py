"""Every ctxlab record keeps the contract of the frozen dataclass it replaced.

Each record class is checked against a ``dataclasses.make_dataclass`` twin
with the same name, fields and defaults (and the same ``__post_init__``):
repr, equality and hash agree on random field values, assignment and
deletion raise ``FrozenInstanceError``, and construction takes positional,
keyword and default fields and refuses a missing or unknown one.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import typing
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import ctxlab.catalog
import ctxlab.exactlp
import ctxlab.logic
import ctxlab.polytope
import ctxlab.realization
import ctxlab.states
import ctxlab.urn
from ctxlab.logic import InvalidInput, Logic
from ctxlab.polytope import Equality, Inequality
from ctxlab.realization import Realization

# the records by module; importing the modules above registers them all
EXPECTED = {
    "logic": {"Violation", "ValidationReport", "Logic"},
    "catalog": {"FeasibilityWindow", "ExpectedStates", "CatalogEntry"},
    "exactlp": {"LPResult"},
    "states": {"StateSpaceReport", "MeasureReport", "IndefinitenessCertificate",
               "MixtureWeights"},
    "polytope": {"VertexSet", "_LinearForm", "Inequality", "Equality",
                 "InequalityEvaluation", "Polytope", "MembershipResult",
                 "ImplicationResult"},
    "realization": {"Realization", "ContextFailure", "RealizationReport",
                    "ViolationReport"},
    "urn": {"PartitionRepresentation", "UrnResult"},
}


def _records() -> list[type]:
    found, todo = [], [ctxlab.logic._Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            found.append(sub)
            todo.append(sub)
    return sorted(found, key=lambda c: (c.__module__, c.__qualname__))


RECORDS = _records()
# identity records and the one with its own repr are checked on their own below
VALUE_RECORDS = [c for c in RECORDS if c not in (Realization, Logic)]


def _fields(cls: type) -> list[tuple[str, bool, object]]:
    """(name, has default, default) in dataclass order, read from the class."""
    out: dict[str, tuple[bool, object]] = {}
    for klass in reversed(cls.__mro__):
        for name in klass.__dict__.get("__annotations__", {}):
            out.setdefault(name, (False, None))
    for name in out:
        for klass in cls.__mro__:
            if name in klass.__dict__:
                out[name] = (True, klass.__dict__[name])
                break
    return [(name, *spec) for name, spec in out.items()]


def _twin(cls: type, **options) -> type:
    specs = [(n, typing.Any, dataclasses.field(default=d)) if has else (n, typing.Any)
             for n, has, d in _fields(cls)]
    namespace = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    return dataclasses.make_dataclass(cls.__qualname__, specs, frozen=True,
                                      namespace=namespace, **options)


TWINS = {cls: _twin(cls) for cls in VALUE_RECORDS}

# hashable values, NaN and equal-but-distinct objects included
VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=4), st.fractions(),
    st.floats(), st.tuples(st.integers(-3, 3), st.text(max_size=2)),
    st.frozensets(st.integers(0, 5), max_size=3))
ATOMS = st.lists(st.text("abcxyz01", min_size=1, max_size=3), unique=True, max_size=5)


@st.composite
def _vertex_set(draw) -> dict:
    labels = draw(ATOMS)
    rows = st.tuples(*[st.one_of(st.integers(-2, 2), st.fractions(max_denominator=4))
                       for _ in labels])
    return {"labels": tuple(labels), "vertices": tuple(draw(st.lists(rows, max_size=3))),
            "counts": tuple(draw(st.lists(st.integers(1, 3), max_size=3)))}


@st.composite
def _mixture(draw) -> dict:
    parts = draw(st.lists(st.integers(0, 5), min_size=1, max_size=4).filter(any))
    return {"weights": tuple(Fraction(p, sum(parts)) for p in parts)}


@st.composite
def _logic(draw) -> dict:
    atoms = draw(ATOMS)
    contexts = draw(st.lists(st.lists(st.sampled_from(atoms or ["a"]), max_size=3), max_size=3))
    return {"atoms": atoms, "contexts": contexts, "name": draw(st.text("pq", max_size=2))}


SPECIAL = {"VertexSet": _vertex_set(), "MixtureWeights": _mixture(), "Logic": _logic()}


def _kwargs(cls: type) -> st.SearchStrategy[dict]:
    if cls.__qualname__ in SPECIAL:
        return SPECIAL[cls.__qualname__]
    return st.fixed_dictionaries({n: VALUES for n, _, _ in _fields(cls)})


def test_every_record_class_is_covered():
    by_module: dict[str, set[str]] = {}
    for cls in RECORDS:
        by_module.setdefault(cls.__module__.removeprefix("ctxlab."), set()).add(cls.__qualname__)
    assert by_module == EXPECTED


@pytest.mark.parametrize("cls", VALUE_RECORDS, ids=lambda c: c.__qualname__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_repr_eq_and_hash_match_the_dataclass_twin(cls, data):
    twin = TWINS[cls]
    first = data.draw(_kwargs(cls))
    second = data.draw(st.one_of(st.just(first), _kwargs(cls),
                                 st.builds(dict, st.just(first))))
    # keyword order must not matter
    shuffled = dict(data.draw(st.permutations(list(first.items()))))
    a, b, a_twin, b_twin = cls(**shuffled), cls(**second), twin(**first), twin(**second)
    assert repr(a) == repr(a_twin)
    assert (a == b) == (a_twin == b_twin)
    assert (a != b) == (a_twin != b_twin)
    try:
        expected = hash(a_twin)
    except TypeError:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == expected
    assert cls.__match_args__ == twin.__match_args__


@pytest.mark.parametrize("cls", VALUE_RECORDS, ids=lambda c: c.__qualname__)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_positional_keyword_and_default_construction(cls, data):
    twin = TWINS[cls]
    kwargs = data.draw(_kwargs(cls))
    names = [n for n, _, _ in _fields(cls)]
    built = cls(**kwargs)
    assert cls(*[kwargs[n] for n in names]) == built
    split = data.draw(st.integers(0, len(names)))
    assert cls(*[kwargs[n] for n in names[:split]],
               **{n: kwargs[n] for n in names[split:]}) == built
    required = {n: kwargs[n] for n, has, _ in _fields(cls) if not has}
    if cls.__qualname__ not in SPECIAL:
        assert repr(cls(**required)) == repr(twin(**required))
        for name, has, default in _fields(cls):
            if has:
                assert getattr(cls(**required), name) is default


@pytest.mark.parametrize("cls", VALUE_RECORDS, ids=lambda c: c.__qualname__)
def test_bad_calls_raise_type_error_like_the_twin(cls):
    twin = TWINS[cls]
    names = [n for n, _, _ in _fields(cls)]
    required = [n for n, has, _ in _fields(cls) if not has]
    values = {n: None for n in names}
    calls = [((), {n: None for n in required[1:]}),  # the first required field missing
             ((), {**values, "nosuch": 1}),  # an unknown keyword
             ((None,) * (len(names) + 1), {}),  # too many positionals
             ((None,), {names[0]: None})]  # a field given twice
    for args, kwargs in calls:
        for maker in (cls, twin):
            with pytest.raises(TypeError):
                maker(*args, **kwargs)


@pytest.mark.parametrize("cls", [*VALUE_RECORDS, Logic], ids=lambda c: c.__qualname__)
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_assignment_and_deletion_raise_frozen_instance_error(cls, data):
    record = cls(**data.draw(_kwargs(cls)))
    before = repr(record)
    for name in [*cls.__match_args__, "other"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
    assert repr(record) == before


@pytest.mark.parametrize("cls", VALUE_RECORDS, ids=lambda c: c.__qualname__)
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_pickle_and_copy_round_trip(cls, data):
    record = cls(**data.draw(_kwargs(cls)))
    for back in (*(pickle.loads(pickle.dumps(record, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
                 copy.copy(record), copy.deepcopy(record)):
        assert type(back) is cls and repr(back) == repr(record)
        if "nan" not in repr(record):  # a copied NaN equals no other NaN
            assert back == record and hash(back) == hash(record)


def test_inequality_and_equality_with_equal_fields_differ():
    fields = (("a", "b"), (Fraction(1), Fraction(-1)), Fraction(0))
    ineq, eq = Inequality(*fields), Equality(*fields)
    assert ineq != eq and eq != ineq
    assert not ineq == eq and not eq == ineq
    assert ineq == Inequality(*fields) and eq == Equality(*fields)


def test_realization_compares_by_identity():
    vectors = {"a": (1.0, 0.0)}
    r, same = Realization(2, vectors), Realization(2, vectors)
    assert r == r and r != same and not r == same
    assert hash(r) == object.__hash__(r)
    assert r.tolerance == ctxlab.realization.DEFAULT_TOLERANCE
    looser = Realization(r.dimension, r.vectors, 1e-6)
    assert looser.tolerance == 1e-6 and looser.vectors is r.vectors
    twin = _twin(Realization, eq=False)
    assert repr(r) == repr(twin(2, vectors))
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.tolerance = 1.0


class TestLogic:
    def test_keeps_its_own_repr(self):
        assert repr(Logic(("a", "b"), (("a", "b"),), "p")) == "Logic(p: 2 atoms, 1 contexts)"
        assert repr(Logic((), ())) == "Logic(<anonymous>: 0 atoms, 0 contexts)"

    def test_normalises_lists_to_tuples(self):
        logic = Logic(["a", "b", "c"], [["a", "b"], ("b", "c")])
        assert logic.atoms == ("a", "b", "c")
        assert logic.contexts == (("a", "b"), ("b", "c"))
        assert logic == Logic(("a", "b", "c"), (("a", "b"), ("b", "c")), "")

    def test_refuses_a_duplicate_atom(self):
        with pytest.raises(InvalidInput, match="duplicate atom id 'a'"):
            Logic(("a", "b", "a"), ())

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_eq_and_hash_match_the_twin_with_cached_properties(self, data):
        twin = _twin(Logic)
        first, second = data.draw(_logic()), data.draw(_logic())
        a, b = Logic(**first), Logic(**second)
        a.atom_index, a.context_sets  # cached values sit beside the fields
        assert (a == b) == (twin(**first) == twin(**second))
        assert a == Logic(**first) and hash(a) == hash(twin(**first))
