"""The lazy ``ctxlab`` package exposes the same public API as an eager one."""

from __future__ import annotations

import importlib

import pytest

import ctxlab

# home module -> public names, in ``__all__`` order
EXPECTED = {
    "logic": ["Logic", "ValidationReport", "Violation", "LogicError",
              "LogicParseError", "PasteInvalid", "parse_logic",
              "serialize_logic", "validate_logic", "canonical_logic",
              "paste_logics", "same_structure", "export_greechie_dot"],
    "states": ["TwoValuedState", "StateSpaceReport", "MeasureReport",
               "PairProperty", "IndefinitenessCertificate", "MixtureWeights",
               "enumerate_states", "atom_state_sets", "classify_states",
               "pair_property", "convex_mixture", "check_measure",
               "certify_value_indefiniteness", "states_table"],
    "polytope": ["VertexSet", "Inequality", "Equality", "Polytope",
                 "MembershipResult", "ImplicationResult", "MissingCoordinate",
                 "vertices_from_states", "facet_enumeration",
                 "canonical_inequality", "evaluate_inequality", "membership",
                 "axiom_implied", "parse_inequality"],
    "realization": ["Realization", "RealizationReport", "FeasibilityWindow",
                    "ViolationReport", "RealizationError", "VectorParseError",
                    "parse_vectors", "check_realization",
                    "born_probabilities", "projector", "maximal_operator",
                    "recover_projectors", "angle", "bug_pasting_feasibility",
                    "quantum_vs_classical"],
    "urn": ["PartitionRepresentation", "UrnResult", "UnknownContext",
            "partition_representation", "urn_simulate"],
    "catalog": ["CatalogEntry", "ExpectedStates", "UnknownEntry",
                "catalog_list", "catalog_get"],
}
SUBMODULES = ("logic", "states", "polytope", "realization", "urn", "catalog",
              "exactlp")


def test_all_names_in_order():
    expected = [name for names in EXPECTED.values() for name in names]
    assert len(expected) == 66
    assert ctxlab.__all__ == expected


@pytest.mark.parametrize("module", EXPECTED)
def test_names_are_home_module_objects(module):
    home = importlib.import_module(f"ctxlab.{module}")
    for name in EXPECTED[module]:
        assert getattr(ctxlab, name) is getattr(home, name), name


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodules_are_attributes(module):
    assert getattr(ctxlab, module) is importlib.import_module(f"ctxlab.{module}")


def test_every_exported_error_is_a_logic_error():
    errors = [name for name in ctxlab.__all__
              if isinstance(getattr(ctxlab, name), type)
              and issubclass(getattr(ctxlab, name), BaseException)]
    assert len(errors) == 8
    for name in errors:
        assert issubclass(getattr(ctxlab, name), ctxlab.LogicError), name


@pytest.mark.parametrize("call, message", [
    (lambda: ctxlab.enumerate_states(ctxlab.Logic(("a", "b", "x"), (("a", "b"),))),
     "logic does not validate (rules: unused-atom)"),
    (lambda: ctxlab.Logic(("a", "a"), ()), "duplicate atom id 'a'"),
    (lambda: ctxlab.parse_inequality("x + y"), "inequality needs '<=' or '>='"),
    (lambda: ctxlab.parse_inequality("x <= huh"), "bad bound 'huh'"),
    (lambda: ctxlab.parse_inequality("abc*x <= 1"), "bad coefficient in term 'abc*x'"),
    (lambda: ctxlab.parse_inequality("x! <= 1"), "bad atom 'x!' in term 'x!'"),
    (lambda: ctxlab.facet_enumeration(ctxlab.VertexSet(("x",), (), ())), "no vertices"),
    (lambda: ctxlab.vertices_from_states(ctxlab.catalog_get("pentagon").logic,
                                         project=("1", "1")),
     "projection repeats atom '1'"),
    (lambda: ctxlab.canonical_inequality(("x", "y"), (1, 0), 1,
                                         [ctxlab.Equality(("x", "y"), (0, 0), 1)]),
     "equalities are inconsistent"),
], ids=["invalid-logic", "duplicate-atom", "no-sense", "bound", "coefficient", "atom",
        "no-vertices", "projection-repeat", "inconsistent-equalities"])
def test_refusals_are_logic_errors_and_value_errors(call, message):
    for base in (ctxlab.LogicError, ValueError):
        try:
            call()
        except base as err:
            assert str(err) == message
        else:
            pytest.fail("no refusal")


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from ctxlab import *", namespace)
    assert set(ctxlab.__all__) <= namespace.keys()


def test_dir_lists_public_names_and_submodules():
    assert set(ctxlab.__all__) | set(SUBMODULES) <= set(dir(ctxlab))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nosuch"):
        ctxlab.nosuch


def test_version_unchanged():
    assert ctxlab.__version__ == "0.1.0"
