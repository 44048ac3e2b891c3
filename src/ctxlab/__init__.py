"""Finite contextual logics: two-valued states, polytopes, quantum realizations.

The package is lazy: ``import ctxlab`` loads no submodule, and each public
name imports its home module on first access (PEP 562), so a program pays
only for the layers it uses.
"""

from importlib import import_module as _import_module

# home module -> public names it defines, in ``__all__`` order
_EXPORTS = {
    "logic": (
        "Logic", "ValidationReport", "Violation", "LogicError",
        "LogicParseError", "PasteInvalid", "parse_logic", "serialize_logic",
        "validate_logic", "canonical_logic", "paste_logics", "same_structure",
        "export_greechie_dot"),
    "states": (
        "TwoValuedState", "StateSpaceReport", "MeasureReport", "PairProperty",
        "IndefinitenessCertificate", "MixtureWeights", "enumerate_states",
        "atom_state_sets", "classify_states", "pair_property",
        "convex_mixture", "check_measure", "certify_value_indefiniteness",
        "states_table"),
    "polytope": (
        "VertexSet", "Inequality", "Equality", "Polytope", "MembershipResult",
        "ImplicationResult", "MissingCoordinate", "vertices_from_states",
        "facet_enumeration", "canonical_inequality", "evaluate_inequality",
        "membership", "axiom_implied", "parse_inequality"),
    "realization": (
        "Realization", "RealizationReport", "FeasibilityWindow",
        "ViolationReport", "RealizationError", "VectorParseError",
        "parse_vectors", "check_realization", "born_probabilities",
        "projector", "maximal_operator", "recover_projectors", "angle",
        "bug_pasting_feasibility", "quantum_vs_classical"),
    "urn": (
        "PartitionRepresentation", "UrnResult", "UnknownContext",
        "partition_representation", "urn_simulate"),
    "catalog": (
        "CatalogEntry", "ExpectedStates", "UnknownEntry", "catalog_list",
        "catalog_get"),
    "exactlp": (),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # importing a submodule binds it on the package
        return _import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_HOME})
