"""Acceptance gate: thirteen criteria, one test and one summary line each.

Every test asserts its criterion exactly as stated, at the stated tolerance.
Criterion 10 is a known failure on the triangle half: the triangle polytope
has one facet (p1 + p4 + p7 <= 1) whose axiom-region optimum is 3/2, so it
is not implied by the per-context measure axioms; the polytope suite proves
both sides of that gap independently.  The criterion is asserted as written
rather than weakened, so this file stays red on purpose.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import numpy as np

from ctxlab.catalog import catalog_get
from ctxlab.logic import same_structure
from ctxlab.polytope import (axiom_implied, evaluate_inequality,
                             facet_enumeration, membership, parse_inequality,
                             vertices_from_states)
from ctxlab.realization import (angle, born_probabilities,
                                bug_pasting_feasibility, check_realization,
                                maximal_operator, quantum_vs_classical,
                                recover_projectors)
from ctxlab.states import (MixtureWeights, PairProperty,
                           certify_value_indefiniteness, check_measure,
                           classify_states, convex_mixture, enumerate_states,
                           pair_property)
from ctxlab.urn import urn_simulate

from helpers import load_logic
from reference_sets import INDEX_SETS, rebuild_states
from state_oracle import brute_force_states

GOLDEN_COUNTS = {
    "triangle4d": 14,
    "square4d": 34,
    "pentagon": 11,
    "specker_bug": 14,
    "specker_bug_extended": 22,
    "specker_bug_combo": 82,
    "tifs_fig5a": 13,
    "tits_fig5b": 13,
    "indefinite_fig5c": 8,
}

SMALL = ("triangle4d", "square4d", "pentagon", "specker_bug",
         "specker_bug_extended")


def test_criterion_01_state_count_goldens():
    enumerate_states.cache_clear()
    t0 = time.monotonic()
    for name, want in GOLDEN_COUNTS.items():
        assert len(enumerate_states(load_logic(name))) == want, name
    assert time.monotonic() - t0 < 10.0


def test_criterion_02_oracle_equivalence():
    # every catalog logic with at most 20 atoms, exact list equality
    for name in SMALL:
        logic = load_logic(name)
        assert len(logic.atoms) <= 20
        assert enumerate_states(logic) == brute_force_states(logic), name


def test_criterion_03_classification_goldens():
    bug = classify_states(load_logic("specker_bug"))
    assert bug.separating and bug.unital

    combo_logic = load_logic("specker_bug_combo")
    combo = classify_states(combo_logic)
    assert {("a", "a'"), ("b", "b'")} <= set(combo.inseparable_pairs)
    states = enumerate_states(combo_logic)
    assert sum(s["a"] for s in states) == 9
    assert sum(s["b"] for s in states) == 9

    fig5c = classify_states(load_logic("indefinite_fig5c"))
    assert set(fig5c.non_unital_atoms) == {"a", "2", "13", "15", "16", "17",
                                           "25", "27"}

    for name in ("tifs_fig5a", "tits_fig5b"):
        assert sum(s["a"] for s in enumerate_states(load_logic(name))) == 1, name


def test_criterion_04_pair_properties_and_indefiniteness():
    assert pair_property(load_logic("specker_bug"), "a", "b") \
        is PairProperty.TRUE_IMPLIES_FALSE
    assert pair_property(load_logic("specker_bug_extended"), "a", "a'") \
        is PairProperty.TRUE_IMPLIES_TRUE

    fig5c = load_logic("indefinite_fig5c")
    for target in fig5c.atoms:
        if target != "a":
            assert pair_property(fig5c, "a", target) \
                is PairProperty.ANTECEDENT_NEVER_TRUE, target

    cert = certify_value_indefiniteness(load_logic("tifs_fig5a"),
                                        load_logic("tits_fig5b"), "a", "b")
    assert len(cert.pasted.atoms) == 37
    assert len(cert.pasted.contexts) == 26
    assert same_structure(cert.pasted, fig5c)


def test_criterion_05_mixture_bounds():
    cases = [("specker_bug", "a + b <= 1"),
             ("pentagon", "1 + 3 + 5 + 7 + 9 <= 2"),
             ("triangle4d", "1 + 4 + 7 <= 1")]
    rng = random.Random(20260805)
    for name, expr in cases:
        logic = load_logic(name)
        states = enumerate_states(logic)
        ineq = parse_inequality(expr)
        for _ in range(100):
            raw = [rng.randrange(1, 1000) for _ in states]
            total = sum(raw)
            weights = MixtureWeights(tuple(Fraction(r, total) for r in raw))
            probs = convex_mixture(states, weights)
            assert evaluate_inequality(ineq, probs).satisfied, (name, expr)


def test_criterion_06_reference_family_reproduction():
    # per-atom truth sets agree with the reference families as sets of
    # states, which is index-permutation invariant
    for name in INDEX_SETS:
        logic = load_logic(name)
        states = enumerate_states(logic)
        rebuilt = rebuild_states(name, logic.atoms)
        assert {s.bits for s in states} == rebuilt, name
        pos = logic.atom_index
        for a in logic.atoms:
            ours = {s.bits for s in states if s[a] == 1}
            theirs = {t for t in rebuilt if t[pos[a]] == 1}
            assert ours == theirs, (name, a)


def test_criterion_07_exotic_pentagon_measure():
    logic = load_logic("pentagon")
    half = Fraction(1, 2)
    point = {a: (half if int(a) % 2 else Fraction(0)) for a in logic.atoms}
    assert check_measure(logic, point, tolerance=0).ok

    res = membership(point, vertices_from_states(logic))
    assert not res.inside
    assert res.value_at_point == Fraction(5, 2)
    assert res.max_over_vertices == 2
    assert res.separator.bound == 2
    assert evaluate_inequality(res.separator, point).value == Fraction(5, 2)


def test_criterion_08_quantum_values():
    entry = catalog_get("specker_bug")
    logic, r = entry.logic, entry.realization

    probs = born_probabilities(logic, r, "a")
    assert abs(probs["b"] - Fraction(1, 9)) <= 1e-12

    rep = quantum_vs_classical(logic, r, "a",
                               [parse_inequality("a + b <= 1")])
    _, value, satisfied = rep.evaluations[0]
    assert abs(value - 10 / 9) <= 1e-12
    assert value > 1 and not satisfied and rep.violated

    assert abs(angle(r.vector("a"), r.vector("b")) - math.acos(1 / 3)) <= 1e-12


def test_criterion_09_realizations_validate():
    for name in ("triangle4d", "square4d"):
        entry = catalog_get(name)
        assert entry.realization.tolerance == 1e-9
        assert check_realization(entry.logic, entry.realization).ok, name


def test_criterion_10_facets_axiom_implied():
    facet_enumeration.cache_clear()
    t0 = time.monotonic()
    unimplied = []
    for name in ("square4d", "triangle4d"):
        logic = load_logic(name)
        poly = facet_enumeration(vertices_from_states(logic))
        for f in poly.facets:
            res = axiom_implied(logic, f)
            if not res.implied:
                unimplied.append((name, f.coeffs, f.bound, res.optimum))
    assert time.monotonic() - t0 < 300.0
    assert not unimplied, (
        "facets not implied by the measure axioms: " +
        "; ".join(f"{n}: coeffs={c} bound={b} optimum={o}"
                  for n, c, b, o in unimplied))


def test_criterion_11_pasting_window_infeasible():
    window = bug_pasting_feasibility()
    assert not window.feasible
    assert abs(window.tifs_min_angle - 1.2310) <= 1e-4
    assert abs(window.tits_max_angle - 0.3398) <= 1e-4


def test_criterion_12_spectral_round_trip():
    checked = 0
    for name in ("triangle4d", "square4d", "specker_bug"):
        entry = catalog_get(name)
        r = entry.realization
        for ctx in entry.logic.contexts:
            if any(a not in r.vectors for a in ctx):
                continue
            vecs = [r.vector(a) for a in ctx]
            eigenvalues = [float(k) for k in range(1, len(vecs) + 1)]
            A = np.asarray(maximal_operator(vecs, eigenvalues))
            projectors = map(np.asarray, recover_projectors(A, eigenvalues))
            total = np.zeros_like(A)
            for E in projectors:
                assert np.max(np.abs(E @ E - E)) <= 1e-12
                total = total + E
            assert np.max(np.abs(total - np.eye(r.dimension))) <= 1e-12
            checked += 1
    assert checked == 7  # 3 triangle + 4 square contexts; the bug is partial


def test_criterion_13_urn_convergence():
    logic = load_logic("pentagon")
    states = enumerate_states(logic)
    weights = MixtureWeights((Fraction(1, len(states)),) * len(states))
    exact = convex_mixture(states, weights)
    for index in range(len(logic.contexts)):
        res = urn_simulate(logic, states, weights, index, 100_000, seed=13)
        for a in res.context:
            assert abs(res.frequencies[a] - exact[a]) <= Fraction(1, 100), a
