"""Tests for the fixture catalog."""

from __future__ import annotations

import json
import math

import pytest

from ctxlab.catalog import (CATALOG_NAMES, CatalogEntry, UnknownEntry,
                            catalog_get, catalog_list)
from ctxlab.cli import main
from ctxlab.logic import validate_logic
from ctxlab.realization import check_realization
from ctxlab.states import classify_states, pair_property

SHAPES = {
    "triangle4d": (9, 3),
    "square4d": (12, 4),
    "pentagon": (10, 5),
    "specker_bug": (13, 7),
    "specker_bug_extended": (16, 9),
    "specker_bug_combo": (27, 16),
    "tifs_fig5a": (35, 24),
    "tits_fig5b": (35, 24),
    "indefinite_fig5c": (37, 26),
}

WITH_LOGIC = tuple(n for n in CATALOG_NAMES if n != "impossible_fig6")
REALIZED = {"triangle4d", "square4d", "specker_bug"}


class TestListing:

    def test_fixed_order(self):
        assert catalog_list() == CATALOG_NAMES
        assert len(catalog_list()) == 10
        assert catalog_list()[0] == "triangle4d"
        assert catalog_list()[-1] == "impossible_fig6"

    def test_contains_expected_names(self):
        names = catalog_list()
        assert "pentagon" in names
        assert "indefinite_fig5c" in names

    def test_unknown_name(self):
        with pytest.raises(UnknownEntry):
            catalog_get("nosuch")

    def test_entries_cached(self):
        assert catalog_get("pentagon") is catalog_get("pentagon")


class TestEntries:

    @pytest.mark.parametrize("name", WITH_LOGIC)
    def test_shape(self, name):
        entry = catalog_get(name)
        assert isinstance(entry, CatalogEntry)
        assert entry.name == name
        assert (len(entry.logic.atoms), len(entry.logic.contexts)) == SHAPES[name]
        assert entry.notes

    @pytest.mark.parametrize("name", WITH_LOGIC)
    def test_logic_valid(self, name):
        assert validate_logic(catalog_get(name).logic).ok

    @pytest.mark.parametrize("name", WITH_LOGIC)
    def test_classification_matches_expected(self, name):
        entry = catalog_get(name)
        rep = classify_states(entry.logic)
        exp = entry.expected
        assert rep.count == exp.state_count
        assert rep.separating == exp.separating
        assert rep.unital == exp.unital
        assert rep.non_unital_atoms == exp.non_unital_atoms
        assert rep.inseparable_pairs == exp.inseparable_pairs

    @pytest.mark.parametrize("name", WITH_LOGIC)
    def test_special_pairs_hold(self, name):
        entry = catalog_get(name)
        for antecedent, target, prop in entry.expected.special_pairs:
            assert pair_property(entry.logic, antecedent, target) is prop

    def test_realizations_present_where_promised(self):
        assert catalog_get("triangle4d").realization is not None
        assert catalog_get("square4d").realization is not None
        assert catalog_get("specker_bug").realization is not None
        for name in ("pentagon", "specker_bug_extended", "specker_bug_combo",
                     "tifs_fig5a", "tits_fig5b", "indefinite_fig5c",
                     "impossible_fig6"):
            assert catalog_get(name).realization is None

    @pytest.mark.parametrize("name", sorted(REALIZED))
    def test_realization_parsed_once(self, name):
        assert catalog_get(name).realized
        assert catalog_get(name).realization is catalog_get(name).realization

    def test_catalog_json_reports_realized_entries(self, capsys):
        assert main(["catalog", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)["entries"]
        assert {e["name"] for e in entries if e["realized"]} == REALIZED
        assert all(type(e["realized"]) is bool for e in entries)

    @pytest.mark.parametrize("name", ["triangle4d", "square4d"])
    def test_full_realizations_check_out(self, name):
        entry = catalog_get(name)
        report = check_realization(entry.logic, entry.realization)
        assert report.ok
        assert not report.missing_atoms

    def test_partial_bug_realization_checks_out(self):
        entry = catalog_get("specker_bug")
        report = check_realization(entry.logic, entry.realization,
                                   allow_partial=True)
        assert report.ok
        assert set(entry.realization.vectors) == {"a", "b"}

    def test_angle_window_only_on_impossible_entry(self):
        for name in WITH_LOGIC:
            assert catalog_get(name).angle_window is None


class TestImpossibleEntry:

    def test_structureless(self):
        entry = catalog_get("impossible_fig6")
        assert entry.logic is None
        assert entry.expected is None
        assert entry.realization is None

    def test_angle_window(self):
        window = catalog_get("impossible_fig6").angle_window
        assert not window.feasible
        assert window.tifs_min_angle == pytest.approx(math.acos(1 / 3), abs=1e-12)
        assert window.tits_max_angle == pytest.approx(math.asin(1 / 3), abs=1e-12)
        assert window.tifs_min_angle > window.tits_max_angle
