"""The Cabello-Estebaranz-Garcia-Alcaine 18-ray proof (Phys. Lett. A 212,
1996) as a state-free test logic.

Nine orthogonal bases of R^4 share their 18 rays so that every ray lies in
exactly two bases.  A two-valued state makes one atom true per context, so
the nine contexts would hold an odd number of true-atom slots while every
true atom fills an even number: no state exists.  The logic and its exact
unit vectors live in ``tests/data`` and stay out of the catalog.
"""

from __future__ import annotations

import pathlib
from collections import Counter

import pytest

from ctxlab.cli import main
from ctxlab.logic import parse_logic, validate_logic
from ctxlab.realization import check_realization, parse_vectors
from ctxlab.states import classify_states, enumerate_states

from state_oracle import brute_force_states

TEST_DATA = pathlib.Path(__file__).parent / "data"
LOGIC_FILE = TEST_DATA / "cega18.logic"
VECTOR_FILE = TEST_DATA / "cega18.vec"


@pytest.fixture(scope="module")
def cega18():
    return parse_logic(LOGIC_FILE.read_text())


def test_every_atom_lies_in_exactly_two_of_nine_contexts(cega18):
    assert validate_logic(cega18).ok
    assert (len(cega18.atoms), len(cega18.contexts)) == (18, 9)
    uses = Counter(a for ctx in cega18.contexts for a in ctx)
    assert set(uses) == set(cega18.atoms)
    assert set(uses.values()) == {2}


def test_no_two_valued_state(cega18):
    assert enumerate_states(cega18) == ()
    assert brute_force_states(cega18) == ()
    assert classify_states(cega18).count == 0


def test_vectors_realize_the_logic(cega18):
    report = check_realization(cega18, parse_vectors(VECTOR_FILE.read_text()))
    assert report.ok
    assert report.dimension == 4


@pytest.mark.parametrize("argv", [
    ["hull"],
    ["member", "--assign", "ASSIGN"],
    ["urn", "--context", "0", "--seed", "1"],
])
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_cli_reports_no_states_as_a_domain_failure(argv, json_flag, cega18,
                                                   tmp_path, capsys):
    assign = tmp_path / "uniform.assign"
    assign.write_text("".join(f"{a} 1/4\n" for a in cega18.atoms))
    argv = [str(assign) if arg == "ASSIGN" else arg for arg in argv]
    code = main([*argv, "--logic", str(LOGIC_FILE), *json_flag])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "no two-valued states" in err
