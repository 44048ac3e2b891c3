"""Each subcommand loads only its own layers, and none of them loads numpy.

Each case runs in a fresh interpreter, because once any code in a process
has imported a module it stays in ``sys.modules``.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

import ctxlab

SRC = str(pathlib.Path(ctxlab.__file__).resolve().parents[1])

# run cli.main(argv) with stdout and stderr discarded (argv null: only
# ``import ctxlab``); print the exit code, whether numpy was imported, which
# ctxlab submodules were and which of the costly standard modules were
_PROBE = """
import contextlib, io, json, sys
import ctxlab
argv = json.loads(sys.argv[1])
code = None
if argv is not None:
    import ctxlab.cli
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = ctxlab.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
print(json.dumps([code, "numpy" in sys.modules,
                  sorted(m for m in sys.modules if m.startswith("ctxlab.")),
                  [m for m in ("dataclasses", "inspect") if m in sys.modules]]))
"""
# dataclasses takes 10-13 ms to import, most of it inspect
COSTLY = {"dataclasses", "inspect"}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def probe(argv: list[str] | None, cwd=None) -> tuple[int | None, bool, set[str], set[str]]:
    done = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(argv)],
                          capture_output=True, text=True, env=_env(),
                          cwd=cwd, timeout=120, check=True)
    code, numpy, modules, costly = json.loads(done.stdout)
    return code, numpy, {m.removeprefix("ctxlab.") for m in modules}, set(costly)


def loaded_after(statement: str, prefix: str = "ctxlab.") -> list[str]:
    """The modules under ``prefix`` a fresh interpreter holds after ``statement``."""
    code = (f"import json, sys, ctxlab; {statement}; "
            f"print(json.dumps(sorted(m for m in sys.modules if m.startswith({prefix!r}))))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_env(), timeout=120, check=True)
    return json.loads(done.stdout)


def test_catalog_entry_loads_only_catalog_and_logic():
    assert loaded_after("import ctxlab.catalog; ctxlab.catalog.catalog_get('pentagon')") == [
        "ctxlab.catalog", "ctxlab.logic"]


def test_pair_property_loads_only_logic():
    # the class lives in the logic layer; states only re-exports it
    assert loaded_after("ctxlab.PairProperty") == ["ctxlab.logic"]


def test_import_does_not_load_numpy():
    assert probe(None)[:2] == (None, False)


def test_import_loads_no_submodule():
    assert probe(None)[2] == set()


@pytest.mark.parametrize("argv", [
    ["states", "--catalog", "triangle4d"],
    ["catalog", "--json"],
    ["property", "--catalog", "specker_bug", "--given", "a", "--target", "b"],
    ["urn", "--catalog", "square4d", "--context", "0", "--draws", "100",
     "--seed", "1"],
    ["hull", "--catalog", "pentagon"],
], ids=lambda argv: argv[0])
def test_combinatorial_commands_do_not_load_numpy(argv):
    assert probe(argv)[:2] == (0, False)


REALIZATION = {
    "realization-check": ["realization-check", "--catalog", "triangle4d"],
    "born": ["born", "--catalog", "specker_bug", "--psi", "a"],
    "born-psi-vector": ["born", "--catalog", "square4d", "--psi", "1 0 0 0"],
    "violate": ["violate", "--catalog", "specker_bug", "--psi", "a",
                "--ineq", "b <= 0"],
}


@pytest.mark.parametrize("argv", REALIZATION.values(), ids=REALIZATION)
def test_realization_commands_load_no_numpy(argv):
    # vectors are tuples of floats; numpy took about 130 ms of each call
    code, numpy, modules, costly = probe(argv)
    assert (code, numpy, costly) == (0, False, set())
    assert "realization" in modules


def test_spectral_operators_load_no_numpy():
    # the matrix functions compute on tuples of rows as well
    assert loaded_after(
        "from ctxlab.realization import maximal_operator, projector, recover_projectors; "
        "projector((0.0, 1.0)); "
        "recover_projectors(maximal_operator([(1.0, 0.0), (0.0, 1.0)], (1.0, 2.0)), "
        "(1.0, 2.0))", prefix="numpy") == []


def test_loaded_after_sees_numpy():
    # so that the probe above can fail
    assert "numpy" in loaded_after("import numpy", prefix="numpy")


SOURCE = ["--catalog", "pentagon"]


@pytest.mark.parametrize("argv", [
    [],
    ["states"],
    ["nosuch", "--catalog", "pentagon"],
    ["urn", "--catalog", "pentagon", "--context", "0"],
    ["property", "--catalog", "specker_bug", "--given", "a", "--target", "b",
     "--expect", "TrueImpliesFalsee"],
], ids=lambda argv: " ".join(argv) or "empty")
def test_usage_error_loads_no_layer(argv):
    code, _, modules, costly = probe(argv)
    assert code == 2
    assert not modules & {"states", "polytope", "realization", "urn"}
    assert not costly


@pytest.mark.parametrize("argv", [
    ["states", *SOURCE],
    ["classify", *SOURCE],
    ["property", "--catalog", "specker_bug", "--given", "a", "--target", "b"],
    ["mixture", *SOURCE, "--weights", "fifth.weights"],
    ["certify-vi", "--catalog", "tifs_fig5a", "--catalog2", "tits_fig5b",
     "--given", "a", "--target", "b"],
    ["urn", *SOURCE, "--context", "0", "--draws", "100", "--seed", "1"],
    ["urn", *SOURCE, "--context", "0", "--draws", "100", "--seed", "1",
     "--weights", "fifth.weights"],
], ids=["states", "classify", "property", "mixture", "certify-vi", "urn", "urn-weights"])
def test_state_commands_skip_polytope_and_realization(argv, tmp_path):
    # exact-number input lives in the logic layer, so no LP is compiled
    (tmp_path / "fifth.weights").write_text("1/5\n" * 5 + "0\n" * 6)
    code, _, modules, _ = probe(argv, cwd=tmp_path)
    assert code == 0
    assert not modules & {"polytope", "realization", "exactlp"}


@pytest.mark.parametrize("argv", [
    ["hull", *SOURCE, "--project", "1,3,5"],
    ["member", *SOURCE, "--assign", "half.assign", "--project", "1,3,5,7,9"],
    ["axiom-check", *SOURCE, "--ineq", "1 + 2 + 3 <= 1"],
], ids=lambda argv: argv[0])
def test_polytope_commands_skip_realization_and_urn(argv, tmp_path):
    (tmp_path / "half.assign").write_text("".join(f"{a} 1/2\n" for a in "13579"))
    code, _, modules, _ = probe(argv, cwd=tmp_path)
    assert code == 0
    assert "polytope" in modules
    assert not modules & {"realization", "urn"}


@pytest.mark.parametrize("argv", [
    ["born", "--catalog", "specker_bug", "--psi", "a"],
    ["realization-check", "--catalog", "triangle4d"],
    ["catalog"],
], ids=lambda argv: argv[0])
def test_realization_commands_skip_polytope(argv):
    code, _, modules, _ = probe(argv)
    assert code == 0
    assert "polytope" not in modules


@pytest.mark.parametrize("argv", [
    ["validate", *SOURCE],
    ["paste", "--catalog", "tifs_fig5a", "--catalog2", "tits_fig5b"],
    ["catalog"],
    ["export-dot", *SOURCE],
], ids=lambda argv: argv[0])
def test_structural_commands_skip_states_and_lp(argv):
    # the catalog's PairProperty comes from the logic layer
    code, _, modules, _ = probe(argv)
    assert code == 0
    assert not modules & {"states", "exactlp"}


@pytest.mark.parametrize("argv", [
    ["realization-check", "--catalog", "triangle4d"],
    ["born", "--catalog", "specker_bug", "--psi", "a"],
], ids=lambda argv: argv[0])
def test_realization_commands_skip_states(argv):
    # the realization layer's MissingAtom comes from the logic layer
    code, _, modules, _ = probe(argv)
    assert code == 0
    assert "realization" in modules and "states" not in modules


@pytest.mark.parametrize("argv, code", [
    (["catalog"], 0),
    (["catalog", "--json"], 0),
    (["states", "--catalog", "impossible_fig6"], 1),
], ids=["catalog", "catalog-json", "impossible_fig6"])
def test_catalog_and_angle_window_skip_realization(argv, code):
    # impossible_fig6's window is two math calls, built without the module
    done, numpy, modules, _ = probe(argv)
    assert (done, numpy) == (code, False)
    assert "realization" not in modules


@pytest.mark.parametrize("argv", [
    ["urn", *SOURCE, "--context", "99", "--seed", "1"],
    ["violate", "--catalog", "specker_bug", "--psi", "a",
     "--ineq", "a + zz <= 1"],
    ["born", "--catalog", "specker_bug", "--psi", "zz"],
    ["states", "--catalog", "nope"],
], ids=["UnknownContext", "MissingCoordinate", "RealizationError",
        "UnknownEntry"])
def test_lazily_loaded_domain_errors_exit_1(argv):
    done = subprocess.run([sys.executable, "-m", "ctxlab.cli", *argv],
                          capture_output=True, text=True, env=_env(),
                          timeout=120)
    assert done.returncode == 1
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["validate", *SOURCE],
    ["states", *SOURCE],
    ["classify", *SOURCE],
    ["property", "--catalog", "specker_bug", "--given", "a", "--target", "b"],
    ["mixture", *SOURCE, "--weights", "fifth.weights"],
    ["hull", *SOURCE],
    ["member", *SOURCE, "--assign", "half.assign", "--project", "1,3,5,7,9"],
    ["axiom-check", *SOURCE, "--ineq", "1 + 2 + 3 <= 1"],
    ["paste", "--catalog", "tifs_fig5a", "--catalog2", "tits_fig5b"],
    ["certify-vi", "--catalog", "tifs_fig5a", "--catalog2", "tits_fig5b",
     "--given", "a", "--target", "b"],
    ["urn", *SOURCE, "--context", "0", "--draws", "100", "--seed", "1"],
    ["catalog", "--json"],
    ["export-dot", *SOURCE],
    *REALIZATION.values(),
], ids=[*"validate states classify property mixture hull member axiom-check paste "
        "certify-vi urn catalog export-dot".split(), *REALIZATION])
def test_records_load_neither_dataclasses_nor_inspect(argv, tmp_path):
    (tmp_path / "fifth.weights").write_text("1/5\n" * 5 + "0\n" * 6)
    (tmp_path / "half.assign").write_text("".join(f"{a} 1/2\n" for a in "13579"))
    code, _, _, costly = probe(argv, cwd=tmp_path)
    assert code == 0
    assert not costly


@pytest.mark.parametrize("module", ["polytope", "urn", "catalog"])
def test_layer_import_loads_neither_dataclasses_nor_inspect(module):
    assert not set(loaded_after(f"import ctxlab.{module}", prefix="")) & COSTLY
