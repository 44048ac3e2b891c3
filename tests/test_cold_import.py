"""numpy is loaded only by the realization commands.

Each case runs in a fresh interpreter, because once any code in a process
has imported numpy it stays in ``sys.modules``.
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

# run cli.main(argv) with stdout discarded; print the exit code and whether
# numpy was imported
_PROBE = """
import contextlib, io, json, sys
import ctxlab, ctxlab.cli
argv = json.loads(sys.argv[1])
code = None
if argv is not None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = ctxlab.cli.main(argv)
print(json.dumps([code, "numpy" in sys.modules]))
"""


def probe(argv: list[str] | None) -> tuple[int | None, bool]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(argv)],
                          capture_output=True, text=True, env=env,
                          timeout=120, check=True)
    code, loaded = json.loads(done.stdout)
    return code, loaded


def test_import_does_not_load_numpy():
    assert probe(None) == (None, False)


@pytest.mark.parametrize("argv", [
    ["states", "--catalog", "triangle4d"],
    ["catalog", "--json"],
    ["property", "--catalog", "specker_bug", "--given", "a", "--target", "b"],
    ["urn", "--catalog", "square4d", "--context", "0", "--draws", "100",
     "--seed", "1"],
    ["hull", "--catalog", "pentagon"],
], ids=lambda argv: argv[0])
def test_combinatorial_commands_do_not_load_numpy(argv):
    assert probe(argv) == (0, False)


def test_born_still_loads_numpy():
    assert probe(["born", "--catalog", "specker_bug", "--psi", "a"]) == (0, True)
