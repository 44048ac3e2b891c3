"""Fuzz test of the CLI contract.

Every subcommand, with and without ``--json``, on small random logic,
vector, assignment and weight files, some of them malformed, and on
arguments that are sometimes missing or wrong.  Whatever the input,
``main`` must end with exit code 0 (success), 1 (domain failure) or 2
(usage error), let no exception escape, and leave on stderr nothing, an
argparse ``usage:`` block, or exactly one ``error:`` line.
"""

from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from ctxlab.cli import main

COMMANDS = ("validate", "states", "classify", "property", "mixture", "hull",
            "member", "axiom-check", "realization-check", "born", "violate",
            "paste", "certify-vi", "urn", "catalog", "export-dot")
ATOMS = ("a", "b", "c", "d", "e", "1", "2")
# well-formed entries first and twice over, so most files parse
SCALARS = ("0", "1", "1/sqrt(2)", "-1/sqrt(2)", "1/2", "-1") * 2 + (
    "(0,1)", "2/sqrt(6)", "1/0", "x", "sqrt(-1)", "9" * 400)
VALUES = ("0", "1", "1/2", "1/3") * 2 + ("-1/2", "2", "1/0", "x", "1e400", "9" * 400)
CATALOG = ("pentagon", "triangle4d", "specker_bug", "impossible_fig6", "nosuch")
JUNK = ("", "# comment", "logic", "logic L", "context", "bogus a b",
        "context a a", "vec", "a", "a b c")
INEQS = ("a + b <= 1", "1 + 3 + 5 <= 2", "a - 2*b >= -1", "a <= x", "a",
         "2*a*b <= 1", "1/0*a <= 1")
NUMBERS = ("0", "1", "3", "0", "1", "3", "-1", "x")

atom = st.sampled_from(ATOMS)


def _text(draw, lines: list[str]) -> str:
    """The lines as a file, sometimes with a malformed line or a dropped one."""
    if lines and draw(st.integers(0, 4)) == 4:
        del lines[draw(st.integers(0, len(lines) - 1))]
    if draw(st.integers(0, 3)) == 3:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(JUNK)))
    return "\n".join(lines) + "\n"


def _logic_lines(draw) -> list[str]:
    contexts = draw(st.lists(st.lists(atom, min_size=2, max_size=4, unique=True),
                             min_size=1, max_size=4, unique_by=frozenset))
    return ["context " + " ".join(ctx) for ctx in contexts]


def _source(draw, suffix: str = "") -> list[str]:
    if draw(st.integers(0, 3)) == 3:
        return [f"--catalog{suffix}", draw(st.sampled_from(CATALOG))]
    return [f"--logic{suffix}", "LOGIC" + suffix]


@st.composite
def case(draw) -> tuple[list[str], dict[str, str]]:
    """A command line and the files it reads; the placeholders LOGIC, LOGIC2,
    VEC, ASSIGN and WEIGHTS stand for the file paths."""
    logic = _logic_lines(draw)
    used = sorted({a for line in logic for a in line.split()[1:]})
    some_atom = atom if draw(st.integers(0, 4)) == 4 else st.sampled_from(used)
    n, dim = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    files = {
        "LOGIC": _text(draw, logic),
        "LOGIC2": _text(draw, _logic_lines(draw)),
        "VEC": _text(draw, [f"vec {a} " + " ".join(draw(st.lists(
            st.sampled_from(SCALARS), min_size=dim, max_size=dim))) for a in used]),
        "ASSIGN": _text(draw, [f"{a} {draw(st.sampled_from(VALUES))}" for a in used]),
        "WEIGHTS": _text(draw, [f"1/{n}"] * n),
    }

    name = draw(st.sampled_from(COMMANDS))
    opts: list[str] = [] if name == "catalog" else _source(draw)
    if name in ("paste", "certify-vi"):
        opts += _source(draw, "2")
    if name in ("property", "certify-vi"):
        opts += ["--given", draw(some_atom), "--target", draw(some_atom)]
    if name == "property" and draw(st.booleans()):
        opts += ["--expect", draw(st.sampled_from(("TrueImpliesFalse", "bogus")))]
    if name == "states" and draw(st.booleans()):
        opts.append("--count")
    if name == "mixture" or name == "urn" and draw(st.booleans()):
        opts += ["--weights", "WEIGHTS"]
    if name in ("hull", "member") and draw(st.booleans()):
        opts += ["--project", ",".join(draw(st.lists(some_atom, max_size=3)))]
    if name == "member":
        opts += ["--assign", "ASSIGN"]
        if draw(st.booleans()):
            opts += ["--expect", draw(st.sampled_from(("inside", "outside")))]
    if name in ("axiom-check", "violate"):
        opts += ["--ineq", draw(st.sampled_from(INEQS))]
    if name in ("realization-check", "born", "violate") and draw(st.integers(0, 3)) < 3:
        opts += ["--vectors", "VEC"]
    if name in ("born", "violate"):
        opts += ["--psi", draw(st.one_of(some_atom, st.lists(
            st.sampled_from(SCALARS), min_size=1, max_size=3).map(" ".join)))]
    if name == "born" and draw(st.booleans()):
        opts += ["--atom", draw(some_atom)]
    if name == "urn":
        opts += ["--context", draw(st.sampled_from(NUMBERS)),
                 "--seed", draw(st.sampled_from(NUMBERS)),
                 "--draws", draw(st.sampled_from(NUMBERS))]
    if opts and draw(st.integers(0, 9)) == 9:  # an option or a value goes missing
        del opts[draw(st.integers(0, len(opts) - 1))]
    if draw(st.booleans()):
        opts.append("--json")
    return [name, *opts], files


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and stderr of ``main(argv)``; stdout is discarded."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(case=case())
def test_cli_contract_holds_on_random_input(workdir, case):
    argv, files = case
    for placeholder, text in files.items():
        (workdir / placeholder).write_text(text)
    argv = [str(workdir / a) if a in files else a for a in argv]
    code, err = run_cli(argv)
    assert code in (0, 1, 2), (argv, code)
    lines = err.splitlines()
    assert (err == "" or lines[0].startswith("usage:")
            or (len(lines) == 1 and lines[0].startswith("error: "))), (argv, err)
