"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import argparse
import json
from fractions import Fraction
from importlib import resources

import jsonschema
import pytest

from ctxlab.cli import build_parser, main
from ctxlab.logic import parse_logic
from ctxlab.polytope import parse_inequality
from ctxlab.states import PairProperty

from helpers import DATA, PRISM

HUGE = "9" * 400  # an integer past the float range


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    payload = json.loads(out)
    schema_name = payload.get("command", argv[0])
    text = (resources.files("ctxlab") / "schemas" / f"{schema_name}.json").read_text()
    jsonschema.validate(payload, json.loads(text))
    return code, payload, err


@pytest.fixture
def uniform11(tmp_path):
    path = tmp_path / "u.weights"
    path.write_text("1/11\n" * 11)
    return str(path)


@pytest.fixture
def exotic(tmp_path):
    path = tmp_path / "exotic.assign"
    path.write_text("".join(f"{a} 1/2\n" for a in ("1", "3", "5", "7", "9")))
    return str(path)


class TestPinnedOutputs:

    def test_states_count(self, capsys):
        code, out, _ = run(capsys, "states", "--catalog", "pentagon", "--count")
        assert (code, out) == (0, "11\n")

    def test_property(self, capsys):
        code, out, _ = run(capsys, "property", "--catalog", "specker_bug",
                           "--given", "a", "--target", "b")
        assert (code, out) == (0, "TrueImpliesFalse\n")

    def test_born_single_atom(self, capsys):
        code, out, _ = run(capsys, "born", "--catalog", "specker_bug",
                           "--psi", "a", "--atom", "b")
        assert (code, out) == (0, "0.111111111111\n")


class TestExitCodes:

    def test_usage_errors_exit_2(self, capsys):
        for argv in ([],
                     ["states"],
                     ["states", "--catalog", "pentagon", "--logic", "x"],
                     ["urn", "--catalog", "pentagon", "--context", "0"],
                     ["property", "--catalog", "specker_bug", "--given", "a",
                      "--target", "b", "--expect", "TrueImpliesFalsee"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            capsys.readouterr()

    def test_property_expect_choices_are_pair_properties(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        expect = next(a for a in sub.choices["property"]._actions
                      if a.dest == "expect")
        assert expect.choices == [p.value for p in PairProperty]

    def test_unknown_catalog_entry(self, capsys):
        code, _, err = run(capsys, "states", "--catalog", "nosuch")
        assert code == 1
        assert err.startswith("error:")

    def test_unknown_atom_is_domain_error(self, capsys):
        code, _, err = run(capsys, "property", "--catalog", "pentagon",
                           "--given", "zz", "--target", "1")
        assert code == 1
        assert "zz" in err

    def test_structureless_entry_refused(self, capsys):
        code, _, err = run(capsys, "states", "--catalog", "impossible_fig6")
        assert code == 1
        assert "no logic" in err

    def test_deep_chain_states_count(self, capsys, tmp_path):
        chain = tmp_path / "chain.logic"
        chain.write_text("".join(f"context c{i} c{i + 1}\n" for i in range(10_000)))
        assert run(capsys, "states", "--logic", str(chain), "--count") == (0, "2\n", "")

    def test_invalid_logic_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.logic"
        bad.write_text("atom lonely\ncontext x y z\n")
        code, out, _ = run(capsys, "validate", "--logic", str(bad))
        assert code == 1
        assert "ok: no" in out
        assert "unused-atom" in out

    def test_unparseable_logic_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "dup.logic"
        bad.write_text("context x y z\ncontext x y z\n")
        code, _, err = run(capsys, "validate", "--logic", str(bad))
        assert code == 1
        assert "duplicate context" in err

    def test_expectation_mismatch(self, capsys, uniform11):
        code, out, err = run(capsys, "property", "--catalog", "pentagon",
                             "--given", "1", "--target", "3",
                             "--expect", "TrueImpliesTrue")
        assert code == 1
        assert "expected TrueImpliesTrue" in err

    def test_member_expect_inside_fails_on_exotic(self, capsys, exotic):
        code, out, err = run(capsys, "member", "--catalog", "pentagon",
                             "--assign", exotic, "--project", "1,3,5,7,9",
                             "--expect", "inside")
        assert code == 1
        assert "inside: no" in out

    def test_axiom_check_exit_reflects_implication(self, capsys):
        code, _, _ = run(capsys, "axiom-check", "--catalog", "pentagon",
                         "--ineq", "1 + 2 + 3 <= 1")
        assert code == 0
        code, _, _ = run(capsys, "axiom-check", "--catalog", "pentagon",
                         "--ineq", "1 + 3 + 5 + 7 + 9 <= 2")
        assert code == 1

    @pytest.mark.parametrize("ineq", ["1e-2*1 + 2 <= 1", "0.01*1 + 2 <= 1"])
    def test_axiom_check_reads_a_signed_exponent(self, capsys, ineq):
        code, out, err = run(capsys, "axiom-check", "--catalog", "pentagon", "--ineq", ineq)
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "inequality: 1/100*1 + 2 <= 1"

    def test_violate_exit_when_satisfied(self, capsys):
        code, out, _ = run(capsys, "violate", "--catalog", "triangle4d",
                           "--psi", "4", "--ineq", "1 + 2 + 3 <= 1")
        assert code == 1
        assert "violated: no" in out

    @pytest.mark.parametrize("argv", [
        ["states"], ["classify"], ["validate"], ["hull"],
        ["member", "--assign", "triangle.assign"],
        ["urn", "--context", "0", "--seed", "1"],
        ["axiom-check", "--ineq", "a + b <= 1"], ["export-dot"],
    ])
    def test_state_free_logic_fails_cleanly(self, capsys, tmp_path,
                                            monkeypatch, argv):
        # three 2-atom contexts in a cycle: no two-valued state exists
        monkeypatch.chdir(tmp_path)
        (tmp_path / "triangle.logic").write_text(
            "context a b\ncontext b c\ncontext c a\n")
        (tmp_path / "triangle.assign").write_text("a 1/2\nb 1/2\nc 1/2\n")
        code, _, err = run(capsys, *argv, "--logic", "triangle.logic")
        assert code in (0, 1)
        assert "Traceback" not in err
        assert err == "" or (err.startswith("error: ")
                             and err.count("\n") == 1 and err.endswith("\n"))

    @pytest.mark.parametrize("argv", [
        ["mixture", "--catalog", "pentagon", "--weights", "zero.weights"],
        ["urn", "--catalog", "pentagon", "--context", "0", "--seed", "1",
         "--weights", "zero.weights"],
        ["member", "--catalog", "specker_bug", "--assign", "zero.assign"],
        ["realization-check", "--catalog", "triangle4d", "--vectors", "zero.vec"],
        ["realization-check", "--catalog", "triangle4d", "--vectors", "sqrt0.vec"],
        ["born", "--catalog", "triangle4d", "--psi", "1/0 0 0 0"],
        ["born", "--catalog", "triangle4d", "--psi", "(0,1/sqrt(0)) 0 0 0"],
    ])
    def test_zero_denominator_exits_1(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "zero.weights").write_text("1/2\n1/0\n")
        (tmp_path / "zero.assign").write_text("a 1/0\n")
        (tmp_path / "zero.vec").write_text("vec 1 1 0 0\nvec 2 0 1/0 0\n")
        (tmp_path / "sqrt0.vec").write_text("vec 1 1/sqrt(0) 0 0\n")
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "zero denominator" in err

    @pytest.mark.parametrize("argv, name, text", [
        (["mixture", "--catalog", "pentagon", "--weights"], "bad.weights", "1/2\nabc\n"),
        (["mixture", "--catalog", "pentagon", "--weights"], "pair.weights", "1/2\n1/4 1/4\n"),
        (["member", "--catalog", "specker_bug", "--assign"], "bad.assign", "a 1/2\nb x\n"),
    ], ids=["bad-weight", "two-weights-on-a-line", "bad-assignment-value"])
    def test_malformed_value_names_its_line(self, capsys, tmp_path, monkeypatch,
                                            argv, name, text):
        monkeypatch.chdir(tmp_path)
        (tmp_path / name).write_text(text)
        code, _, err = run(capsys, *argv, name)
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{name}:2: not a rational" in err

    @pytest.mark.parametrize("argv, where", [
        (["mixture", "--catalog", "pentagon", "--weights", "big.weights"],
         "big.weights:2: exponent magnitude over 4300 in '1e5000'"),
        (["member", "--catalog", "pentagon", "--assign", "big.assign"],
         "big.assign:1: exponent magnitude over 4300 in '-1e-5000'"),
        (["axiom-check", "--catalog", "pentagon", "--ineq", "1e5000*1 + 2 <= 1"],
         "bad coefficient in term '1e5000*1': exponent magnitude over 4300"),
        (["axiom-check", "--catalog", "pentagon", "--ineq", "1 <= 1e5_000"],
         "bad bound '1e5_000': exponent magnitude over 4300"),
    ], ids=["weights", "assignment", "coefficient", "bound"])
    def test_huge_exponent_is_refused_at_its_place(self, capsys, tmp_path, monkeypatch,
                                                   argv, where):
        # Fraction builds 10**|e| first: Fraction('1e10000000') alone takes seconds
        monkeypatch.chdir(tmp_path)
        (tmp_path / "big.weights").write_text("0\n1e5000\n")
        (tmp_path / "big.assign").write_text("1 -1e-5000\n")
        code, _, err = run(capsys, *argv)
        assert (code, err) == (1, f"error: {where}\n")

    @pytest.mark.parametrize("argv, where", [
        (["mixture", "--catalog", "pentagon", "--weights", "long.weights"],
         "long.weights:2: more than 4300 digits in '19999999999999999999'..."),
        (["member", "--catalog", "pentagon", "--assign", "long.assign"],
         "long.assign:1: more than 4300 digits in '19999999999999999999'..."),
        (["axiom-check", "--catalog", "pentagon", "--ineq", f"1{'9' * 4301}*1 + 2 <= 1"],
         "bad coefficient in term '19999999999999999999'...: more than 4300 digits"),
        (["axiom-check", "--catalog", "pentagon", "--ineq", f"1 <= 1{'9' * 4301}"],
         "bad bound '19999999999999999999'...: more than 4300 digits"),
    ], ids=["weights", "assignment", "coefficient", "bound"])
    def test_too_many_digits_is_refused_in_one_short_line(self, capsys, tmp_path,
                                                          monkeypatch, argv, where):
        # Python's int refuses a run of more than 4300 digits with a ValueError;
        # reported as 'not a rational', it echoed every digit
        monkeypatch.chdir(tmp_path)
        (tmp_path / "long.weights").write_text(f"0\n1{'9' * 4301}\n")
        (tmp_path / "long.assign").write_text(f"1 1{'9' * 4301}\n")
        code, _, err = run(capsys, *argv)
        assert (code, err) == (1, f"error: {where}\n")
        assert len(err.encode()) < 200

    @pytest.mark.parametrize("argv", [
        ["realization-check", "--catalog", "triangle4d", "--vectors", "huge.vec"],
        ["born", "--catalog", "triangle4d", "--psi", f"1 {HUGE} 0 0"],
        ["born", "--catalog", "triangle4d", "--psi", f"({HUGE},0) 0 0 0"],
        ["born", "--catalog", "triangle4d", "--psi", f"1/sqrt({HUGE}) 0 0 0"],
    ])
    def test_oversized_component_exits_1(self, capsys, tmp_path, monkeypatch, argv):
        # an integer too large for a float is a malformed component
        monkeypatch.chdir(tmp_path)
        (tmp_path / "huge.vec").write_text(f"vec 1 {HUGE} 0 0\n")
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "out of float range" in err
        if argv[0] == "realization-check":
            assert "line 1, column 7" in err

    @pytest.mark.parametrize("text, message", [
        ("logic a b\ncontext x y\n", "line 1, column 1: 'logic' takes exactly one name"),
        ("logic\ncontext x y\n", "line 1, column 1: 'logic' takes exactly one name"),
        ("atom\ncontext x y\n", "line 1, column 1: 'atom' needs an id"),
        ("atom x-y\ncontext x y\n", "line 1, column 6: bad atom id 'x-y'"),
    ], ids=["logic-two-names", "logic-no-name", "atom-no-id", "atom-bad-id"])
    def test_logic_syntax_error_exits_1(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.logic"
        path.write_text(text)
        assert run(capsys, "validate", "--logic", str(path)) == (1, "", f"error: {message}\n")

    def test_vector_line_without_components_exits_1(self, capsys, tmp_path):
        path = tmp_path / "short.vec"
        path.write_text("vec 1 1 0 0 0\nvec 2\n")
        assert run(capsys, "realization-check", "--catalog", "triangle4d",
                   "--vectors", str(path)) == (
            1, "", "error: line 2, column 1: need an atom id and components\n")

    @pytest.mark.parametrize("name, text, message", [
        ("repeated.assign", "1 1/2\n# comment\n1 1/3\n", "repeated.assign:3: repeated atom '1'"),
        ("empty.assign", "# only a comment\n\n", "empty.assign: no assignment lines"),
        ("three.assign", "1 1/2\n2 0 # ok\n3 1/2 1\n", "three.assign:3: expected 'atom value'"),
        ("one.assign", "1\n", "one.assign:1: expected 'atom value'"),
    ], ids=["repeated-atom", "no-lines", "three-tokens", "one-token"])
    def test_bad_assignment_file_exits_1(self, capsys, tmp_path, monkeypatch,
                                         name, text, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / name).write_text(text)
        assert run(capsys, "member", "--catalog", "pentagon", "--assign", name) == (
            1, "", f"error: {message}\n")

    def test_born_atom_without_vector_exits_1(self, capsys):
        # specker_bug's realization gives vectors only to the lettered atoms
        assert run(capsys, "born", "--catalog", "specker_bug", "--psi", "a",
                   "--atom", "1") == (
            1, "", "error: no probability for atom '1'; it has no vector "
                   "in this realization\n")

    @pytest.mark.parametrize("text, message", [
        ("1e4300\n", "weights sum to a number too long to print, not 1"),
        ("1/2\n1/3\n", "weights sum to 5/6, not 1"),
        ("3/2\n-1/2\n", "negative weight"),
    ], ids=["over-digit-limit", "printable", "negative"])
    def test_unnormalized_weights_name_the_file(self, capsys, tmp_path, monkeypatch,
                                                text, message):
        # 10**4300 has one digit more than Python turns into a string
        monkeypatch.chdir(tmp_path)
        (tmp_path / "w.weights").write_text(text)
        code, _, err = run(capsys, "mixture", "--catalog", "pentagon",
                           "--weights", "w.weights")
        assert (code, err) == (1, f"error: w.weights: {message}\n")

    @pytest.mark.parametrize("argv", [
        ["mixture", "--catalog", "pentagon", "--weights", "w.weights"],
        ["urn", "--catalog", "pentagon", "--context", "0", "--seed", "1",
         "--weights", "w.weights"],
    ], ids=["mixture", "urn"])
    def test_weight_count_names_the_file(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "w.weights").write_text("1/2\n# two weights, eleven states\n1/2\n")
        assert run(capsys, *argv) == (1, "", "error: w.weights: 2 weights for 11 states\n")

    @pytest.mark.parametrize("argv", [
        ["mixture", "--catalog", "pentagon", "--weights", "long.weights"],
        ["axiom-check", "--catalog", "pentagon", "--ineq", "1 + 2 <= 1e-4300"],
    ], ids=["mixture", "axiom-check-bound"])
    @pytest.mark.parametrize("form", [[], ["--json"]], ids=["text", "json"])
    def test_result_too_long_to_print_exits_1(self, capsys, tmp_path, monkeypatch,
                                              argv, form):
        # valid weights summing to 1, but the probability 1/10**4300 has a
        # denominator one digit past what Python turns into a string
        monkeypatch.chdir(tmp_path)
        (tmp_path / "long.weights").write_text(
            "1e-4300\n" + "9" * 4300 + "e-4300\n" + "0\n" * 9)
        assert run(capsys, *argv, *form) == (
            1, "", "error: exact result too long to print: a numerator or "
                   "denominator has more digits than Python converts to text\n")

    def test_huge_draw_count_exits_1(self, capsys):
        # more draws than an index can count is a domain error, not a traceback
        code, _, err = run(capsys, "urn", "--catalog", "pentagon", "--context", "0",
                           "--seed", "1", "--draws", "9" * 20)
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "at most" in err

    def test_negative_seed_exits_1(self, capsys):
        # random.Random seeds from the absolute value: -5 would draw what 5 draws
        assert run(capsys, "urn", "--catalog", "pentagon", "--context", "0",
                   "--seed", "-5") == (1, "", "error: seed must be nonnegative, not -5\n")

    def test_missing_coordinate_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "short.assign"
        path.write_text("1 1/2\n")
        code, _, err = run(capsys, "member", "--catalog", "pentagon",
                           "--assign", str(path), "--project", "1,3")
        assert code == 1
        assert err.startswith("error:")


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


COMMANDS = tuple(next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices)


class TestParserParity:
    """``main`` builds only the named subcommand's parser; every usage,
    help and error text must read as from the full parser."""

    @pytest.mark.parametrize("argv", [
        ["--help"], [], ["bogus"], ["-h", "states"],
        ["--json", "states", "--catalog", "pentagon"],
        ["states", "--catalog", "pentagon", "extra"],
        *([name, flag] for name in COMMANDS for flag in ("--help", "--bogus")),
        *([name] for name in COMMANDS),
    ], ids=lambda argv: " ".join(argv) or "empty")
    def test_same_text_as_the_full_parser(self, capsys, monkeypatch, argv):
        one = _outcome(capsys, argv)
        full = build_parser()
        monkeypatch.setattr("ctxlab.cli.build_parser", lambda argv=None: full)
        assert one == _outcome(capsys, argv)
        assert one[0] in (0, 2)

    def test_sixteen_subcommands(self):
        assert len(COMMANDS) == 16

    def test_shared_vocabulary_is_one_object(self):
        import ctxlab
        import ctxlab.logic
        import ctxlab.states
        assert ctxlab.logic.PairProperty is ctxlab.states.PairProperty is ctxlab.PairProperty
        assert ctxlab.logic.MissingAtom is ctxlab.states.MissingAtom


class TestTextOutputs:

    def test_classify_lists_witnesses(self, capsys):
        code, out, _ = run(capsys, "classify", "--catalog", "indefinite_fig5c")
        assert code == 0
        assert "count: 8" in out
        assert "non_unital: a 2 13 15 16 17 25 27" in out
        assert "separating: no" in out

    def test_mixture_exact_fractions(self, capsys, uniform11):
        code, out, _ = run(capsys, "mixture", "--catalog", "pentagon",
                           "--weights", uniform11)
        assert code == 0
        assert out.splitlines()[0] == "1 3/11"
        assert out.splitlines()[1] == "2 5/11"

    def test_hull_facets_round_trip(self, capsys):
        code, out, _ = run(capsys, "hull", "--catalog", "pentagon",
                           "--project", "1,3,5,7,9")
        assert code == 0
        facet_lines = [l.split(": ", 1)[1] for l in out.splitlines()
                       if l.startswith("facet:")]
        assert len(facet_lines) == 11
        reparsed = [parse_inequality(l) for l in facet_lines]
        assert any(i.bound == 2 and set(i.labels) == {"1", "3", "5", "7", "9"}
                   for i in reparsed)

    def test_hull_empty_projection(self, capsys):
        # "," names no atom: every state projects to the one point ()
        code, out, _ = run(capsys, "hull", "--catalog", "pentagon", "--project", ",")
        assert code == 0
        assert out.splitlines() == ["labels: ", "dim: 0", "vertices: 1"]

    @pytest.mark.parametrize("command", ["hull", "member"])
    def test_empty_projection_spellings_agree(self, capsys, exotic, command):
        # --project '' names no atom, as ',' does: neither runs unprojected
        extra = ("--assign", exotic) if command == "member" else ()
        outs = [run(capsys, command, "--catalog", "pentagon", *extra, "--project", spelling)
                for spelling in ("", ",")]
        assert outs[0] == outs[1]
        assert outs[0][0] == 0 and "dim: 5" not in outs[0][1]

    def test_member_outside_report(self, capsys, exotic):
        code, out, _ = run(capsys, "member", "--catalog", "pentagon",
                           "--assign", exotic, "--project", "1,3,5,7,9",
                           "--expect", "outside")
        assert code == 0
        assert "separator: 1 + 3 + 5 + 7 + 9 <= 2" in out
        assert "value: 5/2" in out
        assert "max_over_vertices: 2" in out

    def test_member_inside_gives_weights(self, capsys, tmp_path):
        lines = ["1 3/11", "2 5/11", "3 3/11", "4 5/11", "5 3/11",
                 "6 5/11", "7 3/11", "8 5/11", "9 3/11", "10 5/11"]
        path = tmp_path / "mix.assign"
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "member", "--catalog", "pentagon",
                           "--assign", str(path), "--expect", "inside")
        assert code == 0
        weights = [Fraction(w) for w in
                   out.splitlines()[1].split(": ", 1)[1].split()]
        assert sum(weights) == 1

    def test_paste_round_trips(self, capsys):
        code, out, _ = run(capsys, "paste", "--catalog", "tifs_fig5a",
                           "--catalog2", "tits_fig5b")
        assert code == 0
        pasted = parse_logic(out)
        assert len(pasted.atoms) == 37
        assert len(pasted.contexts) == 26

    def test_certify_vi_success(self, capsys):
        code, out, _ = run(capsys, "certify-vi", "--catalog", "tifs_fig5a",
                           "--catalog2", "tits_fig5b",
                           "--given", "a", "--target", "b")
        assert code == 0
        assert "indefinite: yes" in out
        assert "pasted_states: 8" in out

    def test_certify_vi_failure(self, capsys):
        code, out, err = run(capsys, "certify-vi", "--catalog", "tits_fig5b",
                             "--catalog2", "tifs_fig5a",
                             "--given", "a", "--target", "b")
        assert code == 1
        assert "indefinite: no" in out
        assert err.startswith("error:")

    def test_urn_report(self, capsys):
        code, out, _ = run(capsys, "urn", "--catalog", "pentagon",
                           "--context", "0", "--draws", "20", "--seed", "5")
        assert code == 0
        assert "rng: mt19937-u64" in out
        assert "seed: 5" in out
        rows = [l.split() for l in out.splitlines()[4:]]
        assert [r[0] for r in rows] == ["1", "2", "3"]
        assert sum(int(r[1]) for r in rows) == 20

    def test_realization_check_partial_catalog(self, capsys):
        code, out, _ = run(capsys, "realization-check", "--catalog",
                           "specker_bug")
        assert code == 0
        assert "ok: yes" in out
        assert "skipped_contexts: 0 1 2 3 4 5 6" in out

    def test_realization_check_user_file(self, capsys):
        code, out, _ = run(capsys, "realization-check", "--catalog",
                           "triangle4d", "--vectors",
                           str(DATA / "triangle4d.vec"))
        assert code == 0
        assert "ok: yes" in out

    def test_empty_axiom_region(self, capsys, tmp_path):
        # no measure at all: every inequality is (vacuously) implied
        path = tmp_path / "prism.logic"
        path.write_text(PRISM)
        argv = ("axiom-check", "--logic", str(path), "--ineq", "1 <= 0")
        assert run(capsys, *argv) == (
            0, "inequality: 1 <= 0\nimplied: yes\nregion: empty\n", "")
        code, payload, _ = run_json(capsys, *argv)
        assert code == 0
        assert payload == {"command": "axiom-check", "inequality": "1 <= 0",
                           "implied": True, "region_empty": True,
                           "optimum": None, "witness": None}
        assert run(capsys, "states", "--count", "--logic", str(path)) == (0, "0\n", "")

    @pytest.mark.parametrize("name, text, missing, skipped", [
        ("triangle4d", "dimension: 4\nok: yes\n", [], []),
        ("square4d", "dimension: 4\nok: yes\n", [], []),
        ("specker_bug", "dimension: 3\nok: yes\nmissing: 1 2 3 4 5 6 7 8 9 10 11\n"
         "skipped_contexts: 0 1 2 3 4 5 6\n",
         [str(k) for k in range(1, 12)], list(range(7))),
    ])
    def test_realization_check_catalog_pinned(self, capsys, name, text, missing, skipped):
        # catalog realizations are checked as possibly partial; on a full one
        # that is the strict report
        assert run(capsys, "realization-check", "--catalog", name) == (0, text, "")
        code, payload, _ = run_json(capsys, "realization-check", "--catalog", name)
        assert code == 0
        assert payload == {"command": "realization-check", "ok": True,
                           "dimension": int(text.split()[1]),
                           "norm_failures": [], "context_failures": [],
                           "collinear_pairs": [], "missing_atoms": missing,
                           "skipped_contexts": skipped}

    def test_realization_check_failure_lines(self, capsys, tmp_path):
        # d is not a unit vector and not orthogonal to c; a and c share a ray
        logic, vec = tmp_path / "two.logic", tmp_path / "bad.vec"
        logic.write_text("context a b\ncontext c d\n")
        vec.write_text("vec a 1 0\nvec b 0 1\nvec c 1 0\nvec d 2 2\n")
        argv = ("realization-check", "--logic", str(logic), "--vectors", str(vec))
        assert run(capsys, *argv) == (
            1, "dimension: 2\nok: no\nbad_norm: d 8\nbad_context: 1 c,d inner 2\n"
               "collinear: a c\n", "")
        code, payload, _ = run_json(capsys, *argv)
        assert code == 1
        assert (payload["norm_failures"], payload["context_failures"],
                payload["collinear_pairs"]) == (
            [["d", 8.0]], [{"context": 1, "pair": ["c", "d"], "value": 2.0}],
            [["a", "c"]])

    def test_born_vector_psi(self, capsys):
        code, out, _ = run(capsys, "born", "--catalog", "triangle4d",
                           "--psi", "1 0 0 0")
        assert code == 0
        assert len(out.splitlines()) == 9

    def test_export_dot(self, capsys):
        code, out, _ = run(capsys, "export-dot", "--catalog", "triangle4d")
        assert code == 0
        assert out.startswith("graph ")
        assert '"1"' in out


class TestJsonOutputs:

    def test_all_commands_validate_against_schemas(self, capsys, tmp_path,
                                                   uniform11, exotic):
        mix = tmp_path / "mix.assign"
        mix.write_text("\n".join(
            ["1 3/11", "2 5/11", "3 3/11", "4 5/11", "5 3/11",
             "6 5/11", "7 3/11", "8 5/11", "9 3/11", "10 5/11"]) + "\n")
        runs = [
            (0, ["validate", "--catalog", "pentagon"]),
            (0, ["states", "--catalog", "pentagon"]),
            (0, ["classify", "--catalog", "indefinite_fig5c"]),
            (0, ["property", "--catalog", "specker_bug",
                 "--given", "a", "--target", "b"]),
            (0, ["mixture", "--catalog", "pentagon", "--weights", uniform11]),
            (0, ["hull", "--catalog", "pentagon", "--project", "1,3,5,7,9"]),
            (0, ["member", "--catalog", "pentagon", "--assign", exotic,
                 "--project", "1,3,5,7,9"]),
            (0, ["member", "--catalog", "pentagon", "--assign", str(mix)]),
            (1, ["axiom-check", "--catalog", "pentagon",
                 "--ineq", "1 + 3 + 5 + 7 + 9 <= 2"]),
            (0, ["axiom-check", "--catalog", "pentagon",
                 "--ineq", "1 + 2 + 3 <= 1"]),
            (0, ["realization-check", "--catalog", "specker_bug"]),
            (0, ["born", "--catalog", "specker_bug", "--psi", "a"]),
            (0, ["violate", "--catalog", "specker_bug", "--psi", "a",
                 "--ineq", "a + b <= 1"]),
            (0, ["paste", "--catalog", "tifs_fig5a",
                 "--catalog2", "tits_fig5b"]),
            (0, ["certify-vi", "--catalog", "tifs_fig5a",
                 "--catalog2", "tits_fig5b", "--given", "a", "--target", "b"]),
            (1, ["certify-vi", "--catalog", "tits_fig5b",
                 "--catalog2", "tifs_fig5a", "--given", "a", "--target", "b"]),
            (0, ["urn", "--catalog", "pentagon", "--context", "0",
                 "--draws", "50", "--seed", "9"]),
            (0, ["catalog"]),
            (0, ["export-dot", "--catalog", "triangle4d"]),
        ]
        for expected_code, argv in runs:
            code, payload, _ = run_json(capsys, *argv)
            assert code == expected_code, argv
            assert isinstance(payload, dict), argv

    def test_axiom_check_payload_content(self, capsys):
        code, payload, _ = run_json(capsys, "axiom-check", "--catalog",
                                    "pentagon", "--ineq",
                                    "1 + 3 + 5 + 7 + 9 <= 2")
        assert code == 1
        assert payload["implied"] is False
        assert payload["optimum"] == "5/2"
        assert payload["witness"]["1"] == "1/2"

    def test_urn_payload_content(self, capsys):
        code, payload, _ = run_json(capsys, "urn", "--catalog", "pentagon",
                                    "--context", "0", "--draws", "50",
                                    "--seed", "9")
        assert code == 0
        assert payload["rng"] == "mt19937-u64"
        assert sum(payload["counts"].values()) == 50

    def test_catalog_payload_content(self, capsys):
        code, payload, _ = run_json(capsys, "catalog")
        assert code == 0
        assert len(payload["entries"]) == 10
        last = payload["entries"][-1]
        assert last["name"] == "impossible_fig6"
        assert last["angle_window"]["feasible"] is False


class TestDeterminism:

    @pytest.mark.parametrize("argv", [
        ["catalog"],
        ["hull", "--catalog", "pentagon", "--project", "1,3,5,7,9"],
        ["urn", "--catalog", "pentagon", "--context", "1", "--draws", "200",
         "--seed", "77"],
        ["states", "--catalog", "specker_bug"],
    ])
    def test_reruns_byte_identical(self, capsys, argv):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second
