"""Parser, validator, pasting and DOT export."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings, strategies as st

from ctxlab.logic import (
    InvalidInput,
    Logic,
    LogicParseError,
    PasteInvalid,
    canonical_logic,
    export_greechie_dot,
    parse_logic,
    paste_logics,
    same_structure,
    serialize_logic,
    validate_logic,
)
from helpers import load_logic

PENTAGON = """\
# five cyclically intertwined contexts
logic pentagon
context 1 2 3
context 3 4 5
context 5 6 7
context 7 8 9
context 9 10 1
"""


class TestParse:
    def test_pentagon(self):
        l = parse_logic(PENTAGON)
        assert l.name == "pentagon"
        assert l.atoms == tuple("1 2 3 4 5 6 7 8 9 10".split())
        assert len(l.contexts) == 5
        assert l.contexts[0] == ("1", "2", "3")

    def test_comments_and_blanks_ignored(self):
        l = parse_logic("\n# x\n  context a b # trailing\n\n")
        assert l.atoms == ("a", "b")

    def test_atom_declarations_fix_order(self):
        l = parse_logic("atom z\natom y some label text\ncontext y z\n")
        assert l.atoms == ("z", "y")

    def test_implicit_atoms_appended_after_declared(self):
        l = parse_logic("atom q\ncontext a q b\n")
        assert l.atoms == ("q", "a", "b")

    def test_primed_ids(self):
        l = parse_logic("context a' b'1 c_2\n")
        assert l.atoms == ("a'", "b'1", "c_2")

    def test_header_not_first(self):
        with pytest.raises(LogicParseError) as err:
            parse_logic("context a b\nlogic late\n")
        assert err.value.line == 2

    def test_unknown_directive_position(self):
        with pytest.raises(LogicParseError) as err:
            parse_logic("context a b\n  frobnicate c\n")
        assert (err.value.line, err.value.column) == (2, 3)

    def test_bad_atom_token(self):
        with pytest.raises(LogicParseError) as err:
            parse_logic("context a b-c\n")
        assert err.value.column == 11

    def test_single_atom_context(self):
        with pytest.raises(LogicParseError):
            parse_logic("context a\n")

    def test_duplicate_atom_in_context(self):
        with pytest.raises(LogicParseError) as err:
            parse_logic("context a b a\n")
        assert (err.value.line, err.value.column) == (1, 13)

    def test_duplicate_context_rejected(self):
        with pytest.raises(LogicParseError) as err:
            parse_logic("context a b c\ncontext c b a\n")
        assert err.value.line == 2

    def test_duplicate_atom_declaration(self):
        with pytest.raises(LogicParseError):
            parse_logic("atom a\natom a\n")

    def test_roundtrip_pentagon(self):
        l = parse_logic(PENTAGON)
        assert parse_logic(serialize_logic(l)) == l

    @pytest.mark.parametrize("logic, message", [
        # read back as the atoms a, c, b
        (Logic(("a b", "c"), (("a b", "c"),)), "bad atom id 'a b'"),
        (Logic(("a", "b"), (("a", "b#"),)), "bad atom id 'b#'"),
        (Logic(("a", ""), (("a", ""),)), "bad atom id ''"),
        # read back as the name x, or not read at all
        (Logic(("a", "b"), (("a", "b"),), "x#y"), "logic name 'x#y'"),
        (Logic(("a", "b"), (("a", "b"),), "my logic"), "logic name 'my logic'"),
        (Logic(("a", "b"), (("a", "b"),), "#"), "logic name '#'"),
        (Logic(("a", "b"), (("a", "b"),), "a\u2028b"), "logic name"),
    ], ids=["space-atom", "hash-atom", "empty-atom", "hash-name", "space-name",
            "comment-name", "line-separator-name"])
    def test_serialize_refuses_what_does_not_read_back(self, logic, message):
        with pytest.raises(InvalidInput, match=re.escape(message)):
            serialize_logic(logic)

    @pytest.mark.parametrize("name", ["p", "a+b", "fig5a'", "x-y.z", "日本"])
    def test_any_one_token_name_round_trips(self, name):
        l = Logic(("a", "b"), (("a", "b"),), name)
        assert parse_logic(serialize_logic(l)) == l

class TestLineReading:
    """How lines are cut into tokens; vector files read lines the same way."""

    @pytest.mark.parametrize("end", ["\r\n", "\r", "\n"])
    def test_line_ends(self, end):
        l = parse_logic(end.join(["logic ends", "context a b", "context b c", ""]))
        assert (l.name, l.atoms) == ("ends", ("a", "b", "c"))
        with pytest.raises(LogicParseError) as err:
            parse_logic(end.join(["context a b", "  frobnicate c", ""]))
        assert (err.value.line, err.value.column) == (2, 3)

    def test_tabs_separate_tokens_and_count_one_column(self):
        assert parse_logic("context\ta\t b\n").atoms == ("a", "b")
        with pytest.raises(LogicParseError) as err:
            parse_logic("context a b\n\t frobnicate c\n")
        assert (err.value.line, err.value.column) == (2, 3)

    def test_hash_glued_to_a_token_starts_a_comment(self):
        l = parse_logic("context a b#c d\ncontext b e#\n")
        assert l.atoms == ("a", "b", "e")
        with pytest.raises(LogicParseError) as err:
            parse_logic("context a#b\n")
        assert err.value.message == "a context needs at least two atoms"

    def test_comment_only_lines_keep_line_numbers(self):
        with pytest.raises(LogicParseError) as err:
            parse_logic("# header\n   # indented\n\ncontext a b\n\tcontext a b # again\n")
        assert (err.value.line, err.value.column) == (5, 2)

    def test_error_names_the_offending_token_column(self):
        with pytest.raises(LogicParseError) as err:
            parse_logic("context a b\ncontext  c\td-e f\n")
        assert (err.value.line, err.value.column) == (2, 12)
        assert str(err.value) == "line 2, column 12: bad atom id 'd-e'"


class TestValidate:
    def test_pentagon_ok(self):
        assert validate_logic(parse_logic(PENTAGON)).ok

    def test_all_shipped_logics_validate(self):
        for name in ("pentagon", "triangle4d", "square4d", "specker_bug",
                     "specker_bug_extended", "specker_bug_combo",
                     "tifs_fig5a", "tits_fig5b", "indefinite_fig5c"):
            report = validate_logic(load_logic(name))
            assert report.ok, (name, report.violations)

    def test_duplicate_context_hits_subset_rule(self):
        l = Logic(("a", "b", "c"), (("a", "b", "c"), ("c", "b", "a")))
        report = validate_logic(l)
        assert not report.ok
        assert report.by_rule("subset-context")

    def test_proper_subset_context(self):
        l = Logic(("a", "b", "c"), (("a", "b", "c"), ("a", "b")))
        assert validate_logic(l).by_rule("subset-context")

    def test_unused_atom(self):
        l = Logic(("a", "b", "c"), (("a", "b"),))
        assert validate_logic(l).by_rule("unused-atom")

    def test_undeclared_atom(self):
        l = Logic(("a", "b"), (("a", "b", "c"),))
        assert validate_logic(l).by_rule("undeclared-atom")

    def test_context_too_small_and_duplicate_member(self):
        l = Logic(("a", "b"), (("a",), ("a", "a", "b")))
        report = validate_logic(l)
        assert report.by_rule("context-too-small")
        assert report.by_rule("context-duplicate-atom")

    def test_bad_token_rule(self):
        l = Logic(("a", "b c"), (("a", "b c"),))
        assert validate_logic(l).by_rule("atom-token")

    def test_violations_are_data_not_exceptions(self):
        report = validate_logic(Logic((), ()))
        assert report.ok and report.violations == ()


class TestPaste:
    def test_self_paste_is_canonical(self):
        l = load_logic("specker_bug")
        assert paste_logics(l, l) == canonical_logic(l)

    def test_disjoint_paste_keeps_orders(self):
        l1 = parse_logic("context a b\n")
        l2 = parse_logic("context c d\n")
        out = paste_logics(l1, l2)
        assert out.atoms == ("a", "b", "c", "d")
        assert set(out.context_sets) == {frozenset("ab"), frozenset("cd")}

    def test_shared_atoms_identified(self):
        l1 = parse_logic("context a b c\n")
        l2 = parse_logic("context c d e\n")
        out = paste_logics(l1, l2)
        assert out.atoms == ("a", "b", "c", "d", "e")
        assert len(out.contexts) == 2

    def test_duplicate_contexts_merge_once(self):
        l1 = parse_logic("context a b c\ncontext c d e\n")
        l2 = parse_logic("context e f g\ncontext c d e\n")
        out = paste_logics(l1, l2)
        assert len(out.contexts) == 3

    def test_paste_rebuilds_indefinite_fig5c(self):
        pasted = paste_logics(load_logic("tifs_fig5a"), load_logic("tits_fig5b"))
        target = load_logic("indefinite_fig5c")
        assert len(pasted.atoms) == 37
        assert len(pasted.contexts) == 26
        assert same_structure(pasted, target)

    def test_invalid_combination_raises_with_report(self):
        l1 = parse_logic("context a b c\n")
        l2 = parse_logic("context a b\n")
        with pytest.raises(PasteInvalid) as err:
            paste_logics(l1, l2)
        assert err.value.report.by_rule("subset-context")

    def test_invalid_input_rejected(self):
        bad = Logic(("a", "b", "x"), (("a", "b"),))
        with pytest.raises(PasteInvalid):
            paste_logics(bad, parse_logic("context c d\n"))

    def test_name_combination(self):
        l1 = parse_logic("logic one\ncontext a b\n")
        l2 = parse_logic("logic two\ncontext c d\n")
        assert paste_logics(l1, l2).name == "one+two"
        assert paste_logics(l1, l1).name == "one"


class TestDot:
    def test_contains_atoms_and_clique_edges(self):
        l = load_logic("triangle4d")
        dot = export_greechie_dot(l)
        for a in l.atoms:
            assert f'"{a}"' in dot
        # 3 contexts of 4 atoms: 6 clique edges each
        assert dot.count(" -- ") == 18

    def test_deterministic(self):
        l = load_logic("square4d")
        assert export_greechie_dot(l) == export_greechie_dot(l)

    def test_distinct_context_colors(self):
        dot = export_greechie_dot(parse_logic("context a b\ncontext b c\n"))
        colored = [ln for ln in dot.splitlines() if "color=" in ln]
        assert len({ln.split("color=")[1] for ln in colored}) == 2


atom_ids = st.text(alphabet="abcxyz012_'", min_size=1, max_size=3)


@st.composite
def logics(draw):
    atoms = draw(st.lists(atom_ids, min_size=2, max_size=7, unique=True))
    n_ctx = draw(st.integers(0, 4))
    contexts, seen = [], set()
    for _ in range(n_ctx):
        size = draw(st.integers(2, min(4, len(atoms))))
        members = tuple(draw(st.permutations(atoms))[:size])
        if frozenset(members) not in seen:
            seen.add(frozenset(members))
            contexts.append(members)
    name = draw(st.sampled_from(["", "g", "h'0"]))
    return Logic(tuple(atoms), tuple(contexts), name=name)


@given(logics())
@settings(max_examples=120, deadline=None)
def test_serialize_parse_roundtrip(l):
    assert parse_logic(serialize_logic(l)) == l


@st.composite
def context_lists(draw):
    """Contexts over a small pool, empty, repeated, nested and undeclared ones
    included."""
    pool = ["a", "b", "c", "d", "z"]
    contexts = draw(st.lists(st.lists(st.sampled_from(pool), max_size=4), max_size=8))
    return Logic(tuple(pool[:4]), tuple(tuple(c) for c in contexts))


@given(context_lists())
@settings(max_examples=200, deadline=None)
def test_subset_context_rule_matches_pairwise_check(l):
    sets = l.context_sets
    expected = [(i, j) for i in range(len(sets)) for j in range(len(sets))
                if i != j and sets[i] <= sets[j] and (i < j or sets[i] != sets[j])]
    found = [v.offenders for v in validate_logic(l).by_rule("subset-context")]
    assert found == expected


def _drop_unused_atoms(l):
    used = {a for c in l.contexts for a in c}
    return Logic(tuple(a for a in l.atoms if a in used), l.contexts, name=l.name)


# every valid logic is its own image, so the map only spares the filter from
# rejecting most draws for an unused atom (Hypothesis's filter_too_much check)
valid_logics = logics().map(_drop_unused_atoms).filter(
    lambda l: validate_logic(l).ok and l.contexts)


@given(valid_logics, valid_logics)
@settings(max_examples=60, deadline=None)
def test_paste_commutes_up_to_structure(l1, l2):
    try:
        ab = paste_logics(l1, l2)
        ba = paste_logics(l2, l1)
    except PasteInvalid:
        return
    assert same_structure(ab, ba)


@given(valid_logics, valid_logics, valid_logics)
@settings(max_examples=40, deadline=None)
def test_paste_associative(l1, l2, l3):
    try:
        left = paste_logics(paste_logics(l1, l2), l3)
        right = paste_logics(l1, paste_logics(l2, l3))
    except PasteInvalid:
        return
    assert left.atoms == right.atoms
    assert left.contexts == right.contexts
