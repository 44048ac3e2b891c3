"""Command-line front end.

One subcommand per pipeline: logic validation, state enumeration and
classification, forced pair properties, convex mixtures, polytope hulls and
membership, axiom implication, vector realizations, Born probabilities,
inequality violation, pasting, value-indefiniteness certification, urn
sampling, the fixture catalog, and DOT export.  Adding one takes a
``_cmd_*`` handler, one ``_COMMANDS`` row and its schema in ``schemas/``.

Exit codes: 0 success, 1 domain failure (message on stderr), 2 usage error.
Exit 1 means a negative verdict or a refused input: a ``ctxlab.LogicError``
(the base of every layer's domain errors), a ``ValueError`` or an
``OSError``.  Any other exception is a bug and keeps its traceback.
Rationals print as ``p/q``; floats use 12 significant digits.  ``--json``
emits one object validating against the schema shipped for the subcommand.

Each call is a fresh process, and where bytecode writing is off it compiles
every module it imports from source, so start-up is part of every answer.
Each subcommand therefore imports only the layers it uses, inside its
handler, and :func:`main` builds the arguments of the named subcommand
alone (:func:`build_parser`).  The layers' records generate no code at
import: they are not dataclasses, so no call loads ``dataclasses``.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from ctxlab.logic import (LogicError, PairProperty, _quote, export_greechie_dot,
                          parse_logic, parse_rational, paste_logics, serialize_logic,
                          validate_logic)

if TYPE_CHECKING:
    from ctxlab.logic import Logic
    from ctxlab.polytope import Equality, Inequality, VertexSet
    from ctxlab.realization import Realization
    from ctxlab.states import MixtureWeights


# ---------------------------------------------------------------- formatting

def _frac(q) -> str:
    q = Fraction(q)
    try:
        return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)
    except ValueError:  # past Python's int-to-str digit limit
        raise LogicError("exact result too long to print: a numerator or denominator "
                         "has more digits than Python converts to text") from None


def _flt(x) -> str:
    return format(float(x), ".12g")


def _form_text(form: Inequality | Equality) -> str:
    from ctxlab.polytope import Equality
    parts = []
    for lab, c in zip(form.labels, form.coeffs):
        if c == 0:
            continue
        mag = abs(Fraction(c))
        term = lab if mag == 1 else f"{_frac(mag)}*{lab}"
        if not parts:
            parts.append(term if c > 0 else "-" + term)
        else:
            parts.append(("+ " if c > 0 else "- ") + term)
    sense = "=" if isinstance(form, Equality) else "<="
    return f"{' '.join(parts) if parts else '0'} {sense} {_frac(form.bound)}"


def _form_json(form: Inequality | Equality) -> dict:
    return {"coeffs": [_frac(c) for c in form.coeffs],
            "bound": _frac(form.bound), "text": _form_text(form)}


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        import json
        print(json.dumps(payload, indent=2))
    else:
        print(text, end="" if text.endswith("\n") else "\n")


# ---------------------------------------------------------------- inputs

def _add_source(p: argparse.ArgumentParser, suffix: str) -> None:
    what = "second " if suffix else ""
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument(f"--catalog{suffix}", metavar="NAME",
                   help=f"{what}built-in logic by catalog name")
    g.add_argument(f"--logic{suffix}", metavar="FILE",
                   help=f"{what}logic file to load")


def _entry(args, suffix: str = ""):
    name = getattr(args, "catalog" + suffix)
    if not name:
        return None
    from ctxlab.catalog import catalog_get
    return catalog_get(name)


def _logic(args, suffix: str = "") -> Logic:
    entry = _entry(args, suffix)
    if entry is not None:
        if entry.logic is None:
            raise LogicError(
                f"catalog entry {entry.name!r} carries no logic, only an "
                "angle-window record; structural operations do not apply")
        return entry.logic
    path = getattr(args, "logic" + suffix)
    with open(path, encoding="utf-8") as fh:
        return parse_logic(fh.read())


def _realization(args) -> tuple[Realization, bool]:
    """Vector input plus whether partial coverage is acceptable.

    ``--vectors`` files are checked strictly.  Catalog realizations may be
    partial by design (only some atoms have vectors); checking a full one
    as partial gives the same report.
    """
    from ctxlab.realization import parse_vectors
    if args.vectors:
        with open(args.vectors, encoding="utf-8") as fh:
            return parse_vectors(fh.read()), False
    entry = _entry(args)
    if entry is not None and entry.realization is not None:
        return entry.realization, True
    raise LogicError("no vectors: pass --vectors FILE or pick a catalog "
                       "entry that ships a realization")


def _fraction(text: str, where: str) -> Fraction:
    try:
        return parse_rational(text)
    except OverflowError as err:
        raise LogicError(f"{where}: {err} in {_quote(text)}") from None
    except ZeroDivisionError:
        raise LogicError(f"{where}: zero denominator in {text!r}") from None
    except ValueError:
        raise LogicError(f"{where}: not a rational: {text!r}") from None


def _data_lines(path: str):
    """``("path:line", text)`` for each line left non-blank by cutting its comment."""
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield f"{path}:{lineno}", line


def _read_weights(path: str, count: int) -> MixtureWeights:
    """One weight per state; every refusal names the file."""
    from ctxlab.states import MixtureWeights, WeightsNotNormalized
    values = tuple(_fraction(line, where) for where, line in _data_lines(path))
    try:
        weights = MixtureWeights(values)
    except WeightsNotNormalized as err:
        raise LogicError(f"{path}: {err}") from None
    if len(weights) != count:
        raise LogicError(f"{path}: {len(weights)} weights for {count} states")
    return weights


def _read_assignment(path: str) -> dict[str, Fraction]:
    out: dict[str, Fraction] = {}
    for where, line in _data_lines(path):
        parts = line.split()
        if len(parts) != 2:
            raise LogicError(f"{where}: expected 'atom value'")
        if parts[0] in out:
            raise LogicError(f"{where}: repeated atom {parts[0]!r}")
        out[parts[0]] = _fraction(parts[1], where)
    if not out:
        raise LogicError(f"{path}: no assignment lines")
    return out


def _psi(args, r: Realization):
    if args.psi in r.vectors:
        return args.psi
    from ctxlab.realization import parse_vector
    return parse_vector(args.psi.split())


def _vertex_set(args, logic: Logic) -> VertexSet:
    """The logic's states as polytope vertices; refuses a state-free logic."""
    from ctxlab.polytope import vertices_from_states
    project = (None if args.project is None  # '' and ',' name no atom
               else tuple(p for p in args.project.split(",") if p))
    vset = vertices_from_states(logic, project=project)
    if not vset.vertices:
        raise LogicError("no vertices: the logic has no two-valued states")
    return vset


def _expect(args, got: str, what: str) -> int:
    if args.expect and args.expect != got:
        print(f"error: {what} is {got}, expected {args.expect}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------- commands

def _cmd_validate(args) -> int:
    logic = _logic(args)
    report = validate_logic(logic)
    lines = [f"logic: {logic.name or '<anonymous>'}",
             f"ok: {'yes' if report.ok else 'no'}"]
    for v in report.violations:
        lines.append(f"violation {v.rule}: {v.message}")
    payload = {"command": "validate", "name": logic.name,
               "ok": report.ok,
               "violations": [{"rule": v.rule, "message": v.message,
                               "offenders": [str(o) for o in v.offenders]}
                              for v in report.violations]}
    _emit(args, payload, "\n".join(lines))
    return 0 if report.ok else 1


def _cmd_states(args) -> int:
    from ctxlab.states import enumerate_states, states_table
    logic = _logic(args)
    states = enumerate_states(logic)
    # build only the output that is printed: bit strings for JSON, the
    # table for text without --count
    if args.json:
        _emit(args, {"command": "states", "atoms": list(logic.atoms),
                     "count": len(states),
                     "states": [s.bit_string() for s in states]}, "")
    else:
        _emit(args, {}, str(len(states)) if args.count else states_table(logic, states))
    return 0


def _cmd_classify(args) -> int:
    from ctxlab.states import classify_states
    logic = _logic(args)
    rep = classify_states(logic)
    lines = [f"count: {rep.count}",
             f"unital: {'yes' if rep.unital else 'no'}"]
    if rep.non_unital_atoms:
        lines.append("non_unital: " + " ".join(rep.non_unital_atoms))
    lines.append(f"separating: {'yes' if rep.separating else 'no'}")
    if rep.inseparable_pairs:
        lines.append("inseparable: " +
                     " ".join(f"{x}~{y}" for x, y in rep.inseparable_pairs))
    payload = {"command": "classify", "count": rep.count,
               "unital": rep.unital,
               "non_unital_atoms": list(rep.non_unital_atoms),
               "separating": rep.separating,
               "inseparable_pairs": [list(p) for p in rep.inseparable_pairs]}
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_property(args) -> int:
    from ctxlab.states import pair_property
    logic = _logic(args)
    prop = pair_property(logic, args.given, args.target)
    payload = {"command": "property", "given": args.given,
               "target": args.target, "property": prop.value}
    _emit(args, payload, prop.value)
    return _expect(args, prop.value, "property")


def _cmd_mixture(args) -> int:
    from ctxlab.states import convex_mixture, enumerate_states
    logic = _logic(args)
    states = enumerate_states(logic)
    weights = _read_weights(args.weights, len(states))
    probs = convex_mixture(states, weights)
    lines = [f"{a} {_frac(probs[a])}" for a in logic.atoms]
    payload = {"command": "mixture", "exact": True,
               "probabilities": {a: _frac(probs[a]) for a in logic.atoms}}
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_hull(args) -> int:
    from ctxlab.polytope import facet_enumeration
    poly = facet_enumeration(_vertex_set(args, _logic(args)))
    lines = ["labels: " + " ".join(poly.labels),
             f"dim: {poly.affine_dim}",
             f"vertices: {len(poly.vertices)}"]
    lines += [f"equality: {_form_text(e)}" for e in poly.equalities]
    lines += [f"facet: {_form_text(f)}" for f in poly.facets]
    payload = {"command": "hull", "labels": list(poly.labels),
               "affine_dim": poly.affine_dim,
               "vertex_count": len(poly.vertices),
               "equalities": [_form_json(e) for e in poly.equalities],
               "facets": [_form_json(f) for f in poly.facets]}
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_member(args) -> int:
    from ctxlab.polytope import membership
    logic = _logic(args)
    point = _read_assignment(args.assign)
    res = membership(point, _vertex_set(args, logic))
    if res.inside:
        lines = ["inside: yes",
                 "weights: " + " ".join(_frac(w) for w in res.weights)]
        payload = {"command": "member", "inside": True,
                   "weights": [_frac(w) for w in res.weights],
                   "separator": None, "value": None, "max_over_vertices": None}
    else:
        lines = ["inside: no",
                 f"separator: {_form_text(res.separator)}",
                 f"value: {_frac(res.value_at_point)}",
                 f"max_over_vertices: {_frac(res.max_over_vertices)}"]
        payload = {"command": "member", "inside": False, "weights": None,
                   "separator": _form_json(res.separator),
                   "value": _frac(res.value_at_point),
                   "max_over_vertices": _frac(res.max_over_vertices)}
    _emit(args, payload, "\n".join(lines))
    return _expect(args, "inside" if res.inside else "outside", "point")


def _cmd_axiom_check(args) -> int:
    from ctxlab.polytope import axiom_implied, parse_inequality
    logic = _logic(args)
    ineq = parse_inequality(args.ineq)
    res = axiom_implied(logic, ineq)
    lines = [f"inequality: {_form_text(ineq)}",
             f"implied: {'yes' if res.implied else 'no'}"]
    if res.region_empty:
        lines.append("region: empty")
    if res.optimum is not None:
        lines.append(f"optimum: {_frac(res.optimum)}")
    if res.witness is not None:
        lines.append("witness: " + " ".join(
            f"{a}={_frac(w)}" for a, w in zip(logic.atoms, res.witness)))
    payload = {"command": "axiom-check", "inequality": _form_text(ineq),
               "implied": res.implied, "region_empty": res.region_empty,
               "optimum": None if res.optimum is None else _frac(res.optimum),
               "witness": None if res.witness is None
               else {a: _frac(w) for a, w in zip(logic.atoms, res.witness)}}
    _emit(args, payload, "\n".join(lines))
    return 0 if res.implied else 1


def _cmd_realization_check(args) -> int:
    from ctxlab.realization import check_realization
    logic = _logic(args)
    r, partial = _realization(args)
    report = check_realization(logic, r, allow_partial=partial)
    lines = [f"dimension: {report.dimension}",
             f"ok: {'yes' if report.ok else 'no'}"]
    for atom, norm in report.norm_failures:
        lines.append(f"bad_norm: {atom} {_flt(norm)}")
    for f in report.context_failures:
        x, y = f.pair
        lines.append(f"bad_context: {f.context_index} {x},{y} inner {_flt(f.value)}")
    for x, y in report.collinear_pairs:
        lines.append(f"collinear: {x} {y}")
    if report.missing_atoms:
        lines.append("missing: " + " ".join(report.missing_atoms))
    if report.skipped_contexts:
        lines.append("skipped_contexts: " +
                     " ".join(str(i) for i in report.skipped_contexts))
    payload = {"command": "realization-check", "ok": report.ok,
               "dimension": report.dimension,
               "norm_failures": [[a, float(n)] for a, n in report.norm_failures],
               "context_failures": [{"context": f.context_index,
                                     "pair": list(f.pair),
                                     "value": float(f.value)}
                                    for f in report.context_failures],
               "collinear_pairs": [list(p) for p in report.collinear_pairs],
               "missing_atoms": list(report.missing_atoms),
               "skipped_contexts": list(report.skipped_contexts)}
    _emit(args, payload, "\n".join(lines))
    return 0 if report.ok else 1


def _cmd_born(args) -> int:
    from ctxlab.realization import born_probabilities
    logic = _logic(args)
    r, _ = _realization(args)
    probs = born_probabilities(logic, r, _psi(args, r))
    atoms = [a for a in logic.atoms if a in probs]
    if args.atom:
        if args.atom not in probs:
            raise LogicError(f"no probability for atom {args.atom!r}; "
                               "it has no vector in this realization")
        text = _flt(probs[args.atom])
        shown = [args.atom]
    else:
        text = "\n".join(f"{a} {_flt(probs[a])}" for a in atoms)
        shown = atoms
    payload = {"command": "born", "psi": args.psi,
               "probabilities": {a: float(probs[a]) for a in shown}}
    _emit(args, payload, text)
    return 0


def _cmd_violate(args) -> int:
    from ctxlab.polytope import parse_inequality
    from ctxlab.realization import quantum_vs_classical
    logic = _logic(args)
    r, _ = _realization(args)
    ineqs = [parse_inequality(e) for e in args.ineq]
    rep = quantum_vs_classical(logic, r, _psi(args, r), ineqs)
    lines = []
    results = []
    for ineq, value, satisfied in rep.evaluations:
        lines += [f"inequality: {_form_text(ineq)}",
                  f"value: {_flt(value)}",
                  f"violated: {'no' if satisfied else 'yes'}"]
        results.append({"inequality": _form_text(ineq), "value": float(value),
                        "violated": not satisfied})
    payload = {"command": "violate", "psi": args.psi, "results": results,
               "any_violated": bool(rep.violated)}
    _emit(args, payload, "\n".join(lines))
    return 0 if rep.violated else 1


def _cmd_paste(args) -> int:
    pasted = paste_logics(_logic(args), _logic(args, "2"))
    text = serialize_logic(pasted)
    payload = {"command": "paste", "name": pasted.name,
               "atoms": list(pasted.atoms),
               "contexts": [list(c) for c in pasted.contexts],
               "serialized": text}
    _emit(args, payload, text)
    return 0


def _cmd_certify_vi(args) -> int:
    from ctxlab.states import ConditionFailed, certify_value_indefiniteness
    first, second = _logic(args), _logic(args, "2")
    try:
        cert = certify_value_indefiniteness(first, second, args.given, args.target)
    except ConditionFailed as err:
        payload = {"command": "certify-vi", "indefinite": False,
                   "condition": err.which, "detail": str(err)}
        _emit(args, payload, f"indefinite: no\ncondition: {err.which}")
        print(f"error: {err}", file=sys.stderr)
        return 1
    lines = ["indefinite: yes",
             f"antecedent: {cert.antecedent}",
             f"target: {cert.target}",
             f"pasted_atoms: {len(cert.pasted.atoms)}",
             f"pasted_contexts: {len(cert.pasted.contexts)}",
             f"pasted_states: {cert.pasted_state_count}"]
    payload = {"command": "certify-vi", "indefinite": True,
               "antecedent": cert.antecedent, "target": cert.target,
               "pasted_atoms": len(cert.pasted.atoms),
               "pasted_contexts": len(cert.pasted.contexts),
               "pasted_states": cert.pasted_state_count}
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_urn(args) -> int:
    from ctxlab.states import MixtureWeights, enumerate_states
    from ctxlab.urn import urn_simulate
    logic = _logic(args)
    states = enumerate_states(logic)
    if not states:
        raise LogicError("logic has no two-valued states; there is no urn "
                           "to draw from")
    if args.weights:
        weights = _read_weights(args.weights, len(states))
    else:
        weights = MixtureWeights((Fraction(1, len(states)),) * len(states))
    res = urn_simulate(logic, states, weights, args.context, args.draws,
                       seed=args.seed)
    lines = ["context: " + " ".join(res.context),
             f"draws: {res.draws}",
             f"seed: {res.seed}",
             f"rng: {res.rng}"]
    lines += [f"{a} {res.counts[a]} {_frac(res.frequencies[a])}"
              for a in res.context]
    payload = {"command": "urn", "context_index": res.context_index,
               "context": list(res.context), "draws": res.draws,
               "seed": res.seed, "rng": res.rng,
               "counts": {a: res.counts[a] for a in res.context},
               "frequencies": {a: _frac(res.frequencies[a]) for a in res.context}}
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_catalog(args) -> int:
    from ctxlab.catalog import catalog_get, catalog_list
    lines = []
    entries = []
    for name in catalog_list():
        e = catalog_get(name)
        if e.logic is not None:
            lines.append(f"{name} atoms={len(e.logic.atoms)} "
                         f"contexts={len(e.logic.contexts)} "
                         f"states={e.expected.state_count} "
                         f"realized={'yes' if e.realized else 'no'}")
            entries.append({"name": name, "atoms": len(e.logic.atoms),
                            "contexts": len(e.logic.contexts),
                            "states": e.expected.state_count,
                            "realized": e.realized,
                            "angle_window": None, "notes": e.notes})
        else:
            w = e.angle_window
            lines.append(f"{name} angle_window=[{_flt(w.tifs_min_angle)}, "
                         f"{_flt(w.tits_max_angle)}] "
                         f"feasible={'yes' if w.feasible else 'no'}")
            entries.append({"name": name, "atoms": None, "contexts": None,
                            "states": None, "realized": False,
                            "angle_window": {
                                "tifs_min_angle": w.tifs_min_angle,
                                "tits_max_angle": w.tits_max_angle,
                                "feasible": w.feasible},
                            "notes": e.notes})
    payload = {"command": "catalog", "entries": entries}
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_export_dot(args) -> int:
    logic = _logic(args)
    dot = export_greechie_dot(logic)
    _emit(args, {"command": "export-dot", "dot": dot}, dot)
    return 0


# ---------------------------------------------------------------- wiring

def _arg(*flags, **kw) -> tuple:
    return flags, kw


_GIVEN_TARGET = (_arg("--given", required=True, metavar="ATOM"),
                 _arg("--target", required=True, metavar="ATOM"))
_VECTORS = _arg("--vectors", metavar="FILE")

# name -> (handler, help text, logic sources, then the arguments in
# add_argument order), in usage order; every subcommand also takes --json
_COMMANDS = {
    "validate": (_cmd_validate, "check the context structure rules", 1),
    "states": (_cmd_states, "enumerate the two-valued states", 1,
               _arg("--count", action="store_true", help="print only the count")),
    "classify": (_cmd_classify, "count states, test unital and separating", 1),
    "property": (_cmd_property, "forced relation between two atoms", 1,
                 *_GIVEN_TARGET,
                 _arg("--expect", metavar="PROPERTY",
                      choices=[prop.value for prop in PairProperty],
                      help="exit 1 unless the property matches")),
    "mixture": (_cmd_mixture, "convex mixture of the states", 1,
                _arg("--weights", required=True, metavar="FILE",
                     help="file with one rational weight per state line")),
    "hull": (_cmd_hull, "facets of the correlation polytope", 1,
             _arg("--project", metavar="A,B,...", help="project onto these atoms first")),
    "member": (_cmd_member, "test a point against the polytope", 1,
               _arg("--assign", required=True, metavar="FILE",
                    help="file with 'atom value' lines"),
               _arg("--project", metavar="A,B,..."),
               _arg("--expect", choices=["inside", "outside"],
                    help="exit 1 unless the result matches")),
    "axiom-check": (_cmd_axiom_check,
                    "is the inequality implied by the measure axioms", 1,
                    _arg("--ineq", required=True, metavar="EXPR",
                         help="inequality such as '1 + 4 + 7 <= 1'")),
    "realization-check": (_cmd_realization_check,
                          "verify unit norms and context orthogonality", 1, _VECTORS),
    "born": (_cmd_born, "projection probabilities for a state vector", 1,
             _VECTORS,
             _arg("--psi", required=True, metavar="ATOM|TOKENS",
                  help="atom id or space-separated component tokens"),
             _arg("--atom", metavar="ATOM", help="print one probability")),
    "violate": (_cmd_violate,
                "evaluate classical inequalities on Born probabilities", 1,
                _VECTORS,
                _arg("--psi", required=True, metavar="ATOM|TOKENS"),
                _arg("--ineq", required=True, action="append", metavar="EXPR",
                     help="repeatable; exit 0 iff some inequality is violated")),
    "paste": (_cmd_paste, "paste two logics along shared atoms", 2),
    "certify-vi": (_cmd_certify_vi,
                   "certify that the antecedent can hold no consistent value", 2,
                   *_GIVEN_TARGET),
    "urn": (_cmd_urn, "simulate urn draws for one context", 1,
            _arg("--context", required=True, type=int, metavar="INDEX"),
            _arg("--draws", type=int, default=10000, metavar="N"),
            _arg("--seed", required=True, type=int, metavar="SEED"),
            _arg("--weights", metavar="FILE",
                 help="rational weight per state; default uniform")),
    "catalog": (_cmd_catalog, "list the built-in fixtures", 0),
    "export-dot": (_cmd_export_dot, "hypergraph as Graphviz DOT", 1),
}


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The ``ctxlab`` parser, ready to parse ``argv``.

    When ``argv[0]`` names a subcommand, argparse hands the rest of ``argv``
    to that subcommand's parser alone, so only it gets its arguments; the
    others are registered by name and help text only, which is all that
    top-level usage, help and errors print.  Any other ``argv``, or none,
    builds every subcommand in full.
    """
    parser = argparse.ArgumentParser(
        prog="ctxlab",
        description="finite pasted-context logics: states, polytopes, "
                    "realizations, urn models")
    sub = parser.add_subparsers(dest="command", required=True)
    only = argv[0] if argv and argv[0] in _COMMANDS else None
    for name, (func, help_text, sources, *arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if only not in (None, name):
            continue
        p.add_argument("--json", action="store_true",
                       help="emit a JSON object instead of text")
        for suffix in ("", "2")[:sources]:
            _add_source(p, suffix)
        for flags, kw in arguments:
            p.add_argument(*flags, **kw)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except (LogicError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
