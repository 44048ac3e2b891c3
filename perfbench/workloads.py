"""The four workloads: inputs from a seed, set-up, op lists and answer checks.

Each workload is a fixed list of ops built from the seed.  An op is one call
(or one short chain of calls) into the public ``ctxlab`` API, or one
``ctxlab`` subprocess for ``cli_session``.  Every op's result is checked
against an answer the benchmark derives independently or pinned from the
commit that added the benchmark (``pins.json``).  Reference answers are
computed in ``build`` so that checks never touch ``ctxlab``'s caches while
ops are being timed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PINS = Path(__file__).resolve().parent / "pins.json"

WORKLOADS = ("hull_sweep", "probe_mix", "states_scale", "cli_session")


class Op:
    """One timed unit of work.

    ``fn`` does the work and returns its result; ``check`` returns None when
    the result is right, else a message.  ``known`` names the exception the
    op is known to raise at the commit that added the benchmark.
    """

    __slots__ = ("kind", "label", "fn", "check", "logic", "tag", "known")

    def __init__(self, kind, label, fn, check, logic="", tag="", known=None):
        self.kind, self.label, self.fn, self.check = kind, label, fn, check
        self.logic, self.tag, self.known = logic, tag, known


class CliFailure(Exception):
    """A CLI call printed a traceback; ``kind`` is the exception it named."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


def pins() -> dict:
    return json.loads(PINS.read_text())


# ------------------------------------------------------------------ inputs

HULL_ITEMS = (
    # (name, class): unprojected logics carry hull equalities and spend their
    # time in canonicalization; projected cycles are full-dimensional and
    # spend it in double description.  Items are small so that a run holds
    # many passes: per-op medians over passes damp the machine's swings.
    ("cycle3", "unprojected"),
    ("path2", "unprojected"),
    ("path3", "unprojected"),
    ("cycle7", "projected"),
    ("cycle8", "projected"),
    ("cycle9", "projected"),
)

PROBE_POOL = ("triangle4d", "square4d", "pentagon", "specker_bug",
              "specker_bug_extended", "specker_bug_combo")
PROBE_REALIZED = ("triangle4d", "square4d", "specker_bug", "peres24")
PROBE_POOLS = {"member_exotic": ("pentagon",), "member_statefree": ("peres24",),
               "axiom": PROBE_POOL + ("peres24",), "born": PROBE_REALIZED,
               "violate": PROBE_REALIZED}
# the counts put the median op inside the mixture cluster and 12 heavy
# canonicalization ops at the p99 of the list
PROBE_COUNTS = (
    ("member_in", 40), ("member_off", 40), ("member_exotic", 12),
    ("member_statefree", 5), ("axiom", 60), ("pair", 250), ("born", 60),
    ("violate", 60), ("urn", 223), ("mixture", 250),
)
URN_DRAWS = 2000

SCALE_CYCLES = (12, 14, 16, 18, 20, 22)
SCALE_CHAINS = (200, 400, 600)
DEEP_CHAIN = 1500  # past the recursion limit of the state DFS
FIG5_COPIES = 10

CLI_URN_SEEDS = (7, 11, 13)


def inputs(workload: str, seed: int) -> dict:
    """Everything the workload feeds ctxlab, as text, from the seed alone."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "hull_sweep":
        items = []
        for name, cls in HULL_ITEMS:
            pre = gen.prefix(rng)
            k = int(name[-1])
            if name.startswith("path"):
                text, shared = gen.path(k, pre), None
            else:
                text, shared = gen.cycle(k, pre)
            items.append({"name": name, "class": cls, "text": text,
                          "project": shared if cls == "projected" else None})
        return {"items": items}
    if workload == "probe_mix":
        text, vec = gen.peres24(gen.prefix(rng))
        return {"catalog": list(PROBE_POOL), "peres24": text, "peres24_vec": vec,
                "query_seed": rng.randrange(1 << 30)}
    if workload == "states_scale":
        logics = []
        for k in SCALE_CYCLES:
            logics.append({"name": f"cycle{k}", "text": gen.cycle(k, gen.prefix(rng))[0]})
        for n in SCALE_CHAINS + (DEEP_CHAIN,):
            logics.append({"name": f"chain{n}", "text": gen.chain(n, gen.prefix(rng))})
        logics.append({"name": "peres24", "text": gen.peres24(gen.prefix(rng))[0]})
        logics.append({"name": "cega18", "text": gen.cega18(gen.prefix(rng))})
        for copy in range(FIG5_COPIES):
            pre = gen.prefix(rng)
            for fixture in ("tifs_fig5a", "tits_fig5b"):
                logics.append({"name": f"{fixture}#{copy}", "prefix": pre,
                               "text": gen.relabelled_fixture(fixture, pre)})
        return {"logics": logics}
    if workload == "cli_session":
        order = list(range(len(cli_script(CLI_URN_SEEDS[0]))))
        urn_seed = rng.choice(CLI_URN_SEEDS)
        rng.shuffle(order)
        return {"files": cli_files(), "urn_seed": urn_seed, "order": order}
    raise ValueError(f"unknown workload {workload!r}")


# ------------------------------------------------------------------ set-up

def setup(workload: str, data: dict) -> dict:
    """Import ctxlab and load the workload's logics: what ``setup_s`` times."""
    if workload == "cli_session":
        import ctxlab.cli  # noqa: F401  (the CLI's own import cost)
    import ctxlab as C
    loaded: dict = {}
    if workload == "hull_sweep":
        for item in data["items"]:
            loaded[item["name"]] = C.parse_logic(item["text"])
    elif workload == "probe_mix":
        for name in data["catalog"]:
            entry = C.catalog_get(name)
            loaded[name] = entry.logic
            if entry.realization is not None:
                loaded[name + ".vec"] = entry.realization
            loaded[name + ".expected"] = entry.expected
        loaded["peres24"] = C.parse_logic(data["peres24"])
        loaded["peres24.vec"] = C.parse_vectors(data["peres24_vec"])
    elif workload == "states_scale":
        for item in data["logics"]:
            loaded[item["name"]] = C.parse_logic(item["text"])
        for fixture in ("tifs_fig5a", "tits_fig5b", "indefinite_fig5c"):
            loaded[fixture + ".expected"] = C.catalog_get(fixture).expected
    elif workload == "cli_session":
        for name, text in data["files"].items():
            if name.endswith(".logic") and not name.startswith("bad"):
                loaded[name] = C.parse_logic(text)
        for name in ("pentagon", "triangle4d", "specker_bug", "square4d",
                     "tifs_fig5a", "tits_fig5b"):
            loaded[name] = C.catalog_get(name)
    return loaded


def build(workload: str, data: dict, loaded: dict, workdir: Path) -> list[Op]:
    return _BUILDERS[workload](data, loaded, workdir)


def clear_caches(originals: dict) -> None:
    """Empty ctxlab's memo caches so that every pass does the same work."""
    originals["states.enumerate_states"].cache_clear()
    originals["polytope.facet_enumeration"].cache_clear()


def _api():
    # looked up at call time, so traced wrappers apply when installed
    return sys.modules["ctxlab"]


# ------------------------------------------------------------------ helpers

def _frac(q) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def facet_digest(poly) -> str:
    """Digest of the canonical forms, independent of atom names."""
    rows = [("eq", [_frac(c) for c in e.coeffs], _frac(e.bound)) for e in poly.equalities]
    rows += [("le", [_frac(c) for c in f.coeffs], _frac(f.bound)) for f in poly.facets]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def _rank(rows: list[list[Fraction]]) -> int:
    rows = [list(r) for r in rows]
    rank, ncols = 0, len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def check_polytope(poly) -> str | None:
    """Facets valid on every vertex and tight on dim affinely independent ones."""
    verts = [tuple(Fraction(x) for x in v) for v in poly.vertices]
    for eq in poly.equalities:
        if any(_dot(eq.coeffs, v) != eq.bound for v in verts):
            return "hull equality fails on a vertex"
    for f in poly.facets:
        values = [_dot(f.coeffs, v) for v in verts]
        if max(values) != f.bound:
            return f"facet not supporting: max {max(values)} vs bound {f.bound}"
        tight = [v for v, val in zip(verts, values) if val == f.bound]
        diffs = [[a - b for a, b in zip(v, tight[0])] for v in tight[1:]]
        if _rank(diffs) != poly.affine_dim - 1:
            return "facet not tight on dim affinely independent vertices"
    return None


def brute_states(logic) -> list[tuple[int, ...]]:
    """Bit vectors with exactly one true atom per context, by exhaustion."""
    n = len(logic.atoms)
    idx = {a: i for i, a in enumerate(logic.atoms)}
    masks = [sum(1 << (n - 1 - idx[a]) for a in ctx) for ctx in logic.contexts]
    out = []
    for v in range(1 << n):
        if all(bin(v & m).count("1") == 1 for m in masks):
            out.append(tuple((v >> (n - 1 - k)) & 1 for k in range(n)))
    return out


BRUTE_LIMIT = 20


def raw_enumerate():
    """The state DFS without its cache or any trace wrapper, for checks."""
    import inspect
    return inspect.unwrap(sys.modules["ctxlab.states"].enumerate_states)


def reference_states(logic, expected_count: int) -> list[tuple[int, ...]]:
    """States for checking: exhaustive search up to BRUTE_LIMIT atoms, else
    ctxlab's enumeration; either way held to the expected count."""
    if len(logic.atoms) <= BRUTE_LIMIT:
        bits = brute_states(logic)
    else:
        bits = [s.bits for s in raw_enumerate()(logic)]
    if len(bits) != expected_count:
        raise AssertionError(f"{logic.name}: {len(bits)} states, expected {expected_count}")
    return bits


def _states_match(states, bits) -> str | None:
    got = [s.bits for s in states]
    if got != bits:
        return f"{len(got)} states differ from the {len(bits)} reference states"
    return None


def _expected_pair(bits, atoms, a, b) -> str:
    i, j = atoms.index(a), atoms.index(b)
    values = {s[j] for s in bits if s[i] == 1}
    if not values:
        return "AntecedentNeverTrue"
    if values == {0}:
        return "TrueImpliesFalse"
    if values == {1}:
        return "TrueImpliesTrue"
    return "Unconstrained"


def _mix(bits, weights, atoms) -> dict:
    point = {a: Fraction(0) for a in atoms}
    for w, s in zip(weights, bits):
        for a, bit in zip(atoms, s):
            if bit:
                point[a] += w
    return point


# ------------------------------------------------------------------ hull_sweep

def _build_hull(data, loaded, workdir):
    expected = pins()["hull"]
    ops = []
    checked: set[str] = set()
    for item in data["items"]:
        logic, name, project = loaded[item["name"]], item["name"], item["project"]

        def fn(logic=logic, project=project):
            C = _api()
            return C.facet_enumeration(C.vertices_from_states(logic, project=project))

        def check(poly, name=name):
            pin = expected[name]
            got = {"dim": poly.affine_dim, "facets": len(poly.facets),
                   "equalities": len(poly.equalities), "digest": facet_digest(poly)}
            if got != pin:
                return f"{name}: {got} != pinned {pin}"
            if name not in checked:  # the geometry once per run
                checked.add(name)
                return check_polytope(poly)
            return None

        ops.append(Op("hull", name, fn, check, logic=name, tag=item["class"]))
    return ops


# ------------------------------------------------------------------ probe_mix

def _build_probe(data, loaded, workdir):
    rng = random.Random(data["query_seed"])
    refs, logics = {}, {}
    for name in PROBE_POOL:
        logics[name] = loaded[name]
        refs[name] = reference_states(loaded[name], loaded[name + ".expected"].state_count)
    logics["peres24"] = loaded["peres24"]
    refs["peres24"] = []  # no two-valued state (Peres 1991); checked in states_scale
    vertex_sets = {n: sorted(set(tuple(Fraction(b) for b in s) for s in refs[n]))
                   for n in PROBE_POOL}
    # each kind cycles through its pool, so the seed picks queries but not
    # how many land on an expensive logic
    ops = []
    for kind, count in PROBE_COUNTS:
        pool = PROBE_POOLS.get(kind, PROBE_POOL)
        for i in range(count):
            ops.append(_PROBES[kind](rng, pool[i % len(pool)], logics, refs, vertex_sets, loaded))
    rng.shuffle(ops)
    return ops


def _member_check(vertex_set, point, labels, want_inside):
    def check(out):
        vset, res = out
        if list(vset.vertices) != vertex_set:
            return "vertex set differs from the reference states"
        if res.inside != want_inside:
            return f"inside={res.inside}, expected {want_inside}"
        p = [point[a] for a in labels]
        if res.inside:
            w = res.weights
            if any(x < 0 for x in w) or sum(w) != 1:
                return "weights are not convex"
            combo = [sum(wi * v[j] for wi, v in zip(w, vset.vertices)) for j in range(len(p))]
            return None if combo == p else "weights do not reproduce the point"
        sep = res.separator
        top = max(_dot(sep.coeffs, v) for v in vset.vertices)
        if top != sep.bound or res.max_over_vertices != top:
            return "separator is not tight on the polytope"
        value = _dot(sep.coeffs, p)
        if value != res.value_at_point or not value > top:
            return "separator does not separate the point"
        return None
    return check


def _member_op(kind, name, logic, point, check, known=None):
    def fn():
        C = _api()
        vset = C.vertices_from_states(logic)
        return vset, C.membership(point, vset)
    return Op(kind, name, fn, check, logic=name, known=known)


def _probe_member_in(rng, name, logics, refs, vsets, loaded):
    bits = refs[name]
    weights = gen.random_mixture(rng, len(bits), rng.randint(2, 6))
    point = _mix(bits, weights, logics[name].atoms)
    return _member_op("member_in", name, logics[name], point,
                      _member_check(vsets[name], point, logics[name].atoms, True))


def _probe_member_off(rng, name, logics, refs, vsets, loaded):
    bits = refs[name]
    point = _mix(bits, gen.random_mixture(rng, len(bits), 3), logics[name].atoms)
    atom = rng.choice(logics[name].atoms)
    point[atom] += rng.choice((Fraction(1, 7), Fraction(-1, 11), Fraction(1, 13)))
    return _member_op("member_off", name, logics[name], point,
                      _member_check(vsets[name], point, logics[name].atoms, False))


def _probe_member_exotic(rng, name, logics, refs, vsets, loaded):
    # pentagon measures with every shared atom near 1/2: they satisfy every
    # context sum but break "shared atoms sum to at most 2"
    logic = logics["pentagon"]
    odd = {a: Fraction(1, 2) - Fraction(rng.randint(0, 3), 100)
           for a in logic.atoms if int(a) % 2}
    point = dict(odd)
    for ctx in logic.contexts:
        for a in ctx:
            if a not in odd:
                point[a] = 1 - sum(odd[b] for b in ctx if b in odd)
    return _member_op("member_exotic", "pentagon", logic, point,
                      _member_check(vsets["pentagon"], point, logic.atoms, False))


def _probe_member_statefree(rng, name, logics, refs, vsets, loaded):
    logic = logics["peres24"]
    point = {a: Fraction(1, 4) for a in logic.atoms}

    def check(out):
        vset, res = out
        return None if not vset.vertices and not res.inside else "state-free logic has a point inside"
    return _member_op("member_statefree", "peres24", logic, point, check, known="IndexError")


def _probe_axiom(rng, name, logics, refs, vsets, loaded):
    logic = logics[name]
    atoms = rng.sample(logic.atoms, rng.randint(2, 4))
    text = " + ".join(atoms) + f" <= {rng.choice((1, 1, 2))}"
    contexts = logic.contexts

    def fn():
        C = _api()
        return C.axiom_implied(logic, C.parse_inequality(text))

    def check(res):
        bound = Fraction(text.rsplit("<=", 1)[1])
        if res.region_empty:
            return "axiom region of a measurable logic reported empty"
        if res.implied:
            return None if res.optimum <= bound else "implied but optimum above bound"
        w = dict(zip(logic.atoms, res.witness))
        if any(v < 0 for v in w.values()):
            return "witness has a negative entry"
        if any(sum(w[a] for a in ctx) != 1 for ctx in contexts):
            return "witness breaks a context sum"
        value = sum(w[a] for a in atoms)
        return None if value == res.optimum > bound else "witness value is not the optimum"
    return Op("axiom", name, fn, check, logic=name)


def _probe_pair(rng, name, logics, refs, vsets, loaded):
    logic = logics[name]
    a, b = rng.sample(logic.atoms, 2)
    want = _expected_pair(refs[name], logic.atoms, a, b)

    def fn():
        return _api().pair_property(logic, a, b)
    return Op("pair", name, fn, lambda p: None if p.value == want else f"{p.value} != {want}",
              logic=name)


def _born_check(logic, probs):
    for ctx in logic.contexts:
        if all(a in probs for a in ctx):
            if abs(sum(probs[a] for a in ctx) - 1) > 1e-9:
                return "Born probabilities of a context do not sum to 1"
    if any(not -1e-12 <= v <= 1 + 1e-9 for v in probs.values()):
        return "Born probability outside [0, 1]"
    return None


def _probe_born(rng, name, logics, refs, vsets, loaded):
    logic, real = logics[name], loaded[name + ".vec"]
    psi = rng.choice(sorted(real.vectors))

    def fn():
        return _api().born_probabilities(logic, real, psi)

    def check(probs):
        if abs(probs[psi] - 1) > 1e-9:
            return "psi has Born probability != 1 on its own atom"
        return _born_check(logic, probs)
    return Op("born", name, fn, check, logic=name)


def _probe_violate(rng, name, logics, refs, vsets, loaded):
    logic, real = logics[name], loaded[name + ".vec"]
    realized = sorted(real.vectors)
    psi = rng.choice(realized)
    atoms = rng.sample(realized, 2)
    text = " + ".join(atoms) + " <= 1"

    def fn():
        C = _api()
        return C.quantum_vs_classical(logic, real, psi, [C.parse_inequality(text)])

    def check(rep):
        (ineq, value, satisfied), = rep.evaluations
        want = sum(rep.assignment[a] for a in atoms)
        if abs(value - want) > 1e-9 or satisfied != (value <= 1):
            return "violation value or verdict is wrong"
        if bool(rep.violated) == satisfied:
            return "violated list disagrees with the evaluation"
        return _born_check(logic, rep.assignment)
    return Op("violate", name, fn, check, logic=name)


def _probe_urn(rng, name, logics, refs, vsets, loaded):
    logic = logics[name]
    n = len(refs[name])
    weights = (gen.random_mixture(rng, n, rng.randint(2, 6)) if rng.random() < 0.5
               else [Fraction(1, n)] * n)
    ctx = rng.randrange(len(logic.contexts))
    seed = rng.randrange(1 << 30)

    def fn():
        C = _api()
        return C.urn_simulate(logic, C.enumerate_states(logic), weights, ctx, URN_DRAWS, seed)

    def check(res):
        if sum(res.counts.values()) != URN_DRAWS:
            return "urn counts do not sum to the number of draws"
        if any(res.frequencies[a] != Fraction(c, URN_DRAWS) for a, c in res.counts.items()):
            return "urn frequencies are not counts over draws"
        return None
    return Op("urn", name, fn, check, logic=name)


def _probe_mixture(rng, name, logics, refs, vsets, loaded):
    logic = logics[name]
    weights = gen.random_mixture(rng, len(refs[name]), rng.randint(1, 8))
    want = _mix(refs[name], weights, logic.atoms)

    def fn():
        C = _api()
        probs = C.convex_mixture(C.enumerate_states(logic), weights)
        return probs, C.check_measure(logic, probs)

    def check(out):
        probs, report = out
        if dict(probs) != want:
            return "mixture differs from the weighted sum of states"
        return None if report.ok else "a state mixture fails the measure axioms"
    return Op("mixture", name, fn, check, logic=name)


_PROBES = {
    "member_in": _probe_member_in, "member_off": _probe_member_off,
    "member_exotic": _probe_member_exotic, "member_statefree": _probe_member_statefree,
    "axiom": _probe_axiom, "pair": _probe_pair, "born": _probe_born,
    "violate": _probe_violate, "urn": _probe_urn, "mixture": _probe_mixture,
}


def repeat_share(ops: list[Op]) -> float:
    """Fraction of ops on a logic an earlier op of the pass already used."""
    seen, repeats = set(), 0
    for op in ops:
        repeats += op.logic in seen
        seen.add(op.logic)
    return repeats / len(ops)


# ------------------------------------------------------------------ states_scale

def _build_states(data, loaded, workdir):
    shared: dict = {}  # states found earlier in the pass, by logic
    ops = []
    for item in data["logics"]:
        name = item["name"]
        logic = loaded[name]
        if name.startswith("cycle"):
            k = int(name[5:])
            _enumerate_op(ops, shared, name, logic, count=gen.lucas(k))
            _classify_op(ops, shared, name, logic, unital=True, pairs=0)
            # fixed positions: pair_property's cost grows with an atom's index
            s = [f"{logic.atoms[0][:6]}s{j}" for j in (k // 2, k // 2 + 1, k // 2 + 2)]
            _pair_op(ops, name, logic, s[0], s[1], "TrueImpliesFalse")
            _pair_op(ops, name, logic, s[0], s[2], "Unconstrained")
        elif name.startswith("chain"):
            n = int(name[5:])
            known = "RecursionError" if n == DEEP_CHAIN else None
            _enumerate_op(ops, shared, name, logic, count=2, known=known)
            if not known:
                even, odd = (n + 2) // 2, (n + 1) // 2
                _classify_op(ops, shared, name, logic, unital=True,
                             pairs=even * (even - 1) // 2 + odd * (odd - 1) // 2)
        elif name in ("peres24", "cega18"):
            bits = brute_states(logic) if len(logic.atoms) <= BRUTE_LIMIT else None
            if bits:
                raise AssertionError(f"{name} has states")
            _enumerate_op(ops, shared, name, logic, count=0)
            _classify_op(ops, shared, name, logic, unital=False, pairs=0)
        elif name.startswith("tifs_fig5a"):
            copy = name.split("#")[1]
            tits = loaded[f"tits_fig5b#{copy}"]
            pre = item["prefix"]
            exp = loaded["tifs_fig5a.expected"]
            _enumerate_op(ops, shared, name, logic, count=exp.state_count)
            _classify_op(ops, shared, name, logic, unital=exp.unital,
                         pairs=len(exp.inseparable_pairs),
                         non_unital=tuple(pre + a for a in exp.non_unital_atoms))
            _enumerate_op(ops, shared, tits.name + "#" + copy, tits,
                          count=loaded["tits_fig5b.expected"].state_count)
            _pair_op(ops, name, logic, pre + "a", pre + "b", "TrueImpliesFalse")
            _certify_op(ops, name, logic, tits, pre + "a", pre + "b",
                        loaded["indefinite_fig5c.expected"].state_count)
    return ops


def _enumerate_op(ops, shared, name, logic, count, known=None):
    def fn():
        states = _api().enumerate_states(logic)
        shared[name] = states
        return states

    def check(states):
        if len(states) != count:
            return f"{len(states)} states, expected {count}"
        if name.startswith("chain"):
            want = [tuple((i + j) % 2 for i in range(len(logic.atoms))) for j in (0, 1)]
            return _states_match(states, want)
        return None
    ops.append(Op("enumerate", name, fn, check, logic=name, known=known))


def _classify_op(ops, shared, name, logic, unital, pairs, non_unital=None):
    def fn():
        return _api().classify_states(logic, shared[name])

    def check(rep):
        if rep.count != len(shared[name]) or rep.unital != unital:
            return "count or unitality is wrong"
        if len(rep.inseparable_pairs) != pairs or rep.separating != (pairs == 0):
            return f"{len(rep.inseparable_pairs)} inseparable pairs, expected {pairs}"
        if non_unital is not None and rep.non_unital_atoms != non_unital:
            return "non-unital atoms differ from ExpectedStates"
        return None
    ops.append(Op("classify", name, fn, check, logic=name))


def _pair_op(ops, name, logic, a, b, want):
    def fn():
        return _api().pair_property(logic, a, b)
    ops.append(Op("pair", name, fn,
                  lambda p: None if p.value == want else f"{p.value} != {want}", logic=name))


def _certify_op(ops, name, tifs, tits, a, b, count):
    def fn():
        return _api().certify_value_indefiniteness(tifs, tits, a, b)

    def check(cert):
        if cert.pasted_state_count != count:
            return f"pasted logic has {cert.pasted_state_count} states, expected {count}"
        if any(s[a] for s in raw_enumerate()(cert.pasted)):
            return "a pasted state has the antecedent true"
        return None
    ops.append(Op("certify", name, fn, check, logic=name))


# ------------------------------------------------------------------ cli_session

def cli_files() -> dict[str, str]:
    """Input files of the CLI script; fixed so that stdout can be pinned."""
    cyc, shared = gen.cycle(6)
    peres, peres_vec = gen.peres24()
    weights = gen.random_mixture(random.Random(6), gen.lucas(6), 4)
    pentagon_in = {a: Fraction(1, 5) if int(a) % 2 else Fraction(3, 5)
                   for a in map(str, range(1, 11))}
    pentagon_off = dict(pentagon_in, **{"1": Fraction(1, 3)})
    return {
        "cycle6.logic": cyc,
        "chain50.logic": gen.chain(50),
        "peres24.logic": peres,
        "peres24.vec": peres_vec,
        "bad.logic": "logic bad\ncontext 1\n",
        "cycle6.weights": "".join(f"{_frac(w)}\n" for w in weights),
        "pentagon_in.assign": "".join(f"{a} {_frac(v)}\n" for a, v in pentagon_in.items()),
        "pentagon_off.assign": "".join(f"{a} {_frac(v)}\n" for a, v in pentagon_off.items()),
        "peres24.assign": "".join(f"{line.split()[1]} 1/4\n"
                                  for line in peres_vec.splitlines()),
    }


def cli_script(urn_seed: int) -> list[tuple[str, list[str], int, str | None]]:
    """(id, argv, expected exit code, known exception) for every call."""
    f = "@"  # replaced by the work directory
    cycle_proj = ",".join(f"s{i}" for i in range(6))
    base = [
        ("validate", ["validate", "--catalog", "pentagon"], 0),
        ("states", ["states", "--catalog", "triangle4d"], 0),
        ("classify", ["classify", "--catalog", "tifs_fig5a"], 0),
        ("property", ["property", "--catalog", "specker_bug", "--given", "a",
                      "--target", "b", "--expect", "TrueImpliesFalse"], 0),
        ("mixture", ["mixture", "--logic", f + "cycle6.logic",
                     "--weights", f + "cycle6.weights"], 0),
        ("hull", ["hull", "--logic", f + "cycle6.logic", "--project", cycle_proj], 0),
        ("member", ["member", "--catalog", "pentagon", "--assign",
                    f + "pentagon_in.assign", "--expect", "inside"], 0),
        ("axiom-check", ["axiom-check", "--catalog", "pentagon",
                         "--ineq", "1 + 3 + 5 + 7 + 9 <= 2"], 1),
        ("realization-check", ["realization-check", "--catalog", "triangle4d"], 0),
        ("born", ["born", "--catalog", "specker_bug", "--psi", "a"], 0),
        ("violate", ["violate", "--catalog", "specker_bug", "--psi", "a",
                     "--ineq", "a + b <= 1"], 0),
        ("paste", ["paste", "--catalog", "tifs_fig5a", "--catalog2", "tits_fig5b"], 0),
        ("certify-vi", ["certify-vi", "--catalog", "tifs_fig5a", "--catalog2",
                        "tits_fig5b", "--given", "a", "--target", "b"], 0),
        ("urn", ["urn", "--catalog", "square4d", "--context", "0", "--draws", "2000",
                 "--seed", str(urn_seed)], 0),
        ("catalog", ["catalog"], 0),
        ("export-dot", ["export-dot", "--catalog", "pentagon"], 0),
    ]
    calls = []
    for name, argv, code in base:
        calls.append((name, argv, code, None))
        calls.append((name + "--json", argv + ["--json"], code, None))
    calls += [
        ("states-chain-count", ["states", "--logic", f + "chain50.logic", "--count"], 0, None),
        ("member-off", ["member", "--catalog", "pentagon", "--assign",
                        f + "pentagon_off.assign"], 0, None),
        ("axiom-implied", ["axiom-check", "--catalog", "pentagon", "--ineq", "1 + 2 + 3 <= 1"],
         0, None),
        ("realization-peres24", ["realization-check", "--logic", f + "peres24.logic",
                                 "--vectors", f + "peres24.vec"], 0, None),
        ("usage-no-source", ["states"], 2, None),
        ("usage-urn-args", ["urn", "--catalog", "pentagon"], 2, None),
        ("usage-unknown", ["bogus"], 2, None),
        ("domain-bad-logic", ["states", "--logic", f + "bad.logic"], 1, None),
        ("domain-no-logic", ["states", "--catalog", "impossible_fig6"], 1, None),
        ("domain-unknown-atom", ["property", "--catalog", "pentagon", "--given", "zz",
                                 "--target", "1"], 1, None),
        ("statefree-urn", ["urn", "--logic", f + "peres24.logic", "--context", "0",
                           "--seed", "1"], 0, "ZeroDivisionError"),
        ("statefree-member", ["member", "--logic", f + "peres24.logic", "--assign",
                              f + "peres24.assign"], 0, "IndexError"),
    ]
    return calls


def cli_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def cli_run(argv: list[str], workdir: Path) -> subprocess.CompletedProcess:
    argv = [a.replace("@", str(workdir) + os.sep) if a.startswith("@") else a for a in argv]
    return subprocess.run([sys.executable, "-m", "ctxlab.cli", *argv], capture_output=True,
                          cwd=str(workdir), env=cli_env(), timeout=120)


def cli_digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()[:16]


def write_cli_files(workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for name, text in cli_files().items():
        (workdir / name).write_text(text)


def _build_cli(data, loaded, workdir):
    write_cli_files(workdir)
    pinned = pins()["cli"]
    script = cli_script(data["urn_seed"])
    ops = []
    for i in data["order"]:
        call_id, argv, code, known = script[i]
        pin_id = f"{call_id}@{data['urn_seed']}" if call_id.startswith("urn") else call_id

        def fn(argv=argv, known=known):
            proc = cli_run(argv, workdir)
            err = proc.stderr.decode(errors="replace")
            if "Traceback" in err:
                last = err.strip().splitlines()[-1]
                raise CliFailure(last.split(":", 1)[0], last)
            return proc

        def check(proc, code=code, pin_id=pin_id, known=known):
            if known and proc.returncode in (0, 1):
                code = proc.returncode
            if proc.returncode != code:
                return f"exit {proc.returncode}, expected {code}"
            err = proc.stderr.decode(errors="replace")
            if code == 2 and not err.startswith("usage:"):
                return "usage error without a usage line"
            if code != 2 and err and not err.startswith("error: "):
                return "stderr is not a one-line error message"
            # pinned --json output was validated against its schema by pin.py
            if pin_id in pinned:
                if cli_digest(proc.stdout) != pinned[pin_id]:
                    return "stdout differs from the pinned output"
            elif not known:  # a known failure that was fixed has no pin yet
                return f"no pinned output for {pin_id}"
            return None

        ops.append(Op("cli", call_id, fn, check, logic=argv[0], known=known))
    return ops


_BUILDERS = {"hull_sweep": _build_hull, "probe_mix": _build_probe,
             "states_scale": _build_states, "cli_session": _build_cli}
