"""Seeded input generators for the benchmark (standard library only).

Every generator returns text in the formats ``ctxlab`` reads (logic files
and ``vec`` files), so the package only ever sees generated inputs.  The
seed decides atom names and query choices; the structure of each input, and
so the work it costs, does not depend on the seed.
"""

from __future__ import annotations

import random
import string
from fractions import Fraction
from itertools import combinations, permutations, product
from pathlib import Path

DATA = Path(__file__).resolve().parent.parent / "src" / "ctxlab" / "data"


def lucas(k: int) -> int:
    """Lucas number L_k: the state count of a k-cycle of 3-atom contexts."""
    a, b = 2, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def prefix(rng: random.Random) -> str:
    """A fresh atom-name prefix of fixed length, so names cost the same."""
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(5)) + "_"


def logic_text(name: str, contexts, atoms=()) -> str:
    lines = [f"logic {name}"]
    lines += [f"atom {a}" for a in atoms]
    lines += ["context " + " ".join(c) for c in contexts]
    return "\n".join(lines) + "\n"


def cycle(k: int, pre: str = "") -> tuple[str, list[str]]:
    """k contexts (s_i, m_i, s_i+1) around a cycle; returns the logic text
    and the k shared atoms, which are the projection of the projected class."""
    shared = [f"{pre}s{i}" for i in range(k)]
    contexts = [(shared[i], f"{pre}m{i}", shared[(i + 1) % k]) for i in range(k)]
    return logic_text(f"cycle{k}", contexts), shared


def path(k: int, pre: str = "") -> str:
    """k contexts (s_i, m_i, s_i+1) in an open row: the cycle without its
    closing context."""
    return logic_text(f"path{k}", [(f"{pre}s{i}", f"{pre}m{i}", f"{pre}s{i + 1}")
                                   for i in range(k)])


def chain(n: int, pre: str = "") -> str:
    """n 2-atom contexts in a path: 2 states, and DFS recursion depth n."""
    return logic_text(f"chain{n}",
                      [(f"{pre}c{i}", f"{pre}c{i + 1}") for i in range(n)])


def _orthogonal(u, v) -> bool:
    return sum(a * b for a, b in zip(u, v)) == 0


def _bases(rays) -> list[tuple[int, ...]]:
    """All sets of four pairwise orthogonal rays, as sorted index tuples."""
    out = []
    for quad in combinations(range(len(rays)), 4):
        if all(_orthogonal(rays[i], rays[j]) for i, j in combinations(quad, 2)):
            out.append(quad)
    return out


def _ray_name(ray, pre: str) -> str:
    return pre + "v" + "".join("m" if c < 0 else str(c) for c in ray)


def peres24_rays() -> list[tuple[int, ...]]:
    """(1,0,0,0), (1,±1,0,0), (1,±1,±1,±1) up to sign and permutation."""
    rays = set()
    for base in ((1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 1)):
        for signs in product((1, -1), repeat=4):
            v = [b * s for b, s in zip(base, signs)]
            for perm in set(permutations(v)):
                first = next(c for c in perm if c)
                rays.add(tuple(c if first > 0 else -c for c in perm))
    return sorted(rays, reverse=True)


def peres24(pre: str = "") -> tuple[str, str]:
    """The Peres 24-ray set in dimension 4: logic text (its 24 orthogonal
    bases) and a vec file with the normalized rays."""
    rays = peres24_rays()
    names = [_ray_name(r, pre) for r in rays]
    contexts = [tuple(names[i] for i in quad) for quad in _bases(rays)]
    vec_lines = []
    for name, ray in zip(names, rays):
        norm2 = sum(c * c for c in ray)
        comps = []
        for c in ray:
            if c == 0:
                comps.append("0")
            elif norm2 == 1:
                comps.append(str(c))
            elif norm2 == 4:
                comps.append(f"{c}/2")
            else:
                comps.append(f"{c}/sqrt({norm2})")
        vec_lines.append(f"vec {name} " + " ".join(comps))
    return logic_text("peres24", contexts, names), "\n".join(vec_lines) + "\n"


CEGA18_BASES = (
    ((0, 0, 0, 1), (0, 0, 1, 0), (1, 1, 0, 0), (1, -1, 0, 0)),
    ((0, 0, 0, 1), (0, 1, 0, 0), (1, 0, 1, 0), (1, 0, -1, 0)),
    ((1, -1, 1, -1), (1, -1, -1, 1), (1, 1, 0, 0), (0, 0, 1, 1)),
    ((1, -1, 1, -1), (1, 1, 1, 1), (1, 0, -1, 0), (0, 1, 0, -1)),
    ((0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 1), (1, 0, 0, -1)),
    ((1, -1, -1, 1), (1, 1, 1, 1), (1, 0, 0, -1), (0, 1, -1, 0)),
    ((1, 1, -1, 1), (1, 1, 1, -1), (1, -1, 0, 0), (0, 0, 1, 1)),
    ((1, 1, -1, 1), (-1, 1, 1, 1), (1, 0, 1, 0), (0, 1, 0, -1)),
    ((1, 1, 1, -1), (-1, 1, 1, 1), (1, 0, 0, 1), (0, 1, -1, 0)),
)


def cega18(pre: str = "") -> str:
    """The Cabello-Estebaranz-Garcia-Alcaine 18-ray, 9-basis set."""
    contexts = [tuple(_ray_name(r, pre) for r in basis) for basis in CEGA18_BASES]
    return logic_text("cega18", contexts)


def relabel(text: str, mapping: dict[str, str]) -> str:
    """Rename atoms in a logic file; comments are dropped."""
    out = []
    for raw in text.splitlines():
        words = raw.split("#", 1)[0].split()
        if not words:
            continue
        if words[0] in ("atom", "context"):
            words = [words[0]] + [mapping.get(w, w) for w in words[1:]]
        out.append(" ".join(words))
    return "\n".join(out) + "\n"


def fixture_atoms(name: str) -> list[str]:
    seen = []
    for raw in (DATA / f"{name}.logic").read_text().splitlines():
        words = raw.split("#", 1)[0].split()
        if words and words[0] in ("atom", "context"):
            seen += [w for w in words[1:] if w not in seen]
    return seen


def relabelled_fixture(name: str, pre: str) -> str:
    """A catalog fixture with every atom renamed to ``pre + atom``."""
    text = (DATA / f"{name}.logic").read_text()
    return relabel(text, {a: pre + a for a in fixture_atoms(name)})


def random_mixture(rng: random.Random, n: int, support: int) -> list[Fraction]:
    """Convex weights over n states with a random support of given size."""
    support = min(support, n)
    picked = rng.sample(range(n), support)
    raw = [rng.randint(1, 9) for _ in picked]
    total = sum(raw)
    weights = [Fraction(0)] * n
    for i, r in zip(picked, raw):
        weights[i] = Fraction(r, total)
    return weights
