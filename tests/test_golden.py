"""Byte-identity pins for the polytope layer.

For every catalog logic with a logic file, the sha256 digest of ``ctxlab
hull`` stdout, in text and in ``--json`` form, and of the ``repr`` of the
membership results on a seeded point set: points inside the polytope, off
its affine hull, and in the hull but possibly outside.  Facets, hull
equalities, their order, canonical forms, convex weights and separators all
feed the digests.  A change that is meant to alter any of them recomputes
the digests with ``_hull_digests`` and ``_membership_digest`` and says why
in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest

from ctxlab.catalog import CATALOG_NAMES, catalog_get
from ctxlab.cli import main
from ctxlab.polytope import membership, vertices_from_states

WITH_LOGIC = tuple(n for n in CATALOG_NAMES if n != "impossible_fig6")

HULL = {
    "triangle4d": (
        "ca7cd0152d3a09cbbeac2bb577553fb1a7c00864806564086a370fc7baf22c73",
        "12e919188039e6328cc57c4f7f3049501ef431c2efe98953a41ce83c86ce91ef"),
    "square4d": (
        "a6cd95d173944b7d0553f4bb05875b70a4a7ba6820303edfcc4db4ec2aa3bedd",
        "c2c5aadfb8b2a283753ef84b084cd9f9e9d44b4798e654fe4e3b62fb6cd145ee"),
    "pentagon": (
        "98e0044dab12942b3f2aede85263a2beb2d913fce2a73651930684a213c74ee5",
        "7eeb3397475bf20e2e08e245a5f9e77e70184d0c7cb94ecad87c6d5f2b32821f"),
    "specker_bug": (
        "109ef2e87b5c16a9ef5831f7f6702d826ac056d023bc0b4438f78fc55dbf8516",
        "3861cfd18dcb4b6421000046cc751448a50141a1fb423472717bec23538d619c"),
    "specker_bug_extended": (
        "07a35a33cd786e8d9a94f1d776c695cb6bdf95e7b839e43c80fd6e4abdb6a7f0",
        "2770d58edfc7f345075966e2d44235fe78784502f6f5f0629e5d6bbe6282cfea"),
    "specker_bug_combo": (
        "d74ce3e520d9821f33c66c80981c35903dc28a989e1cbd05ad60c19f5d7aa9a9",
        "20c2d4bcc8f4ae9bb75e0914d221cfdbac42453ad28481bc542d102525979aeb"),
    "tifs_fig5a": (
        "8113006dd6d18a1d2fc4e8e31ebff10ba4c20a1ce6bf70fbe73e3817208b872f",
        "16128f3f226c2509ee17faa91459407919bb79617ed9925d09edfa6ace07736b"),
    "tits_fig5b": (
        "ad9b5c21c7b2565398b9dc7553c8c5632989861b5fcaf38d1c8bf2339208b35e",
        "c11f00342bd900531f8804ca7f5a9f53ed31acaab7b9574dd7942359e4e55493"),
    "indefinite_fig5c": (
        "f59ed7c119894d8be4184e10bae56ce0649ca8eb729e2b2bc1e738acc6aced6f",
        "f87edaabc104eead3bf583f00be9f0f3705de8a7c703235ad528172da495a206"),
}

MEMBERSHIP = {
    "triangle4d":
        "89fea9ba2b4866aaf72e03c53e54363c362f1dfc7c674b65651e0f5fabb1ccb1",
    "square4d":
        "3a2ae4323936f245b5a22a96715eb1a9fb1a84caadeb0b6ac039820c12931c5e",
    "pentagon":
        "db6e009e75a1aa5990e2426c7b08c417fa0c43c43ca8c033d3cb82d9ef14f3c7",
    "specker_bug":
        "91fb663b39ebaf5f4374c5b6614b2c7df513090b42c10cb24f5da30eb406a973",
    "specker_bug_extended":
        "8b0261ceb059bff1e46eb36216e5f5f520ae6055a4aab9699fb4cdbd8e5c34b4",
    "specker_bug_combo":
        "0b5afbd69f549861729b5976974a059db69b6db636d3d92f6939fb0759466898",
    "tifs_fig5a":
        "dd032cec48c1f6b19b22f16ad1c9d6927c712e3283521c12545f24563cf72b5f",
    "tits_fig5b":
        "785e9c4bd7c065a4ef8023f3997b1a5a99dede04036992546b8d080ce776a313",
    "indefinite_fig5c":
        "9b7c8db0b51652b734aa931fd256752c9a08ddd5a2e264b10381191850308cb9",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _hull_digests(name: str, capsys) -> tuple[str, str]:
    digests = []
    for extra in ([], ["--json"]):
        assert main(["hull", "--catalog", name, *extra]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        digests.append(_sha(out))
    return tuple(digests)


def _points(vertices, seed: int) -> list[tuple[Fraction, ...]]:
    """Two convex combinations of a few vertices (inside), one of them
    pushed along a single coordinate (off the hull: every catalog hull has
    context-sum equalities), and three affine combinations with a negative
    weight (in the hull, mostly outside)."""
    rng = random.Random(seed)
    n = len(vertices[0])

    def combo(weights):
        total = sum(weights.values())
        return tuple(sum(w * vertices[i][k] for i, w in weights.items()) / total
                     for k in range(n))

    inside = [combo({i: Fraction(rng.randint(1, 4))
                     for i in rng.sample(range(len(vertices)), min(3, len(vertices)))})
              for _ in range(2)]
    off = list(inside[0])
    off[rng.randrange(n)] += Fraction(1, 7)
    affine = []
    for _ in range(3):
        a, b = rng.sample(range(len(vertices)), 2)
        t = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        affine.append(combo({a: 1 + t, b: -t}))
    return inside + [tuple(off)] + affine


def _membership_digest(name: str, seed: int) -> str:
    vset = vertices_from_states(catalog_get(name).logic)
    results = [membership(dict(zip(vset.labels, p)), vset)
               for p in _points(vset.vertices, seed)]
    return _sha("\n".join(repr(r) for r in results))


@pytest.mark.parametrize("name", WITH_LOGIC)
def test_hull_output_is_pinned(name, capsys):
    assert _hull_digests(name, capsys) == HULL[name]


@pytest.mark.parametrize("seed,name", enumerate(WITH_LOGIC))
def test_membership_results_are_pinned(seed, name):
    assert _membership_digest(name, seed) == MEMBERSHIP[name]
