"""Byte-identity pins for the polytope, urn and mixture layers.

For every catalog logic with a logic file, the sha256 digest of ``ctxlab
hull`` stdout, in text and in ``--json`` form, and of the ``repr`` of the
membership results on a seeded point set: points inside the polytope, off
its affine hull, and in the hull but possibly outside.  Facets, hull
equalities, their order, canonical forms, convex weights and separators all
feed the digests.

For every catalog logic with states, the digest of ``ctxlab urn`` stdout
over every context and two seeds, and of ``ctxlab mixture`` stdout, each in
text and in ``--json`` form, under uniform weights and under seeded sparse
weights that are zero on the first and last state.  Draw counts, exact
frequencies and mixture probabilities feed these digests.

A change that is meant to alter any of them recomputes the digests with
``_cli_digests`` and ``_membership_digest`` and says why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest

from ctxlab.catalog import CATALOG_NAMES, catalog_get
from ctxlab.cli import main
from ctxlab.polytope import membership, vertices_from_states
from ctxlab.states import enumerate_states

WITH_LOGIC = tuple(n for n in CATALOG_NAMES if n != "impossible_fig6")
WITH_STATES = tuple(n for n in WITH_LOGIC if enumerate_states(catalog_get(n).logic))
WEIGHTS = ("uniform", "sparse")
URN_SEEDS = (7, 20181)
URN_DRAWS = 2000

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
        "6c8e2283d68923e502d6aa7fcca98d99aa7700a21ad0f8f348c4377762b83b2d",
    "square4d":
        "0b7ca7b77d46fdd08f2b34f9d81b7854286524bba629aae8a9efbe2651c172cb",
    "pentagon":
        "d56a4d617f8ae7565d929e0a279c3427355657c1c1ae0d59073e769af48b2476",
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

URN = {
    "triangle4d": {
        "uniform": (
            "45081e70a52de61cf8c1de55204bb7d22e82e3a83c473c98138af787e6bae988",
            "fe133b77974ed5ad4ddb5387446bf99915d894ed75a1177a0a4d13cb9d4a5932"),
        "sparse": (
            "0b01465aa9acb40356ea2b31fc25cf115d27cf052a28d8f7f5f19bcef8287e03",
            "431c1fcf49cd24225edf0592abbf585bb058f611f4e9cc280a12683ca0c32b36"),
    },
    "square4d": {
        "uniform": (
            "21804de1d42e2d6f1236e73fbfae1ab676103da640db57dd9e88b0eeb49cb493",
            "86612c9ef256da7b8d6e2c7d2ef5ae0b8234fc9c926b4cddddf6ce00b797aef9"),
        "sparse": (
            "280409e47fb6509be52c1f8604a36365535b487e97b87181a077cb9ee2876b90",
            "c38d9d70dcbcc4f561947ee55be880f639697f8547bf1c5408bd7f34a7360e2b"),
    },
    "pentagon": {
        "uniform": (
            "aa04479fb020ea621e238329558dcb1eaa41003c978e0b9adbffdc2ff24a00b0",
            "3cf2de66014b062b5fb4a0a303c9458d3932e40badec9ea30047e34814a2ec62"),
        "sparse": (
            "1a5a1b10d62e6b936fe5211d7153b2eb250947e15266e81418ae799bce3d9703",
            "92d4e91d6fd7265845f4808cee6edc822acaccbf6676ca497ec0fc65a8e63614"),
    },
    "specker_bug": {
        "uniform": (
            "c7ed5013625e37d25b1f8a9245241a3845e983d7a5dce6bb0c9ef031531ccfbd",
            "39061a8b08ebcb69a0cde976b40101a38be9b88820bd5d22b7d3db1fc0832f22"),
        "sparse": (
            "008f0d9fc0023603a89a61368555107997646f97684d8de76191d7ccf4cbc0b8",
            "df3c923688bfd7d1370aabeef7ff555033de1d9a941febabfdd22510db2d6092"),
    },
    "specker_bug_extended": {
        "uniform": (
            "fe061dcd69fb3d5b0f04c33f858cd5c0a25b6a2c81db1627f6a26143590a7b63",
            "eaeb0b9b52dc9d96bc54703911f4a1e7d854ea63f1c4c0a0805ab2331881ce73"),
        "sparse": (
            "50e12b7e67535a535384aacf9f3bcc39af70995189ff0aa1dc0d4dfde673fb27",
            "dbb2968c9d798ee408975332f4ac858f38116edb9b604aeee996b13899373ce0"),
    },
    "specker_bug_combo": {
        "uniform": (
            "74716823fdb37b8adc5dfb198e5c730ac2f780d88fcdbefa8b20ca9861a744ce",
            "6f0c39c81fc9314cbfbdc3a6a55f0eec23c3125fae7830762f70dfd469690d7c"),
        "sparse": (
            "2988f20a7e35339e37425a27b43e6c7f387037b572ec67d973cadb0b3af78343",
            "3d52135ceabf9c30e9081e8e1ecaba74f1168f6863861f0b3e8394a070cdb7bd"),
    },
    "tifs_fig5a": {
        "uniform": (
            "9f7deb71530dcc1c0a44be21b92594fec0124f4b7803d0dcb16af9f145c196a8",
            "f0bde08663be21c8b14ef8cbe0254f8ae8eb8817dcba7673a019c44cea3f21ba"),
        "sparse": (
            "d0839707b48a1b599ded84d6768d662019d8b06b5248e76b3ac767485922ea65",
            "9b10be4cb3106c572216bd421c62bc5fca0df3e336e8403f445e2becf003d241"),
    },
    "tits_fig5b": {
        "uniform": (
            "b7e84d21c9851b012dceb1d21393611bc478c1fddd606ec2a6ad5b06d208e9b5",
            "d409362cdaae4982fdef3b8fcc97174fb173627ee0489f154c144979054f3f00"),
        "sparse": (
            "0a657ec6191a59b46a02077028a7557339e1dd3871071ad9bdb42d38cc5e76bf",
            "3f98b6343f1d1ab03b77a3e7fafbc77f32a276648a6ecead4dfa0fe176b404ee"),
    },
    "indefinite_fig5c": {
        "uniform": (
            "dfafb2f60832a78b7ceb56a36f16501d627b2ef64bd8872b89cc711596e9e3dc",
            "57212c4c3c411e67ca24744b76963bb66b32c72fad129360c0b146d4a63d7e5e"),
        "sparse": (
            "e5b4f3b4b9882f52ea6b0cd626148eccfec0d5095652415bb8faa321d8351ae9",
            "214b87b96c4bf886c8aa2ef9bfe058667e54fecaf73cb02e7a0801a3c5cfff0c"),
    },
}

MIXTURE = {
    "triangle4d": {
        "uniform": (
            "128e92a5fa81b9444e6c1b9a459d4a013cdf659c0704569afcce7591aff89b73",
            "e039f6438c9d7a72b042069d909dd7e1c69270c03a3a24bbc64485d4a2415ae0"),
        "sparse": (
            "3631c2893781311ac3da0925537936363ec3e76d6404151808a9a94dda46a343",
            "82a5bfe8fcd511c48b7360409a6e107766ac08da080f722c9e698b6478512f47"),
    },
    "square4d": {
        "uniform": (
            "41da74cccedcc6cc0c7f0b962508f3571bd8a129188ebbe517576dd76d522b5c",
            "56de53bf86f1d566856960c492ea6478e016e99e743bae3eaf9171f51d1879d6"),
        "sparse": (
            "95caec8981b187a85ca597d5e1be2cd1626a689dfea635e0604cf30f1df8547f",
            "2a065257724576e2dad555ec2de8610e4c45dbcb87ab8d6d4ee21bb3993c8973"),
    },
    "pentagon": {
        "uniform": (
            "2ce521ebac8568843876257730259187255e966c13aab2795b0de39ebd924b94",
            "a319f462cb58d772a851a4a321fe7617c374f3ee3f3b3145c2d680a97cd7a57f"),
        "sparse": (
            "09a7bb1d727daa5ec162ffa03f31dafce58618fc5f88b0008a769c28a281f3ce",
            "ba8f7750ed0c3d24ab7e6c03d143bcced79acffd96138bb9a2091106241f1128"),
    },
    "specker_bug": {
        "uniform": (
            "043af48728867097e0d8afba49b226bb5755893c431865368284efb37d87f75d",
            "d795222ac7acc78165c7c8db76945250a3ba0e0d992f30249614d6afee10c6ee"),
        "sparse": (
            "0aa83673fcc22b75b7c25001fa03b5efec37962b7ce1a8329edc0c3550c3ee8a",
            "cec97abdea960e80791a1d3858af77cb82c8766af6d3d7c8dd8b532ef78ffccd"),
    },
    "specker_bug_extended": {
        "uniform": (
            "36829f2543d8397e0b9bfadc4de53875a387fbed2359eb0f0ee2f9a739a2377e",
            "0ba3c0943b25d49c50dcbb4141880f24934c4764aa11514fafc864be334283a1"),
        "sparse": (
            "598df9b9bf2e76750d163c883c44fce794dd3f834f2c363a71b5062c026673a6",
            "818b0b56659d03aec3ab70c4124241593570f0c84481beb6901374a8ab5c8f09"),
    },
    "specker_bug_combo": {
        "uniform": (
            "db102f53adaa90d47a50b53e4447426553b00df3b9f4c5a7ec3a37c9863adc1e",
            "bfe90224be6dda038c30d4387e0efa9c1130ea6fb8e771f80503bed8f993e7cd"),
        "sparse": (
            "9b5a2ac8cfcbdcd94d50b7959dc58b2a7f9f7ca204f4d28ddddc37a6ba2dd91d",
            "3da2d95ed310257d661083f4cdf6b289ee0fba72bbbc445944b4137f4faf46ad"),
    },
    "tifs_fig5a": {
        "uniform": (
            "e4f582f91e03cd3dceb89371bd483e628a0fd1a9f564466be9c2789e0ff301b5",
            "231422298197328f553205f8f97187410cee141e49eb3ed4484637004c23bb75"),
        "sparse": (
            "189a7f7a9fc5746cac2270eacf6600bd599ff4c26358c3b432a4b35e2d53c33b",
            "d6c6dbd2ac9d514950e289fcb662c9c67b505dc9567008154892a0946687e498"),
    },
    "tits_fig5b": {
        "uniform": (
            "9c5a8ecef0ca737c77923654fe645b2f03c0d45705eb55a43b51443fba15a26c",
            "8ae70bb61551fd5e173b6e1e944a774e064ccece9efb0267a674fb66d99e51da"),
        "sparse": (
            "1b573bc7165a766b0142f5c3203f52c58d65d8fd3a22ee1811fe4d2d5e2d549f",
            "c9de42088024baf43f9fab2e92bc9d58367addc3bac3a34dc7a751908bf6e624"),
    },
    "indefinite_fig5c": {
        "uniform": (
            "aa40ec431f90f3110d6a4b92de1c5603df88f06f61d9be01022c237d993609de",
            "5b92cabeb59541896253e8e10096ac7a55f2cec1e4a003dd1b6a209a3de3531d"),
        "sparse": (
            "50d7b60586534c54b3f88335e2fa098764feafe5041b748fd04666881d8ec97c",
            "50444a5422c088cbe6d33335619f9b3588df67d613583e4677e0f4878e6590f8"),
    },
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cli_digests(calls: list[list[str]], capsys) -> tuple[str, str]:
    """Digests of the joined stdout of the calls, in text and in ``--json``
    form; every call must exit 0 and print nothing on stderr."""
    digests = []
    for extra in ([], ["--json"]):
        outs = []
        for argv in calls:
            assert main([*argv, *extra]) == 0
            out, err = capsys.readouterr()
            assert err == ""
            outs.append(out)
        digests.append(_sha("".join(outs)))
    return tuple(digests)


def _sparse_weights(n: int, seed: int) -> list[Fraction]:
    """Seeded convex weights with zeros inside and at both ends."""
    rng = random.Random(seed)
    raw = [0] + [rng.choice((0, 0, 1, 2, 3, 5, 7)) for _ in range(n - 2)] + [0]
    if not any(raw):
        raw[n // 2] = 1
    return [Fraction(r, sum(raw)) for r in raw]


def _weights(name: str, kind: str) -> list[Fraction]:
    n = len(enumerate_states(catalog_get(name).logic))
    if kind == "sparse":
        return _sparse_weights(n, WITH_STATES.index(name))
    return [Fraction(1, n)] * n


def _weights_file(weights: list[Fraction], path) -> list[str]:
    path.write_text("".join(f"{w}\n" for w in weights))
    return ["--weights", str(path)]


def _urn_digests(name: str, kind: str, path, capsys) -> tuple[str, str]:
    # uniform urn weights are the CLI default: no --weights
    weights = _weights_file(_weights(name, kind), path) if kind == "sparse" else []
    contexts = range(len(catalog_get(name).logic.contexts))
    return _cli_digests([["urn", "--catalog", name, "--context", str(i),
                          "--draws", str(URN_DRAWS), "--seed", str(seed), *weights]
                         for i in contexts for seed in URN_SEEDS], capsys)


def _mixture_digests(name: str, kind: str, path, capsys) -> tuple[str, str]:
    return _cli_digests([["mixture", "--catalog", name,
                          *_weights_file(_weights(name, kind), path)]], capsys)


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
    assert _cli_digests([["hull", "--catalog", name]], capsys) == HULL[name]


@pytest.mark.parametrize("seed,name", enumerate(WITH_LOGIC))
def test_membership_results_are_pinned(seed, name):
    assert _membership_digest(name, seed) == MEMBERSHIP[name]


@pytest.mark.parametrize("kind", WEIGHTS)
@pytest.mark.parametrize("name", WITH_STATES)
def test_urn_output_is_pinned(name, kind, tmp_path, capsys):
    assert _urn_digests(name, kind, tmp_path / "w.txt", capsys) == URN[name][kind]


@pytest.mark.parametrize("kind", WEIGHTS)
@pytest.mark.parametrize("name", WITH_STATES)
def test_mixture_output_is_pinned(name, kind, tmp_path, capsys):
    assert _mixture_digests(name, kind, tmp_path / "w.txt", capsys) == MIXTURE[name][kind]
