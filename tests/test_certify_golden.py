"""Pinned certificates and shrinks: the sha256 of ``io.to_json`` for each input.

The inputs drive both star certifications down their happy paths and
into every refutation branch that a known family or oracle reaches:
explicit stars, stars with edges removed or off-center edges added,
Hilton-Milner families, two-star unions, implicit stars (complete and
punctured) and oracles whose star center depends on the query or
switches partway through a run.  A
procedure that raises is pinned by its error type and message.

The shrinks are pinned on the same inputs: each input's first
SHRINK_EDGES edges from ``enumerate_extensions(0)`` are shrunk at its
level, and the outcomes are joined into one digest; a few shrink-only
inputs are shrunk from their first edge alone.  Every certificate
and shrink witness from a source that answers as one family must also
re-verify against a fresh copy of that source.

The same digests, and those of the k-2 final consolidation below, must
come out under ``python -O``, which strips bare asserts.  Run this file
as a script to print the three maps as JSON.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import random
import subprocess
import sys
from itertools import islice
from pathlib import Path

import ekrlab
from ekrlab.bounds import certify_threshold_k1, certify_threshold_k2
from ekrlab.constructions import (
    ConstructionTrace,
    CountingOracle,
    ShrinkResult,
    TracedFamily,
    _consolidate_k2,
    _Refuted,
    certify_star_k1,
    certify_star_k2,
    shrink_core_k1,
    shrink_core_k2,
)
from ekrlab.family import Family, FamilyParams
from ekrlab.generators import complete_star, hilton_milner
from ekrlab.io import to_json
from ekrlab.masks import bit, full_mask, iter_ksubsets, mask_of
from ekrlab.oracles import ExplicitOracle, StarOracle, as_oracle, link
from test_constructions_adversarial import (
    LowBandStarOracle,
    PuncturedStarOracle,
    SplitStarOracle,
    SwitchingStarOracle,
    TwoStarOracle,
)


def _perturbed_star(n: int, k: int, seed: int) -> Family:
    """A seeded star with a few edges removed and a few off-center edges added."""
    rng = random.Random(seed)
    center = rng.randrange(1, n + 1)
    star = complete_star(n, k, center)
    edges = set(star.edges)
    for e in rng.sample(star.edges, rng.randrange(0, 3)):
        edges.discard(e)
    off = [e for e in iter_ksubsets(n, k) if not e & bit(center)]
    edges.update(rng.sample(off, rng.randrange(0, 3)))
    return Family.from_masks(star.params, edges)


def _minus(fam: Family, *gone: list[int]) -> Family:
    drop = {mask_of(g) for g in gone}
    return Family(fam.params, tuple(e for e in fam.edges if e not in drop))


CERTIFY = {"k1": certify_star_k1, "k2": certify_star_k2}
SHRINK = {"k1": shrink_core_k1, "k2": shrink_core_k2}
SHRINK_EDGES = 12


def golden_inputs() -> dict:
    """Input name -> (level, source, certify keyword arguments).

    Some oracles are stateful, so each call builds fresh ones."""
    cases = {}

    def k1(name, source, **kw):
        cases[f"k1/{name}"] = ("k1", source, kw)

    def k2(name, source, **kw):
        cases[f"k2/{name}"] = ("k2", source, kw)

    for k in range(2, 6):
        n = certify_threshold_k1(k)
        k1(f"star-{n}-{k}", ExplicitOracle(complete_star(n, k, min(k + 1, n))))
    star11 = complete_star(11, 3, 1)
    for i in range(0, len(star11.edges), 4):
        k1(f"star-11-3-minus-{i}", Family(star11.params, star11.edges[:i] + star11.edges[i + 1 :]))
    k1("hm-11-3", hilton_milner(11, 3))
    k1("hm-14-4", hilton_milner(14, 4))
    for seed in range(8):
        k1(f"perturbed-11-3-{seed}", _perturbed_star(11, 3, seed))
        k1(f"perturbed-14-4-{seed}", _perturbed_star(14, 4, 100 + seed))
    k1("two-stars-11-3", Family.from_masks(star11.params, star11.edges + complete_star(11, 3, 2).edges))
    k1("two-stars-oracle-11-3", TwoStarOracle(11, 3, 1, 2))
    for k in range(2, 65, 3):
        n = certify_threshold_k1(k)
        k1(f"star-oracle-{n}-{k}", StarOracle(n, k, 1 + k % n), seed=k)
    k1("punctured-11-3", PuncturedStarOracle(11, 3, 1, 5))
    k1("punctured-23-8", PuncturedStarOracle(23, 8, 3, 20), samples=500, spot=64)
    every = frozenset({"contains", "degree", "extension", "enumerate"})
    no_degree = every - {"degree"}
    for name, (n, k, low, high, zones, split, seed) in {
        "split-contains-9-2": (9, 2, 3, 7, [[8, 9]], {"contains"}, 18),
        "split-contains-11-3": (11, 3, 2, 9, [range(9, 12)], {"contains"}, 1),
        "split-extension-11-3": (11, 3, 1, 10, [range(9, 12)], {"extension"}, 2),
        "split-all-11-3": (11, 3, 1, 10, [range(9, 12)], every, 3),
        "split-all-14-4": (14, 4, 2, 13, [range(11, 15)], every, 4),
        "split-all-9-2": (9, 2, 1, 8, [range(7, 10)], every, 5),
        "split-all-16-5": (16, 5, 4, 3, [range(14, 17)], every, 21),
        "split-extension-16-5": (16, 5, 15, 6, [range(11, 17)], {"extension"}, 20),
        "split-straddle-16-5": (16, 5, 13, 1, [[8, 9, 10], [14]], no_degree, 8),
    }.items():
        oracle = SplitStarOracle(n, k, low, high, tuple(mask_of(z) for z in zones), frozenset(split))
        k1(name, oracle, samples=300, spot=64, seed=seed)
    for name, (n, k, first, second, trigger, seed) in {
        "switch-11-3": (11, 3, 7, 10, [7, 9, 10], 29),
        "switch-14-4": (14, 4, 13, 9, [11, 12, 13, 14], 38),
        "switch-9-2": (9, 2, 8, 7, [7], 43),
        "switch-11-3-cross": (11, 3, 3, 1, [3, 6, 7], 2),
    }.items():
        k1(name, SwitchingStarOracle(n, k, first, second, mask_of(trigger)), samples=300, spot=64, seed=seed)

    star232 = complete_star(232, 3, 1)
    k2("star-232-3", star232)
    k2("star-232-3-minus-1-2-3", _minus(star232, [1, 2, 3]))
    k2("star-232-3-minus-1-231-232", _minus(star232, [1, 231, 232]))
    k2("hm-232-3", hilton_milner(232, 3))
    for k in (3, 8):
        n = certify_threshold_k2(k)
        k2(f"star-oracle-{n}-{k}", StarOracle(n, k, 2), seed=k)
    k2("punctured-232-3", PuncturedStarOracle(232, 3, 1, 200))
    for name, (low, high, zones, split, seed) in {
        "split-all-232-3": (1, 231, [range(229, 233)], every, 0),
        "split-all-232-3-low-cut": (9, 15, [range(94, 233)], every, 2),
        "split-all-232-3-high-cut": (109, 229, [range(228, 233)], every, 32),
        "split-no-degree-232-3": (16, 106, [[231, 232]], no_degree, 23),
        "split-one-vertex-232-3": (156, 199, [[58]], {"contains", "enumerate"}, 22),
    }.items():
        oracle = SplitStarOracle(232, 3, low, high, tuple(mask_of(z) for z in zones), frozenset(split))
        k2(name, oracle, samples=300, spot=64, seed=seed)
    for name, (n, k, first, second, trigger, seed) in {
        "switch-232-3": (232, 3, 2, 125, [69], 46),
        "switch-242-4": (242, 4, 3, 1, [239, 240], 17),
    }.items():
        k2(name, SwitchingStarOracle(n, k, first, second, mask_of(trigger)), samples=300, spot=64, seed=seed)
    return cases


def golden_cases() -> dict:
    """Input name -> thunk returning the certificate."""
    return {
        name: (lambda run=CERTIFY[level], source=source, kw=kw: run(source, **kw))
        for name, (level, source, kw) in golden_inputs().items()
    }


def attempt(run):
    """The result of ``run()``, or the exception it raised."""
    try:
        return run()
    except Exception as exc:  # a refused input is pinned by its error
        return exc


def outcome(result) -> str:
    if isinstance(result, Exception):
        return f"{type(result).__name__}: {result}"
    return to_json(result)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest(run) -> str:
    return sha256(outcome(attempt(run)))


def without(text: str, keys: frozenset[str]) -> str:
    """The JSON report ``text`` with ``keys`` removed from every object in
    it, re-encoded; an outcome that is not a JSON object (an error) as it is."""

    def strip(value):
        if isinstance(value, dict):
            return {key: strip(item) for key, item in value.items() if key not in keys}
        if isinstance(value, list):
            return [strip(item) for item in value]
        return value

    return json.dumps(strip(json.loads(text))) if text.startswith("{") else text


# A change that moves a field of a pinned report pins each moved report
# twice: in full, and without the moved fields by the digest the report
# had before the change.  The cherry reductions of the k-2 shrink stopped
# asking again for the link their caller holds, so ``queries_used`` fell
# by one per reduction and every other field stayed.
QUERIES_MOVED = frozenset({"queries_used"})


def assert_pinned(outcomes: dict[str, str], golden: dict[str, str], before: dict[str, str]) -> None:
    """Each outcome's digest is ``golden``'s, and each outcome named in
    ``before`` has ``before``'s digest once its QUERIES_MOVED fields are removed."""
    assert {name: sha256(text) for name, text in outcomes.items()} == golden
    assert {name: sha256(without(outcomes[name], QUERIES_MOVED)) for name in before} == before


@functools.cache
def certify_results() -> dict:
    """Input name -> certificate (or error); computed once per process."""
    return {name: attempt(run) for name, run in golden_cases().items()}


def shrink_only_inputs() -> dict:
    """Input name -> (level, source) shrunk from its first edge only, with no certificate pinned.

    At (806,140), the k-2 shrink threshold, x is 135 and the first core
    of 140 vertices is carved by x+2 of its own vertices in phase 1."""
    return {"k2/star-oracle-806-140-first-edge": ("k2", StarOracle(806, 140, 1))}


@functools.cache
def shrink_results() -> dict:
    """Input name -> the shrinks (or errors) from the source's first
    SHRINK_EDGES edges, or its first edge for a shrink-only input;
    computed once per process."""
    out = {}
    inputs = [(name, level, source, SHRINK_EDGES) for name, (level, source, _) in golden_inputs().items()]
    inputs += [(name, level, source, 1) for name, (level, source) in shrink_only_inputs().items()]
    for name, level, source, count in inputs:
        edges = list(islice(as_oracle(source).enumerate_extensions(0), count))
        out[name] = [attempt(lambda e=e: SHRINK[level](source, e)) for e in edges]
    return out


def all_digests() -> dict[str, str]:
    return {name: sha256(outcome(result)) for name, result in certify_results().items()}


def all_shrink_digests() -> dict[str, str]:
    """One digest per input over its shrinks' outcomes, joined by newlines."""
    return {name: sha256("\n".join(map(outcome, results))) for name, results in shrink_results().items()}


GOLDEN: dict[str, str] = {
    "k1/star-9-2": "766d0a79fcf7711a1a0d1e3fe0ffa73e14e0c60ad745662ff8c83cb3b82fc081",
    "k1/star-11-3": "54b6487106fd4993cf508a7a0fb44064be16ee1535d42bf03ffddd0a21b86d93",
    "k1/star-14-4": "d552337e0cbef79dffefc4fb824ab8d5806bcf7436b71e1b401541c64afe9396",
    "k1/star-16-5": "cb41a57dbd68140452b250ea20bf5903079fe14f5148158d5d2915f3decbd88c",
    "k1/star-11-3-minus-0": "5bc20601c1cae1821212ab890c4af585bf9c39444a6e037e5edc43d25d3a71c9",
    "k1/star-11-3-minus-4": "05cc3bce0e55a7f507116c5d6d72712e6b4bc6473f9ffc0a554de8c8c2b283ad",
    "k1/star-11-3-minus-8": "1e05b14d01f96e935882ba4f803e98fbe72d86e1149f44db8e9b34f24a37ddf8",
    "k1/star-11-3-minus-12": "49c635111055a90a0254cc0a94111cc8520c86211badc2db39e5b9a280cc3d0a",
    "k1/star-11-3-minus-16": "9d66aca2ea3257ca2e2e3c565009d23e3153bb027157b65a23284d68e99a16c5",
    "k1/star-11-3-minus-20": "5ed2fc82e204c16e85e8361e6282548fbc5b47db0c8afe4946f69b2a11e4cace",
    "k1/star-11-3-minus-24": "36bcbd080f28826170988a958d2e755d1ac9c73fad7996b465583612aaf66f35",
    "k1/star-11-3-minus-28": "ded84b4d0745c843909cecdc1277fc3e126893a041e484805313a73641cc1ffc",
    "k1/star-11-3-minus-32": "95d1691cf82abab1b09b0661bb42f142a5046cf257356a5bf7666a118253da3a",
    "k1/star-11-3-minus-36": "5543583594fabfd5dda6cb46217e6642b9c7e805976dabc0f200d856b83a146a",
    "k1/star-11-3-minus-40": "4a97d230a9932a0e9818b87be59bd74ed9d4ce7b382c698bd5d57b3725339e31",
    "k1/star-11-3-minus-44": "71bd378c1627e34d6a8c099e234a78ed0183283b1bd9e68e3cad17ed37edd67b",
    "k1/hm-11-3": "dbba04041191f17aa714e0fb6a7aa2a9f105d29c3de9df0cf94854d14101728f",
    "k1/hm-14-4": "9359fc20c67bdc9a3d677759ea7ef695aae55bc89a0766c5635538292d905ef3",
    "k1/perturbed-11-3-0": "1cd0f16c2f1c9c04da0888fa38c0be46a2db8ded2a2d08885f698632f561dfa7",
    "k1/perturbed-14-4-0": "2882a857e0f0902c627aff8899f991395529c0dd4e752bddee281014689d5de1",
    "k1/perturbed-11-3-1": "57e292c4e022e98b9cb08d34c13903f85cc398e4fc6147ed900717fc28f45208",
    "k1/perturbed-14-4-1": "219edf2d524e1faa526fa80ae251c1150fd9e480032ca86182e00c0678f886af",
    "k1/perturbed-11-3-2": "2c7488431ae45adc588dd366b697b84468552e97794c61512c6a827b4e8f4c69",
    "k1/perturbed-14-4-2": "fd8a2f46058fcd84778bc3033c0f6c65267c8870c02d6c8c84a8dbe49db0c532",
    "k1/perturbed-11-3-3": "be1b49aa8b5230289c0b4f6689f17fa962ba265b9b66855b4469b1e332de7aa6",
    "k1/perturbed-14-4-3": "560c1dd85631bd0fb8164ba647db4517f6e72aa3ed0ec06ddda7c6346f99899f",
    "k1/perturbed-11-3-4": "61df21e2b7ca23c193835beae9a303648bd05c888d436e1ebdf78c9f41eda71b",
    "k1/perturbed-14-4-4": "657c269dd631adc81abd15cf8f285df9f60f1944676c1d69ff08e9bdcaf1a1bc",
    "k1/perturbed-11-3-5": "b3cc69f222c16c172091c73a6a74036c6b58b32a3a37274f468f7a6150801448",
    "k1/perturbed-14-4-5": "43abab83c45aba319e8a1a8bc3e30aa5a20fd593d59410c6752af4874ee84b88",
    "k1/perturbed-11-3-6": "8c6c9f0e21e39b6e49def73212b546091ce0329bf7202c28119b63862a308444",
    "k1/perturbed-14-4-6": "def99eb29c5ed2e82c4f97e9c8db27fae83b0f99716a4184625b44eca43746ee",
    "k1/perturbed-11-3-7": "6590af7413878fc2445fb775c6909d66402655d1b49e06e6bacf681e673077c2",
    "k1/perturbed-14-4-7": "0b8c08a5b25bd19710d08886ae79a268d84e4b343d927ef7c07098d1deee9232",
    "k1/two-stars-11-3": "c52e09e3ca819ffc7b917c36b9590a068b08e26428c3025908a834a5a0a90847",
    "k1/two-stars-oracle-11-3": "1b96670b86f2cb8c738a5aea9715a46a3c236252496b7ad493e700c113aeef9a",
    "k1/star-oracle-9-2": "c6abfe135274ec21d3d6b15ac25f2c345c9ee149aa0bfad3bdf2de4a20d195bd",
    "k1/star-oracle-16-5": "1d31bc460bab99071507ad195e4db78c1509a83af32d7c6fd852a9a488038a93",
    "k1/star-oracle-23-8": "8669e2a46614bdb21d5280b265ef8dc5270005c5884ce6066acdc921b74e85af",
    "k1/star-oracle-30-11": "480300647d98e29d9c2898bbfd0d83478917a0d5e8e3e4c1f4e43563bc23b326",
    "k1/star-oracle-36-14": "48559e684d279848d18fece823e992f13bb3b387a17e8b7cbff4538b79d2a273",
    "k1/star-oracle-43-17": "201f014ea2fc14c9851e204832e369b014a4ad80252f4fd8126ce7aecd7b0248",
    "k1/star-oracle-49-20": "c5b0cb967fc4b179e1b0d03f7a9bcf5f9428bdd567d5efa4cecac14e53e98ed0",
    "k1/star-oracle-56-23": "8936d570cc71af6fe6c54507810c1ae61b21ed74a4df9fd55d7dbd5746de29bc",
    "k1/star-oracle-62-26": "1af895d7606d42f630048c4c7926cfdcc6be67f98338aaff40cdf985e99edfe9",
    "k1/star-oracle-69-29": "6cce0522a2422920cf78ab1b27a13d47573d26471dbd5486ac121800d8453ccd",
    "k1/star-oracle-75-32": "1e4d3942b23602adee712875258d177c47021f10dea3dc28635c653ce8aa8011",
    "k1/star-oracle-81-35": "b86a1cf5bf83f05bcfbd50a03efddaf55fa5c2a53076e0f8f49162873fe478cb",
    "k1/star-oracle-88-38": "b0cf6f0e6abdfe28a56222be9095952cfc635e9617792056244a9e50a6d651cd",
    "k1/star-oracle-94-41": "75b7a5e59017b48bd0cf238a37e6b47750eb5a9d7ccec9375219e980053dd21f",
    "k1/star-oracle-100-44": "e705e2c9d19cd5da748bc42a326deba8501c9883c651704339d67f8b838dac65",
    "k1/star-oracle-107-47": "8538c6f20c08d12548acb73a8f8cb04c8f3e69a7915b431ca09ba2c38160c930",
    "k1/star-oracle-113-50": "fa5b75ed92618e824133341d028d3207a6e0d0adb4d09e654bc68c9e28e6114b",
    "k1/star-oracle-119-53": "cb2c77f6735dea41fcd40a820aba45fcae7a8bd3e07c605b0070d3e02d53da8b",
    "k1/star-oracle-126-56": "966f7a581bdb547a3f3c4813cd4aa729f919a3208726575e76bb1129d4a3d07d",
    "k1/star-oracle-132-59": "7126fdae2038e26b4488511fb0c84b04d336d246a419e4c5e0e42a14c841c6fc",
    "k1/star-oracle-138-62": "68e4face380c31522ad481fadb2b107465263ae290d1da7c9796e13310b6d1f3",
    "k1/punctured-11-3": "104e5c4b7c7ffc73720d8846aeab0d06a770435847b83b42f6764db81509c898",
    "k1/punctured-23-8": "6b58c61a4165f970370df993eb13bee937650579fc2490c6649f122db63ae7e4",
    "k1/split-contains-9-2": "0a01c2bdf6b1b34de8691f02e891b85964ec79697382d34471150c48cb64b210",
    "k1/split-contains-11-3": "511039b11a4a9540f6ccc993294417eebf1c972c29bc3fa5234cd0354df711d3",
    "k1/split-extension-11-3": "cac32aad50233fe254062a973fd5c785294344240315756a689c50d3fb5b7fd6",
    "k1/split-all-11-3": "2421103f68921b52ee0f00a084ef5913d3c1fdc2e5d97c8ffa84c691fd7fe648",
    "k1/split-all-14-4": "6becf5e85bbf8a8ce3e64a1d7588a947fbf45418167dbb721b20c071898147ac",
    "k1/split-all-9-2": "75dc70c66a358e384707955f2f6438b27048f4bfe976bef14e1bc5796bc72d1b",
    "k1/split-all-16-5": "05de6a197f3df767bdc0f94cade0f0e3099c591558458419d0b97f95e1d7b59d",
    "k1/split-extension-16-5": "9f12f2e34e69ba82f695c5393ede05041e748ecc685540e0915c6189b6bd3494",
    "k1/split-straddle-16-5": "a7b6e71f33f97d2880fc2b187ea4282defd6b9b1362af61eab96a10330eeed12",
    "k1/switch-11-3": "f1c5dadc9042a00e4ec27ce1ebaa81a32a4c30750c6874f377b28c10d3921cec",
    "k1/switch-14-4": "37b4481a00c079830ca1d43cbc2b91dec00291f9e33547af72a98cee22a9a72d",
    "k1/switch-9-2": "6c8bf0e9e6fe7ce8ba0f54b7b6b7dc7f5354f5c74262b49beb32297396f55aad",
    "k1/switch-11-3-cross": "a560e3daa7a9a72cf16c2fc8ec62775ed3cc482b26f89e022f9656c90c1e023a",
    "k2/star-232-3": "2bda0f49b37a547c3d0a4f60d280d7a6388324ba5eadfc1a55e671b00fd01136",
    "k2/star-232-3-minus-1-2-3": "d76293e90fd368fbcdad1c15cdb88c347bb8db8c56cf452af0788f610cb38d2a",
    "k2/star-232-3-minus-1-231-232": "59109439e483d73c7ab092fd296f7beb39bd77d39b59a59fbb5bc4d40a2b6c9a",
    "k2/hm-232-3": "075fbc2bf9d7bb9f98959939adbdc8f57ec41a26d992aeaf3ff67f39fb4711dc",
    "k2/star-oracle-232-3": "4b3fbe82b20d8019b116852601eeb1fef070d3250e1176b0cd169892d5f7311d",
    "k2/star-oracle-274-8": "cbdb08b71e7f021453fcdc0f9be6f6a1350dbd02779147dc6d8b0f65d4fb11cd",
    "k2/punctured-232-3": "00fe66f27f5bf9de92175300ddf605d0778b207154071499a14806adc01b89b5",
    "k2/split-all-232-3": "7906fb923cbd5cf5a4232183519732c4e8fcc705bc201b19bb184b1cc615a069",
    "k2/split-all-232-3-low-cut": "efdd2a6d719640c8fc13c4f04ef86785e5f52f97d1d1ada3b1c84d0669d67bab",
    "k2/split-all-232-3-high-cut": "0a85ae2bbea7fa492e2a93355f0b42176d61d6d4574c6592f0c72d9a0c2b00c4",
    "k2/split-no-degree-232-3": "5ecbe46f4f5ff194cefe833b37290e87acb272af49633d37e94eb9e8710bfa6b",
    "k2/split-one-vertex-232-3": "b3cd762e78ea0cfbdc64c4bd00426d673a3333db4e82dbe0c0bb25c999962edc",
    "k2/switch-232-3": "99eb2c6c457a790b62fd9d155c779f2e0c03e794e9e92558c3db1e0e20751d11",
    "k2/switch-242-4": "7c70a72880c5090996452208a6fe8a1701f89ddf11a76c9ae7b5a2f9b94b3868",
}


SHRINK_GOLDEN: dict[str, str] = {
    "k1/star-9-2": "543972c11ef774641be542abe2beb977845eeae71444b4fcef0c65aa7d9a6041",
    "k1/star-11-3": "c703c40b7f2d6bf572d7008a621988fc8eb0b71f38b58cace56c09357d9a6c2a",
    "k1/star-14-4": "774c887676d245bcd766a1e07d7d73fc47dd24d6f18d359ff91d555ae56ecab1",
    "k1/star-16-5": "57d5fd7dfe137f0c5adef786e6d8b62feee2794218d21f393b0077f95d3b45cb",
    "k1/star-11-3-minus-0": "5275bd44eb3b8d8cfc8d58b89ca04d09fc786038eae55ee6a759522a6b591d3c",
    "k1/star-11-3-minus-4": "950f7751b3a659d8d48cd3871fe08e76f939b6928d701bd6f7cfa650a015cbf3",
    "k1/star-11-3-minus-8": "8abf4fca26de406487856d4519570df120596730d67f3562095882bac0027995",
    "k1/star-11-3-minus-12": "5193ef57c1e626b3fdefa72b516eace3e5e9cad2609559dd84d255856fc31750",
    "k1/star-11-3-minus-16": "5193ef57c1e626b3fdefa72b516eace3e5e9cad2609559dd84d255856fc31750",
    "k1/star-11-3-minus-20": "5193ef57c1e626b3fdefa72b516eace3e5e9cad2609559dd84d255856fc31750",
    "k1/star-11-3-minus-24": "5193ef57c1e626b3fdefa72b516eace3e5e9cad2609559dd84d255856fc31750",
    "k1/star-11-3-minus-28": "5193ef57c1e626b3fdefa72b516eace3e5e9cad2609559dd84d255856fc31750",
    "k1/star-11-3-minus-32": "5193ef57c1e626b3fdefa72b516eace3e5e9cad2609559dd84d255856fc31750",
    "k1/star-11-3-minus-36": "5193ef57c1e626b3fdefa72b516eace3e5e9cad2609559dd84d255856fc31750",
    "k1/star-11-3-minus-40": "5193ef57c1e626b3fdefa72b516eace3e5e9cad2609559dd84d255856fc31750",
    "k1/star-11-3-minus-44": "5193ef57c1e626b3fdefa72b516eace3e5e9cad2609559dd84d255856fc31750",
    "k1/hm-11-3": "b225731877c4feff6d400884ce440ebb2cca9e94fada2bc5b4309ca7fdec3d09",
    "k1/hm-14-4": "e19f34c0ca8bf22e39c7652a9f600edf7a6407c8430c3654d5adcc2065fc641f",
    "k1/perturbed-11-3-0": "a672e03517e3d3f054d739229861e0cbaf5785c4c229a28c2e92d994f9f19ed2",
    "k1/perturbed-14-4-0": "33ccedd69f3597aa4ce46fa312aced31eb83eb312741388d99f4187f5453b27a",
    "k1/perturbed-11-3-1": "4b1baaaf6332d33572eaa364ff09a838c0ef13cae6cdac3c35d96900dc221034",
    "k1/perturbed-14-4-1": "4ccb6406514cfb6ffa06b410d2442d04ed96a3698b1eef81c8c79668b8c4b0bd",
    "k1/perturbed-11-3-2": "5193ef57c1e626b3fdefa72b516eace3e5e9cad2609559dd84d255856fc31750",
    "k1/perturbed-14-4-2": "33ccedd69f3597aa4ce46fa312aced31eb83eb312741388d99f4187f5453b27a",
    "k1/perturbed-11-3-3": "c4adb6d373140b408d178f1b37d6812d858535f9d60d9dbf89565c1f3be6d534",
    "k1/perturbed-14-4-3": "ae534419fd16d47aa1d05eda95b4f41c26a03e36cdfe996849b2bda411a7c2be",
    "k1/perturbed-11-3-4": "0225d543b75546e7782d8f6f2111e688589ac08bdadceb00e0a477019e1f5b20",
    "k1/perturbed-14-4-4": "dcd85802ac016658320b78fc0fdeec1a686b69a3ba5e05d1867ccf1d59d0f4f8",
    "k1/perturbed-11-3-5": "601e2c7ca09a445ce82877bb36bab81879dd25015db990b5eae21baa48c6cf71",
    "k1/perturbed-14-4-5": "4ccb6406514cfb6ffa06b410d2442d04ed96a3698b1eef81c8c79668b8c4b0bd",
    "k1/perturbed-11-3-6": "601e2c7ca09a445ce82877bb36bab81879dd25015db990b5eae21baa48c6cf71",
    "k1/perturbed-14-4-6": "e1c87e3006c245b978db86a95f4fe3c18225ad1fc31e21ed109ab87cf66390e5",
    "k1/perturbed-11-3-7": "d3abc8750bf732448424b139c420aa728feef8d5e93fc2ad8ce54f831f7e5c0a",
    "k1/perturbed-14-4-7": "e3260ed5daaacf1e8f50b6fc1f8020ba7c05ed5548e7b11ddb1f24d92ec3bf6b",
    "k1/two-stars-11-3": "1c7a4b412d805a3534d703072f6f3b7b2575179f8b593d29a7518a9bdc136d66",
    "k1/two-stars-oracle-11-3": "5193ef57c1e626b3fdefa72b516eace3e5e9cad2609559dd84d255856fc31750",
    "k1/star-oracle-9-2": "543972c11ef774641be542abe2beb977845eeae71444b4fcef0c65aa7d9a6041",
    "k1/star-oracle-16-5": "57d5fd7dfe137f0c5adef786e6d8b62feee2794218d21f393b0077f95d3b45cb",
    "k1/star-oracle-23-8": "339c3012375f95499f8ee2630bd2241526e3c3cd2b9a7e972a7a4554e85f5941",
    "k1/star-oracle-30-11": "cbe38094b9d18ebb13adfa4c75a48bff8201cf13e4878d78eda18226b190144c",
    "k1/star-oracle-36-14": "43c738534c10e88f0e6b8934528bb832ca44cb8122dedae75a79d27f67ec868b",
    "k1/star-oracle-43-17": "df10040cd4be3293e5dddd31183428f477e35bbd6ab39cc2c2babb55a17e4313",
    "k1/star-oracle-49-20": "0568cdd5fec2df3205b9d34676db7b87b84a187adab52748482365c13865ea6c",
    "k1/star-oracle-56-23": "e14b7c9c9effbf42471e09bd8c364b14f6699ff1b3bc53633656dd782e301429",
    "k1/star-oracle-62-26": "77a22fa1a4143082fd24bbf66a4d9705acfe1c54016439e6001d4f39cf061261",
    "k1/star-oracle-69-29": "ce99ffff0a20370d9c7a81ff421dee77300ce28ece17881295217b471919834e",
    "k1/star-oracle-75-32": "24940e8b2209294c1ba769cb4ac82541bd1aeec33e4100d4806d97515884a43e",
    "k1/star-oracle-81-35": "cc74f29aceab63ff846d50c6ebed9e19c6144fc7d0d9c201487ab47429f5f223",
    "k1/star-oracle-88-38": "5199b369ab7747cab7162dda4742becc9e6f7e37f45772b1ea637a5ae7ae0c96",
    "k1/star-oracle-94-41": "45904efda051e870957baf4f6029ea7027e4ad19a6862a8718f9a5a712ad5400",
    "k1/star-oracle-100-44": "dcf391fecfe254885598e6f2ddc019e8b9053d96afc5adfed2353ab89fc45ec3",
    "k1/star-oracle-107-47": "54c91a1d7259e0d96abfc9b2d2c20524694860e0c1c2af592247c1f822622180",
    "k1/star-oracle-113-50": "110baaaab6c6f06aab95030163b31d69a428e4d16e6c1f27ddea28f432d56d3a",
    "k1/star-oracle-119-53": "1a429a4f28a4dc5ad044bdc4ef1e700329ffe32c520b406286ab902fd2cb644c",
    "k1/star-oracle-126-56": "83d77b869b104c25763ae6b2cfdd5e3cb7f3eafa778acdfd6aeb9be7d8c1d35a",
    "k1/star-oracle-132-59": "f445653059f52a27dec6f75b0a5f53b269afef2a7d73e41ca0ecb6aedd2b3800",
    "k1/star-oracle-138-62": "0efc04e74cb523c343195ba1ff657c1897d8d9185f70d53447d776ec84371091",
    "k1/punctured-11-3": "e97daa3bd6363b240d7a78314b9468b8e975cc09a1229c4fb7739c4914bba38f",
    "k1/punctured-23-8": "23ee440faa72569dbbf8feac0e780553d029f73946333152c5d0a465ee7b8e2d",
    "k1/split-contains-9-2": "1cc63630dc0dd1978fccfba5713d973aa3a9228ecb41112595af917a5e6d5b82",
    "k1/split-contains-11-3": "1aabfd0f42f2cabcaf20c2a5c816042d4f82324d73ad84ff1141627b2f9ba38d",
    "k1/split-extension-11-3": "5193ef57c1e626b3fdefa72b516eace3e5e9cad2609559dd84d255856fc31750",
    "k1/split-all-11-3": "5193ef57c1e626b3fdefa72b516eace3e5e9cad2609559dd84d255856fc31750",
    "k1/split-all-14-4": "da18e0fa0cb7691870f0feb4f04814bc86842dfabe860a7677df048833de348d",
    "k1/split-all-9-2": "0edcf7709d84571990246495986f87423c8e883a765316ac27f4af9b324f6373",
    "k1/split-all-16-5": "e7c5b131cce8e267780894e8aec11534546116b7f2b56660b66baad14cfe281f",
    "k1/split-extension-16-5": "c2b1ddf9170f4860e5ca0caf813c6ce66b47edbb83908f4f4e30e05491eb7090",
    "k1/split-straddle-16-5": "b998120bb245bf626ac019c10ca72badb813864b335f8292dad12a19c178c9f1",
    "k1/switch-11-3": "a94384b33f00f8f38c457a8c429c4dc1057775fd380123e6d2785074ad7663d0",
    "k1/switch-14-4": "9d21f7da64198b82d5fd7ec6baf1d79a7829cff4beea6b2d5959539f3e5cfd64",
    "k1/switch-9-2": "aa3236dc312ee31029336aae7754adda2dd2040ce3b708bf3aa9824852bdfee9",
    "k1/switch-11-3-cross": "91d0b04a87603d383b7332988823801cbeb723418bf311b8a10c90d1e7a7d396",
    "k2/star-232-3": "7ca5615e1839c74fd47764102928b4135735f3285ffc50a6d5e86077f50a5b6a",
    "k2/star-232-3-minus-1-2-3": "ab40af2356e76efddcd1e6986a6ae6fcf9a3aacc6450111ee8c4a95785961e0c",
    "k2/star-232-3-minus-1-231-232": "7ca5615e1839c74fd47764102928b4135735f3285ffc50a6d5e86077f50a5b6a",
    "k2/hm-232-3": "b41d944f7f1b931eff0936ffa2300efeb0935f8676a1d73ac39f57e714de82c4",
    "k2/star-oracle-232-3": "1d89e43ceee2f02ec2e8220023a9c64e00dd75c716d9762837c0b36bcc5bd305",
    "k2/star-oracle-274-8": "e5c113b12dfca797ff288f31a814ff70f60cbb2ddecbb272b9639f3f151daf50",
    "k2/punctured-232-3": "1122b674eb9f801011af49284d85d9c261f4be60572090da93f1a13a32249305",
    "k2/split-all-232-3": "7ca5615e1839c74fd47764102928b4135735f3285ffc50a6d5e86077f50a5b6a",
    "k2/split-all-232-3-low-cut": "73f6668541cb3d340a4ea69bd098a57788d2ce1e83ea37d41e88885770cb4d42",
    "k2/split-all-232-3-high-cut": "2595a0dd1a907d560e3b25380adeef1f0a92773d7d68e035aa4c49f4e4d0f853",
    "k2/split-no-degree-232-3": "098e8677ba61481006a7ec6b603f992b5f1110581526936be662be054cc46918",
    "k2/split-one-vertex-232-3": "67453472d9dd08160d730522ea7cdd274b926cbdfd1b2783d8aec85171bea960",
    "k2/switch-232-3": "1d89e43ceee2f02ec2e8220023a9c64e00dd75c716d9762837c0b36bcc5bd305",
    "k2/switch-242-4": "06f6fccf3e6b0e6dbe0b57d33c367061d92306d3c0fd0dece88c84f8e0cf33d9",
    "k2/star-oracle-806-140-first-edge": "66e0875fe49ad79b8a925af9bd5439fffa91ca021bc32d08ee8574d8a15fbfdb",
}


def test_digests():
    assert all_digests() == GOLDEN


def test_digests_under_optimize_flag():
    src = str(Path(ekrlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-O", __file__], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    consolidation = {**CONSOLIDATION_GOLDEN, **DIRECT_CONSOLIDATION_GOLDEN}
    assert json.loads(done.stdout) == {"certify": GOLDEN, "shrink": SHRINK_GOLDEN, "consolidation": consolidation}


def test_shrink_digests():
    assert all_shrink_digests() == SHRINK_GOLDEN


def test_trusted_families_pass_validation(monkeypatch):
    # every family built unchecked (merged shrink subfamilies, cover-pair
    # families, links) on the golden certify, shrink and link inputs is
    # one the validating constructor accepts, equal field for field
    made = []
    trusted = Family._trusted.__func__

    def spy(cls, *args, **kwargs):
        made.append(trusted(cls, *args, **kwargs))
        return made[-1]

    monkeypatch.setattr(Family, "_trusted", classmethod(spy))
    for level, source, kw in golden_inputs().values():
        attempt(lambda: CERTIFY[level](source, **kw))
    for level, source, _ in golden_inputs().values():
        for e in islice(as_oracle(source).enumerate_extensions(0), SHRINK_EDGES):
            attempt(lambda: SHRINK[level](source, e))
    for _, source, _ in golden_inputs().values():
        p = as_oracle(source).params
        for base in (full_mask(p.k - 2), full_mask(p.n) ^ full_mask(p.n - p.k + 2)):
            attempt(lambda: link(source, base))
    assert {type(fam) for fam in made} == {Family, TracedFamily}
    for fam in made:
        assert dataclasses.replace(fam) == fam


# Sources that answer as one family; split and switching oracles answer
# like no single family, so a witness against them need not re-verify.
SINGLE_FAMILY = (Family, ExplicitOracle, StarOracle, TwoStarOracle, PuncturedStarOracle)
WITNESSES_CHECKED = 73  # certificate and shrink witnesses from those sources


def test_single_family_witnesses_verify():
    # every certificate and shrink witness behind the digests above
    # re-verifies against a freshly built copy of its source
    checked = 0
    for name, (_, source, _) in golden_inputs().items():
        if not isinstance(source, SINGLE_FAMILY):
            continue
        for result in (certify_results()[name], *shrink_results()[name]):
            violation = getattr(result, "violation", None)
            if violation is not None:
                assert violation.verify(as_oracle(source)), (name, violation)
                checked += 1
    assert checked == WITNESSES_CHECKED


# The k-2 shrink's final consolidation (after every part pair is
# reduced) is reached by no GOLDEN input.  Two-star unions reach it: the
# shrink from the first edge and the certificate are pinned on each.  At
# (230,3) the certificate is refused by the n threshold; at (232,3) the
# consolidation also merges the covers of a reduced pair into its union,
# and with the centers 2 and 7 that union moves the consolidation's base set.
CONSOLIDATION_GOLDEN: dict[str, str] = {
    "shrink/two-stars-230-3-1-2": "ada383cdd3bce2ecf0361d9c7219a24d06c97c640674ca90e7d3d81db74db930",
    "certify/two-stars-230-3-1-2": "6591f4d2fce54a5851f3d53bf76796e2fd7a6e1abe9fe1a60b30be975ee25ec3",
    "shrink/two-stars-232-3-5-9": "18a1ab0fab16c6d7e29a9ea6fb2725dd9ec6f91f3af57338df960f4061b84c72",
    "certify/two-stars-232-3-5-9": "554f3d83bd7d450da7a3547a3456f102006385be3fdd478f5902225b358daf9c",
    "shrink/two-stars-232-3-2-7": "3cf67c6aa5d4ddb880ec87e68d3a152fc7f1b2229817f86a783362659ecbb021",
    "certify/two-stars-232-3-2-7": "c41766b1dca2aa63bae25cc2f094e7e70d308e40d830d6bbb51656f94abafadb",
}
# without queries_used: the digests before the cherry reductions reused their link
CONSOLIDATION_BEFORE: dict[str, str] = {
    "shrink/two-stars-230-3-1-2": "8f4261a1d11eb2727c0277e52b15545f575f6a3af8b7994a623864a03261f31b",
    "shrink/two-stars-232-3-5-9": "ff1067dd9dbab25014f50071bf1b99bfd206e20c60faaea8e0a7de7f9592153b",
    "certify/two-stars-232-3-5-9": "b0977446594aeab1e2e05b40166255074e3fc9852210ec908a033f1f7b8a3cfc",
    "shrink/two-stars-232-3-2-7": "b6781c278e1d1216ef597d4aa5bc0fcb23ffaee41aa3f90f870a6b111d51286b",
    "certify/two-stars-232-3-2-7": "78b82702266c464874a7bfc769dacb3f79f8004ffbbb9603bbc0706b2b2dba2d",
}


def _shrink_from_first_edge(oracle):
    return shrink_core_k2(oracle, oracle.first_edge())


def consolidation_outcomes() -> dict[str, str]:
    """The outcomes of the shrink from the first edge and of the certificate, per two-star union."""
    got = {}
    for n, a, b in ((230, 1, 2), (232, 5, 9), (232, 2, 7)):
        name = f"two-stars-{n}-3-{a}-{b}"
        got[f"shrink/{name}"] = outcome(attempt(lambda: _shrink_from_first_edge(TwoStarOracle(n, 3, a, b))))
        got[f"certify/{name}"] = outcome(attempt(lambda: certify_star_k2(TwoStarOracle(n, 3, a, b))))
    return got


def test_final_consolidation_digests():
    assert_pinned(consolidation_outcomes(), CONSOLIDATION_GOLDEN, CONSOLIDATION_BEFORE)


# Direct calls of the final consolidation (``_consolidate_k2``) reach each
# of its outcomes.  Every call starts from one context on {1..12} with the
# parts below and v = 1: four edges through 1 whose only size-two cover
# avoiding 1 is {2,3}, so the consolidation queries {4}.  Each oracle
# contains the context: the star at 1 (the link of {4} is a star at v), or
# the star at 1 with the edges through 4 replaced.  With a link of {4}
# that is a star at 3 the input is refuted.  A non-star link {1,2}, {1,3},
# {3,z} (z >= 5) keeps {2,3} a cover after the pattern reduction, so the
# second query set is {4} again and the input is refuted; adding {1,5}
# breaks the cover, and the second query set {2} extends through v.
CONSOLIDATION_PARTS = tuple(mask_of(part) for part in ([2, 3, 4], [5, 6, 7], [8, 9, 10], [11, 12]))
CONSOLIDATION_CONTEXT = TracedFamily(
    FamilyParams(230, 3), tuple(mask_of(e) for e in ([1, 2, 5], [1, 2, 6], [1, 3, 7], [1, 3, 8])), full_mask(12)
)


def _star_rewired_at_4(through_4) -> ExplicitOracle:
    """The star at 1 on (230,3) whose edges through 4 are ``through_4``."""
    star = complete_star(230, 3, 1)
    kept = [e for e in star.edges if not e & bit(4)]
    return ExplicitOracle(Family.from_masks(star.params, kept + [mask_of(e) for e in through_4]))


def consolidation_oracles() -> dict:
    beyond = [[3, 4, z] for z in range(5, 231)]
    return {
        "link-star-at-v": StarOracle(230, 3, 1),
        "link-star-away-from-v": _star_rewired_at_4([[1, 3, 4], [2, 3, 4]] + beyond),
        "cover-kept": _star_rewired_at_4([[1, 2, 4], [1, 3, 4]] + beyond),
        "cover-broken": _star_rewired_at_4([[1, 2, 4], [1, 3, 4], [1, 4, 5]] + beyond),
    }


def consolidate(oracle) -> ShrinkResult:
    co = CountingOracle(oracle)
    trace = ConstructionTrace()
    try:
        sub, cover_vertex = _consolidate_k2(co, CONSOLIDATION_CONTEXT, CONSOLIDATION_PARTS, 1, trace)
    except _Refuted as refuted:
        return ShrinkResult(None, refuted.violation, trace)
    finally:
        trace.queries_used = co.queries
    return ShrinkResult(sub, None, trace, cover_vertex)


DIRECT_CONSOLIDATION_GOLDEN: dict[str, str] = {
    "link-star-at-v": "3ec7d4318ad37710f142adfdc13038e6126247a4d814a7df85759b5b52f95423",
    "link-star-away-from-v": "20a48c05c088e5934eac3c139bd85315a948024ba5f5e5cc06cfade41c37e2a0",
    "cover-kept": "9f75eef5619a8b7004bca08ca33887d0b28c5866b9b7ebdd64d6454ae26daf12",
    "cover-broken": "ff60fd699be0c2699ebae07e2e59fc418c1cf2457da99660b419fa75a19338cd",
}
# without queries_used: the digests before the cherry reductions reused their link
DIRECT_CONSOLIDATION_BEFORE: dict[str, str] = {
    "cover-kept": "4f057d70c2c937080e3a84eda36b05428c27f7fadb01639c4b5cbfb92daeb9ee",
    "cover-broken": "27f6194e9c2fa6e531a4e77a6412f8a31390eee6b018da1f02d093285ac5884a",
}


def test_direct_consolidation_outcomes():
    got, shapes = {}, {}
    for name, oracle in consolidation_oracles().items():
        result = consolidate(oracle)
        if result.ok:
            head = (result.cover_vertex, len(result.subfamily.edges))
        else:
            assert result.violation.verify(oracle), name
            head = (result.violation.to_dict(),)
        # (cover vertex and edge count, or witness), trace steps, queries
        shapes[name] = (*head, len(result.trace.steps), result.trace.queries_used)
        got[name] = outcome(result)
    assert shapes == {
        "link-star-at-v": (1, 14, 1, 1),
        "link-star-away-from-v": ({"kind": "disjoint-edges", "first": [1, 2, 13], "second": [3, 4, 5]}, 0, 2),
        "cover-kept": ({"kind": "disjoint-edges", "first": [1, 2, 13], "second": [3, 4, 5]}, 1, 3),
        "cover-broken": (1, 8, 2, 2),
    }
    assert_pinned(got, DIRECT_CONSOLIDATION_GOLDEN, DIRECT_CONSOLIDATION_BEFORE)


# The k-2 final check's sampled degree test on an oracle (not an explicit
# family) refutes on no GOLDEN input.  A star whose degree answers fall one
# short on the (k-2)-sets of a band of top labels reaches it.
SAMPLED_LOW_CODEGREE_GOLDEN: dict[str, str] = {
    "certify/low-band-232-3": "26f9322ead9ab3f70fa9ae63fab13694925686e3a08325833d8b72d9fc984af5",
    "certify/low-band-242-4": "444a637944cf670ea596853d6ab59bf614e4fa480522be586d205fffd5b573df",
}


def test_sampled_low_codegree_digests():
    got = {
        f"certify/low-band-{n}-{k}": digest(lambda: certify_star_k2(LowBandStarOracle(n, k, 1, range(n - 3, n + 1))))
        for n, k in ((232, 3), (242, 4))
    }
    assert got == SAMPLED_LOW_CODEGREE_GOLDEN


if __name__ == "__main__":
    consolidation = {name: sha256(text) for name, text in consolidation_outcomes().items()}
    consolidation.update((name, sha256(outcome(consolidate(oracle)))) for name, oracle in consolidation_oracles().items())
    print(json.dumps({"certify": all_digests(), "shrink": all_shrink_digests(), "consolidation": consolidation}, indent=1))
