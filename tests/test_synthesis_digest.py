"""Golden digests of trace synthesis.

The simulation goldens lock synthesis only indirectly, and only for the
apps they run. These digests pin the raw ``build_core_trace`` columns —
``kinds``, ``addresses``, ``values``, ``args`` and ``blocking`` — for every
application profile, so a change to the generator's RNG draw order, its
address arithmetic or its column types fails here, per app, before it
reaches a simulation digest.

Regenerate deliberately with ``python -m tests.test_synthesis_digest``
after an intentional generator change.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.workloads import APP_PROFILES
from repro.workloads.generator import build_core_trace

CORES = 16
MEMOPS = 200
TRACE_SEED = 7
#: The first and last core: the per-core RNG split and the per-core
#: address regions both depend on the core index.
CORE_IDS = (0, 15)

GOLDEN_SYNTHESIS_DIGESTS = {
    "barnes": (
        "e03caad11ea5ab7cdeb29814ea9a1501235c49ef749c87b52e5821b66fa87bca",
        "a47cf1a74265d92a8197a835214b797e416cbad356bae2bceb05e11c9244f01c",
    ),
    "blackscholes": (
        "cb6b2b1054d78d54979c0ceb1975612b17118837ee5ebb49b1de1d3aaeafb2a4",
        "b83c6fe7002ad8b53e20f508ec2ff1e2f56c97c693835ea9a784cd4419099fff",
    ),
    "bodytrack": (
        "e9d0af042771e1bacf94648ee2c3fee4ee2d7aaa4e65ea7f6e6f257b01871695",
        "1627c3fcb51ed5a5b8de40eb3d239b40393f6ec6a60887a5e67a73c103b49701",
    ),
    "canneal": (
        "e037ba9a15fc85f28b0f745a80486831411918c266396cc9918c889f5cd9fbaf",
        "ff2d219f89fd6bf5213d3c49671d05083689904fca2e239f59afefe6c4003afd",
    ),
    "cholesky": (
        "26bdf659c2affc6cb5777bec896b7b7631bc7f58db89c2aed9df062a9fcdbc84",
        "3aed078fbfd93948705adb4edbb43a32c0ba604d88b5b8a7d0f2888f4af7eda3",
    ),
    "dedup": (
        "c0085ec367fea08e40aefe6f81de5600eb31560602e6cfcfcb314b5100f23a84",
        "db1acc7afeb148b10600f823a549a8a6a52361210d93eb51d1133c8100336b22",
    ),
    "ferret": (
        "64ef1cb5f6fbbf8ad925b0b195a47ec676a8ad3c6233f7312e54322365204435",
        "7167e356fc67c29afca2bb79fa96d2f5695b0b952f522124f620cd51573d5726",
    ),
    "fft": (
        "707b3f4c2f598eb4df0853d84cf10247fc920182cac3dbea6be7b2aa1c87a575",
        "7676fe7f6fb7a2766fc0d755427e59ef8d8c8108f22733ae23ad6b83bfa2f8f6",
    ),
    "fluidanimate": (
        "e40bbdc43e6b1338a3e26fb6ea7ceb4cfbfbfb5d1c3c27d8b12c7e82fa6625f9",
        "a028119e40712a581a7a176c1a4b7b103cd9a0761a1e123f290bc6aa475e6ba0",
    ),
    "fmm": (
        "30591eea41d18ffe74b1ea34c23da1991be1275f1cd0981d6286e8a839078e5f",
        "b12dfa037cbc388b06204b7252d9dd764fc01b7e4b664399918e5c61c6f8d8e3",
    ),
    "freqmine": (
        "ef6d44665011baf9678b6e677489fcc6d039413025e713310782cd0bbe510aff",
        "d65995b89ec887d11c143da760e17083761a30e2e0b9b6785e63d24a30a5fa35",
    ),
    "lu-c": (
        "8c373ace77f8abd467aca918d76d589064128bdf9c2a982783091b1cdf21431b",
        "a6d581163661a0fe639c619e54d6efc5d5360f3d6f1fd85cb42ece954896e263",
    ),
    "lu-nc": (
        "aa4e57a3c74a74bc816863b6f5e56f126990f2556eb27c8b1aa6c951a9234d8b",
        "8eff4548b2f6b7b72d34e669737329cc43b7eb5caf3471b3612e18d86596b511",
    ),
    "ocean-nc": (
        "2f859651db8702a11a74535085a843aceee58cbb79268721218bb6200950c1e2",
        "ad774936f2001d3603e9ea6fba23151b8b484541bc2a0cb34563720a71bb5f94",
    ),
    "radiosity": (
        "016df2afd3a490f7538d5c10dcb29e5cd52b4a2fba37cd3d968e786f66fbcead",
        "644c01b356a15014c146d07a78da813949a55248342945cc55978b9b02d81a06",
    ),
    "radix": (
        "3a014df198e74a51164cd2d7210ee06272ea9576c8b9b4ccae6ed6a4eb6360ca",
        "d3d167b1d225aaf5924c4b766f1c4e12aa33a6da2b790d39de80f142c06b71d1",
    ),
    "raytrace": (
        "599213501e395d400dc8c287d71f98f313665341dc306d0f058c4da8a3b2814b",
        "901a1a648aba3550794d20bd957042e15e15ab3fae02f6d10329b989cb57c7b4",
    ),
    "volrend": (
        "d6ac69c6cf073863372aae9c51e87d3c7a669611fc3d64ebc8c771d643921f31",
        "a5451477f0a0e339b8cd6b30fe5b16a435128cafbc6904ba6be4fd8a38b3b06e",
    ),
    "water-nsq": (
        "7e5fd5dae8aa547b9aefc3c7988500c7e1a71bbc905047177bc70d5561ed96ec",
        "b3326e40efa2e376d4a273be938e1ce15cbd0ee9c03c270251556a3a885d6405",
    ),
    "water-spa": (
        "810cf76cbd2dfd9eaadce2427db4bcb1991487ed6be5a748ba44a77cf4845232",
        "6ce3d18ee91dbe76189901f357737424ed9097ff1f40b0cd6ba62ac6eae46f46",
    ),
}


def synthesis_digest(chunk) -> str:
    """sha256 of a chunk's five columns as compact JSON.

    JSON keeps ``true`` apart from ``1`` and ``1`` apart from ``1.0``, so
    the digest also pins each column's element type.
    """
    columns = [chunk.kinds, chunk.addresses, chunk.values, chunk.args, chunk.blocking]
    blob = json.dumps(columns, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _digests(app: str):
    profile = APP_PROFILES[app]
    return tuple(
        synthesis_digest(build_core_trace(profile, core, CORES, MEMOPS, TRACE_SEED))
        for core in CORE_IDS
    )


def test_every_app_is_pinned():
    assert sorted(GOLDEN_SYNTHESIS_DIGESTS) == sorted(APP_PROFILES)


@pytest.mark.parametrize("app", sorted(APP_PROFILES))
def test_synthesis_digest(app):
    assert _digests(app) == GOLDEN_SYNTHESIS_DIGESTS[app], (
        f"{app}: synthesized trace columns changed; if the change is "
        "intentional, regenerate with `python -m tests.test_synthesis_digest`"
    )


def _regenerate():  # pragma: no cover - maintenance entry point
    for app in sorted(APP_PROFILES):
        first, last = _digests(app)
        print(f'    "{app}": (\n        "{first}",\n        "{last}",\n    ),')


if __name__ == "__main__":  # pragma: no cover
    _regenerate()
