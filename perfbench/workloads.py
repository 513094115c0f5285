"""Workload definitions: fixed configs, seeded input pools and schedules.

Every input the program sees is generated here from the workload seed; the
program receives only the generated graphs (or ONNX bytes, or request
lines).  Why each workload, config and pool looks the way it does is
written down in ``perfbench/README.md``; the numbers quoted there were
measured with the pools defined in this file.

A pool is built from *slots*.  A slot is one model family at one preset
scale with a weight (how many times it appears in one pass of the closed
loop) and a small grid of dimension overrides.  The seed picks, per slot,
which grid points are used and the order of one pass; it never changes
which slots exist or their weights.  So the mix of operation kinds -- and
with it where p50 and p90 fall -- is fixed by construction, and only tensor
dimensions and order move with the seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
ONNX_DIR = REPO_ROOT / "tests" / "data" / "onnx"

#: Seed used when ``--seed`` is not given, and the held-out seed the
#: self-check (``perfbench/selfcheck.py``) confirms each workload's shape on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 9001

WORKLOADS = ("saturate", "extract", "serve")

#: Default measured seconds per run (``BENCHMARK.json`` ``run_seconds``).
DEFAULT_SECONDS = 35.0
#: Fresh process starts per run; ``setup_s`` is their median.
SETUP_SAMPLES = 4

#: The serve workload's open-loop request rate (requests per second), its
#: connection limit and the cache capacity the daemon is started with.
SERVE_RATE = 12.0
SERVE_MAX_IN_FLIGHT = 2
SERVE_CACHE_CAPACITY = 16
SERVE_DISTINCT = 40
#: Zipf exponent of the request popularity over the distinct graphs.
SERVE_ZIPF_S = 1.2
#: The band the serve hit share must stay in (checked by ``selfcheck.py``).
SERVE_HIT_BAND = (0.65, 0.80)


def workload_config(workload: str):
    """The fixed ``TensatConfig`` of a closed-loop workload.

    Exploration stops only on saturation, ``node_limit`` or ``iter_limit``;
    the time limits keep their one-hour defaults, which no operation here
    comes near, and the ILP runs with MIP gap 0.  (``serve`` runs the
    daemon's own default config.)
    """
    from repro import TensatConfig

    if workload == "saturate":
        return TensatConfig(extraction="greedy", k_multi=2, node_limit=1500, iter_limit=8)
    return TensatConfig(k_multi=2, node_limit=1500, iter_limit=8)


@dataclass(frozen=True)
class Slot:
    """One model family at one preset scale in a closed-loop pass."""

    model: str
    scale: str
    weight: int
    #: Override name -> candidate values; each grid point keeps the
    #: builder's structure (only tensor dimensions change).
    grid: Tuple[Tuple[str, Tuple[int, ...]], ...] = ()

    def points(self) -> List[Dict[str, int]]:
        names = [name for name, _ in self.grid]
        values = [vals for _, vals in self.grid]
        return [dict(zip(names, combo)) for combo in itertools.product(*values)]


@dataclass(frozen=True)
class Input:
    """One distinct input graph: a built model variant or an ONNX file."""

    key: str
    model: str
    scale: str
    overrides: Tuple[Tuple[str, int], ...] = ()
    onnx_file: str = ""

    def build(self):
        """Build the graph (ONNX inputs are imported by the caller)."""
        from repro.models import build_model

        return build_model(self.model, self.scale, **dict(self.overrides))


def _dims(**grid) -> Tuple[Tuple[str, Tuple[int, ...]], ...]:
    return tuple((name, tuple(vals)) for name, vals in grid.items())


# Dimension grids.  Structural knobs (layers, steps, gates, cells, blocks,
# modules, fire_modules) stay at the preset; only widths and sizes vary.
SATURATE_SLOTS: Tuple[Slot, ...] = (
    Slot("onnx:mlp_tiny", "", 4),
    Slot("onnx:convnet_tiny", "", 4),
    Slot("nasnet", "tiny", 4, _dims(channels=(6, 8, 10), image=(12, 14, 16))),
    Slot("inception", "tiny", 4, _dims(channels=(8, 12), image=(16, 24))),
    Slot("bert", "tiny", 6, _dims(hidden=(24, 32, 48), seq=(8, 16, 24))),
    Slot("nasrnn", "tiny", 6, _dims(hidden=(24, 32, 48), input_size=(24, 32, 48))),
    Slot("nasnet", "small", 6, _dims(channels=(12, 16, 24), image=(12, 14))),
    Slot("inception", "small", 4, _dims(channels=(12, 16), image=(20, 28))),
    Slot("bert", "small", 4, _dims(hidden=(48, 64), seq=(24, 32))),
    Slot("nasrnn", "small", 1, _dims(hidden=(48, 64), input_size=(48, 64))),
)

EXTRACT_SLOTS: Tuple[Slot, ...] = (
    Slot("onnx:mlp_tiny", "", 1),
    Slot("onnx:convnet_tiny", "", 1),
    Slot("vgg", "small", 1, _dims(image=(24, 32), fc=(48, 64))),
    Slot("resnext", "small", 1, _dims(image=(20, 28), stem_channels=(16, 24))),
    Slot("squeezenet", "tiny", 2, _dims(image=(16, 24), squeeze=(4, 6), expand=(8, 12))),
    Slot("squeezenet", "small", 5, _dims(image=(24, 28, 32), squeeze=(6, 8), expand=(12, 16))),
    Slot("inception", "tiny", 2, _dims(channels=(8, 12), image=(16, 24))),
    Slot("nasrnn", "tiny", 4, _dims(hidden=(24, 32, 48), input_size=(24, 32, 48))),
)

SERVE_MODELS: Tuple[Slot, ...] = (
    Slot("nasrnn", "tiny", 1, _dims(hidden=(16, 24, 32, 40, 48), input_size=(16, 24, 32, 40, 48))),
    Slot("inception", "tiny", 1, _dims(channels=(6, 8, 10, 12, 16), image=(12, 16, 20, 24))),
)


def _slot_inputs(slot: Slot, count: int, rng: random.Random) -> List[Input]:
    if slot.model.startswith("onnx:"):
        name = slot.model.split(":", 1)[1]
        return [Input(key=slot.model, model=slot.model, scale="", onnx_file=f"{name}.onnx")] * count
    points = slot.points()
    chosen = rng.sample(points, min(count, len(points)))
    while len(chosen) < count:
        chosen.append(rng.choice(points))
    inputs = []
    for point in chosen:
        overrides = tuple(sorted(point.items()))
        key = f"{slot.model}-{slot.scale}" + "".join(f"-{k}{v}" for k, v in overrides)
        inputs.append(Input(key=key, model=slot.model, scale=slot.scale, overrides=overrides))
    return inputs


def closed_loop_pass(workload: str, seed: int) -> List[Input]:
    """One pass of the closed loop: every slot ``weight`` times, seeded order.

    The caller repeats the pass until the run's time is up, so every
    distinct input is optimized several times per run (which the
    exact-repeat check relies on).
    """
    slots = SATURATE_SLOTS if workload == "saturate" else EXTRACT_SLOTS
    rng = random.Random(f"{workload}:{seed}")
    inputs: List[Input] = []
    for slot in slots:
        inputs.extend(_slot_inputs(slot, slot.weight, rng))
    rng.shuffle(inputs)
    return inputs


# --------------------------------------------------------------------------- #
# serve: popularity-skewed request stream with isomorphic resubmissions
# --------------------------------------------------------------------------- #

#: How a request presents its graph: as built, with every input/weight
#: renamed, with the node list in another topological order, or both.  All
#: four are isomorphic and must share one fingerprint.
PRESENTATIONS = ("plain", "renamed", "permuted", "renamed+permuted")


@dataclass(frozen=True)
class Request:
    index: int
    due: float  # seconds after the stream starts
    graph: int  # index into the distinct pool
    presentation: str


def serve_pool(seed: int) -> List[Input]:
    """The distinct graphs of one serve run, most popular first.

    Popularity ranks go round-robin over the models in a fixed order, so
    every seed has the same model mix at every popularity level (and with
    it the same mix of miss costs); the seed picks each model's dimension
    variants and which variant gets which of the model's ranks.
    """
    rng = random.Random(f"serve:{seed}")
    per_model = SERVE_DISTINCT // len(SERVE_MODELS)
    variants = [_slot_inputs(slot, per_model, rng) for slot in SERVE_MODELS]
    for chosen in variants:
        rng.shuffle(chosen)
    return [chosen[level] for level in range(per_model) for chosen in variants]


def serve_schedule(seed: int, seconds: float) -> List[Request]:
    """The open-loop request stream: one request every ``1/SERVE_RATE`` s.

    Popularity is Zipf over the distinct graphs, apportioned exactly (each
    graph gets its rounded share of the requests) and then shuffled by the
    seed, so the hit share moves little between seeds.
    """
    rng = random.Random(f"serve-stream:{seed}")
    count = max(1, int(seconds * SERVE_RATE))
    weights = [1.0 / (rank + 1) ** SERVE_ZIPF_S for rank in range(SERVE_DISTINCT)]
    total = sum(weights)
    shares = [count * w / total for w in weights]
    per_graph = [int(share) for share in shares]
    by_remainder = sorted(range(SERVE_DISTINCT), key=lambda g: per_graph[g] - shares[g])
    for g in by_remainder[: count - sum(per_graph)]:
        per_graph[g] += 1
    picks = [g for g, n in enumerate(per_graph) for _ in range(n)]
    rng.shuffle(picks)
    return [
        Request(index=i, due=i / SERVE_RATE, graph=g, presentation=rng.choice(PRESENTATIONS))
        for i, g in enumerate(picks)
    ]


def present(doc: Dict[str, object], presentation: str, salt: int) -> Dict[str, object]:
    """An isomorphic copy of a ``graph_to_doc`` document.

    ``renamed`` gives every input and weight a fresh name (shapes kept);
    ``permuted`` emits the nodes in another topological order, chosen by
    ``salt``, and remaps every reference.
    """
    nodes = [dict(n, inputs=list(n["inputs"])) for n in doc["nodes"]]
    outputs = list(doc["outputs"])
    if "renamed" in presentation:
        for n in nodes:
            if n["op"] in ("input", "weight"):
                name_node = nodes[n["inputs"][0]]
                name, sep, dims = name_node["value"].partition("@")
                name_node["value"] = f"r{salt}_{name}{sep}{dims}"
    if "permuted" in presentation:
        rng = random.Random(salt)
        users: Dict[int, List[int]] = {i: [] for i in range(len(nodes))}
        pending = [len(set(n["inputs"])) for n in nodes]
        for i, n in enumerate(nodes):
            for ref in set(n["inputs"]):
                users[ref].append(i)
        ready = [i for i, p in enumerate(pending) if p == 0]
        order: List[int] = []
        while ready:
            i = ready.pop(rng.randrange(len(ready)))
            order.append(i)
            for user in users[i]:
                pending[user] -= 1
                if pending[user] == 0:
                    ready.append(user)
        new_index = {old: new for new, old in enumerate(order)}
        nodes = [
            dict(nodes[old], inputs=[new_index[r] for r in nodes[old]["inputs"]]) for old in order
        ]
        outputs = [new_index[o] for o in outputs]
    return {"name": doc["name"], "nodes": nodes, "outputs": outputs}


def onnx_bytes(file_name: str) -> bytes:
    return (ONNX_DIR / file_name).read_bytes()

