"""Seeded workload instances and their pinned fingerprints.

Every instance reaches the program only as edge-list text.  The text is
written here, from the generated graph's own vertex and edge ids, so that
the checks in `checks.py` can read the same edges without the parser under
test.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

FINGERPRINT_FILE = Path(__file__).with_name("fingerprints.json")
DEFAULT_SEED = 0

# Instance shapes.  gen(2n+1, s, max_vertices=n) reaches n vertices and has
# m = n + steps - 1 = 3n edges.
CERTIFY_INSTANCES = 6
CERTIFY_N = 40
LARGE_INSTANCES = 2
LARGE_N = 1000
REDUCE_INSTANCES = 20
REDUCE_CORE_N = 25
REDUCE_M = 2400
REDUCE_PENDANTS = 200

# Warm-up instances are small and do not depend on --seed: the warm-up runs
# each command once without filling any cache with a timed instance.
WARMUP_SHAPES = {
    "certify_3ec": {"n": 12},
    "construct_large": {"n": 100},
    "reduce_non3ec": {"core_n": 8, "m": 240, "pendants": 20},
}


class FingerprintMismatch(Exception):
    """The generated inputs differ from the pinned ones."""


@dataclass(frozen=True)
class Instance:
    """One generated graph: its edge-list text plus what the checks need.

    edges maps edge id -> (u, v) exactly as written in the text.  hat_n and
    hat_m are the cosimplification's size, known from the construction.
    """

    name: str
    text: str
    edges: dict[int, tuple[int, int]]
    n: int
    m: int
    hat_n: int
    hat_m: int

    def fingerprint(self) -> dict:
        return {
            "name": self.name,
            "n": self.n,
            "m": self.m,
            "hat_n": self.hat_n,
            "hat_m": self.hat_m,
            "sha256": hashlib.sha256(self.text.encode("utf-8")).hexdigest(),
        }


def edge_list_text(n: int, edges: dict[int, tuple[int, int]]) -> str:
    lines = [f"{n} {len(edges)}"]
    lines.extend(f"{u} {v} {e}" for e, (u, v) in sorted(edges.items()))
    return "\n".join(lines) + "\n"


def _sub_seeds(workload: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"cyclelattice-bench/{workload}/{seed}")
    return [rng.randrange(2**31) for _ in range(count)]


def three_ec_instance(name: str, n: int, seed: int) -> Instance:
    """A 3-edge-connected gen instance; its cosimplification is itself."""
    from cyclelattice.topo_extension import gen

    G = gen(2 * n + 1, seed, max_vertices=n)
    edges = dict(G.edges)
    return Instance(name, edge_list_text(G.n, edges), edges, G.n, G.m, G.n, G.m)


def non3ec_instance(name: str, core_n: int, m: int, pendants: int, seed: int) -> Instance:
    """A gen core with edges subdivided into series paths and pendant bridges.

    The core is 3-edge-connected, so the series classes are exactly the
    subdivided paths and the bridges are exactly the pendant edges.  The
    cosimplification is therefore the core plus one isolated vertex per
    pendant edge.
    """
    from cyclelattice.topo_extension import gen

    rng = random.Random(seed)
    core = gen(2 * core_n + 1, rng.randrange(2**31), max_vertices=core_n)
    core_ids = sorted(core.edges)
    lengths = dict.fromkeys(core_ids, 1)
    for _ in range(m - core.m - pendants):
        lengths[rng.choice(core_ids)] += 1
    vertices = list(core.vertices)
    next_v = max(vertices) + 1
    edges: dict[int, tuple[int, int]] = {}
    for e in core_ids:
        u, v = core.edges[e]
        for _ in range(lengths[e] - 1):
            edges[len(edges)] = (u, next_v)
            vertices.append(next_v)
            u, next_v = next_v, next_v + 1
        edges[len(edges)] = (u, v)
    for _ in range(pendants):
        edges[len(edges)] = (rng.choice(vertices), next_v)
        vertices.append(next_v)
        next_v += 1
    n = len(vertices)
    return Instance(
        name, edge_list_text(n, edges), edges, n, len(edges), core.n + pendants, core.m
    )


def generate(workload: str, seed: int) -> list[Instance]:
    """The timed instances of a workload for one seed."""
    if workload == "certify_3ec":
        seeds = _sub_seeds(workload, seed, CERTIFY_INSTANCES)
        return [three_ec_instance(f"c{i}", CERTIFY_N, s) for i, s in enumerate(seeds)]
    if workload == "construct_large":
        seeds = _sub_seeds(workload, seed, LARGE_INSTANCES)
        return [three_ec_instance(f"l{i}", LARGE_N, s) for i, s in enumerate(seeds)]
    if workload == "reduce_non3ec":
        seeds = _sub_seeds(workload, seed, REDUCE_INSTANCES)
        return [
            non3ec_instance(f"r{i}", REDUCE_CORE_N, REDUCE_M, REDUCE_PENDANTS, s)
            for i, s in enumerate(seeds)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def warmup_instance(workload: str) -> Instance:
    shape = WARMUP_SHAPES[workload]
    seed = _sub_seeds(workload, -1, 1)[0]
    if workload == "reduce_non3ec":
        return non3ec_instance("warmup", shape["core_n"], shape["m"], shape["pendants"], seed)
    return three_ec_instance("warmup", shape["n"], seed)


def load_pinned() -> dict:
    with open(FINGERPRINT_FILE, encoding="utf-8") as handle:
        return json.load(handle)


def check_fingerprints(
    workload: str, seed: int, warmup: Instance, instances: list[Instance], pinned: dict
):
    """Raise FingerprintMismatch unless the inputs match the pinned ones.

    The warm-up instance is pinned for every seed; the timed instances are
    pinned for the default seed.
    """
    expected = pinned[workload]
    got_warmup = warmup.fingerprint()
    if got_warmup != expected["warmup"]:
        raise FingerprintMismatch(
            f"{workload} warm-up instance: expected {expected['warmup']}, got {got_warmup}"
        )
    if seed != DEFAULT_SEED:
        return
    got = [inst.fingerprint() for inst in instances]
    if got != expected["instances"]:
        for want, have in zip(expected["instances"], got):
            if want != have:
                raise FingerprintMismatch(f"{workload}: expected {want}, got {have}")
        raise FingerprintMismatch(
            f"{workload}: expected {len(expected['instances'])} instances, got {len(got)}"
        )


def pin() -> dict:
    """Write the fingerprints of every workload at the default seed."""
    doc = {}
    for workload in WARMUP_SHAPES:
        doc[workload] = {
            "seed": DEFAULT_SEED,
            "warmup": warmup_instance(workload).fingerprint(),
            "instances": [i.fingerprint() for i in generate(workload, DEFAULT_SEED)],
        }
    with open(FINGERPRINT_FILE, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return doc
