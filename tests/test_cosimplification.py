"""The cosimplification's class-by-class cycle check and reduced graph.

Cosimplification.classes_form_cycle decides whether a union of series
classes is a simple cycle of the parent from each class's paths between
ports (Cosimplification.series_paths).  It must agree with is_simple_cycle
on every union, also for groupings of the edges that are not the series
classes, because exactness does not rest on the partition.  cosimplify
builds the reduced graph off the forest; it must be the quotient networkx
builds.
Cosimplification.project reads a vector's image on the reduced graph.
"""

import random
from collections import Counter
from dataclasses import replace

import pytest

from cyclelattice.cli import _entry_image
from cyclelattice.cycle_structure import (
    cosimplify,
    fundamental_cycle_matrix,
    is_simple_cycle,
)
from cyclelattice.errors import ArgumentError
from cyclelattice.multigraph import Multigraph, parse_edge_list, spanning_forest
from cyclelattice.topo_extension import gen


def _rough_graph(rng: random.Random) -> Multigraph:
    """One to three parts, each a random core with loops and parallel
    edges, some edges subdivided into paths, and pendant edges hung off it;
    isolated vertices may be added."""
    edges: list[tuple[int, int]] = []
    n = 0
    for _ in range(rng.randint(1, 3)):
        core = list(range(n, n + rng.randint(1, 5)))
        n += len(core)
        part: list[tuple[int, int]] = []
        for _ in range(rng.randint(0, 7)):
            uv = (rng.choice(core), rng.choice(core))
            part += [uv] * rng.randint(1, 3)
        for _ in range(rng.randint(0, 2)):
            if not part:
                break
            u, v = part.pop(rng.randrange(len(part)))
            inner = list(range(n, n + rng.randint(1, 5)))
            n += len(inner)
            path = [u, *inner, v]
            part += list(zip(path, path[1:]))
        grown = list(core)
        for _ in range(rng.randint(0, 4)):
            part.append((rng.choice(grown), n))
            grown.append(n)
            n += 1
        edges += part
    n += rng.randint(0, 2)
    return Multigraph(tuple(range(n)), dict(enumerate(edges)))


def _subdivided_core(rng: random.Random) -> Multigraph:
    """A gen core with random edges subdivided into series paths and
    pendant edges hung off any vertex."""
    k = rng.randint(2, 6)
    core = gen(2 * k + 1, rng.randrange(2**31), max_vertices=k)
    vertices = list(core.vertices)
    edges: list[tuple[int, int]] = []
    for e in core.sorted_edges:
        u, v = core.edges[e]
        for _ in range(rng.choice((0, 0, 1, 2, 4))):
            w = len(vertices)
            vertices.append(w)
            edges.append((u, w))
            u = w
        edges.append((u, v))
    for _ in range(rng.randint(0, 4)):
        w = len(vertices)
        edges.append((rng.choice(vertices), w))
        vertices.append(w)
    return Multigraph(tuple(vertices), dict(enumerate(edges)))


def _graphs(seed: int, count: int):
    rng = random.Random(seed)
    for i in range(count):
        yield rng, (_rough_graph if i % 3 else _subdivided_core)(rng)


def _cycles(G: Multigraph) -> list[frozenset[int]]:
    """The fundamental cycles of G's BFS forest, and the sums of neighbours."""
    fcm = fundamental_cycle_matrix(G, spanning_forest(G))
    cycles = [fcm.cycles[e] for e in sorted(fcm.cycles)]
    return cycles + [a ^ b for a, b in zip(cycles, cycles[1:])]


def _route(cos, reps) -> str:
    classes = [cos.series_paths[rep] for rep in reps]
    return "reject" if () in classes else "walk" if None in classes else "paths"


def _check(cos, unions, tally: Counter):
    """Compare each union with is_simple_cycle, and tally routes and cycles."""
    for reps in unions:
        expected = is_simple_cycle(cos.parent, cos.lift_edges(reps))
        assert cos.classes_form_cycle(reps) == expected, (cos.parent.edges, cos.section, reps)
        tally[_route(cos, reps)] += 1
        tally["cycles"] += expected


def _split(rng: random.Random, edges) -> list[list[int]]:
    """The edges shuffled and cut into random nonempty groups."""
    edges = list(edges)
    rng.shuffle(edges)
    cuts = sorted(rng.sample(range(1, len(edges)), rng.randint(0, max(len(edges) - 1, 0))))
    return [edges[a:b] for a, b in zip([0, *cuts], [*cuts, len(edges)])] if edges else []


def _regroup(rng: random.Random, cos):
    """cos with its non-bridge edges grouped at random: the edges of one
    fundamental cycle split into groups of their own, the rest grouped
    among themselves, and sometimes one of those merged into a cycle's
    group.  Returns it and the representatives of the cycle's groups."""
    cycles = _cycles(cos.parent)
    cycle = sorted(rng.choice(cycles)) if cycles else []
    groups = _split(rng, cycle)
    on_cycle = len(groups)
    groups += _split(rng, sorted(cos.parent.edges.keys() - cos.partition.bridges - set(cycle)))
    if on_cycle and len(groups) > on_cycle and rng.random() < 0.3:
        extra = groups.pop(rng.randrange(on_cycle, len(groups)))
        groups[rng.randrange(on_cycle)] += extra
    section = {min(g): frozenset(g) for g in groups}
    projection = {e: min(g) for g in groups for e in g}
    projection.update(dict.fromkeys(cos.partition.bridges))
    regrouped = replace(cos, section=section, projection=projection)
    return regrouped, [min(g) for g in groups[:on_cycle]]


def _random_unions(rng: random.Random, reps: list[int], count: int):
    for _ in range(count if reps else 0):
        yield rng.sample(reps, rng.randint(1, min(len(reps), 5)))


def _entry_is_cycle(cos, edges) -> bool:
    """verify's check of a document entry of multiplier 1: on its classes
    when it has an image on a reduction, else on its edges."""
    problem, _ = _entry_image(cos, 0, {"edges": edges})
    return problem is None


class TestClassesFormCycle:
    def test_series_classes(self):
        """Every fundamental cycle and neighbour sum, as the union of its
        classes, and random unions of classes, on 2 000 graphs."""
        tally: Counter = Counter()
        for rng, G in _graphs(2020, 2000):
            cos = cosimplify(G)
            reps = sorted(cos.hat_graph.edges)
            unions = [sorted({cos.projection.get(e, e) for e in c}) for c in _cycles(G)]
            unions += _random_unions(rng, reps, 48 - len(unions))
            _check(cos, unions, tally)
            # an entry of verify: any edge set, whole classes or not, bridges too
            for _ in range(4):
                edges = rng.sample(sorted(G.edges), rng.randint(0, min(G.m, 6)))
                assert _entry_is_cycle(cos, edges) == is_simple_cycle(G, set(edges)), (G.edges, edges)
        assert sum(tally[r] for r in ("paths", "reject", "walk")) >= 60_000
        assert tally == {"paths": 88_617, "walk": 4_787, "cycles": 36_543}

    def test_arbitrary_groupings(self):
        """Random groupings of the non-bridge edges into classes, the edges
        of a cycle among them, on 2 000 graphs: the groups of the cycle,
        with and without one more group, and random unions of groups."""
        tally: Counter = Counter()
        for rng, G in _graphs(2021, 2000):
            cos, on_cycle = _regroup(rng, cosimplify(G))
            reps = sorted(cos.section)
            unions = [on_cycle] if on_cycle else []
            extra = rng.sample(reps, min(len(reps), 3))
            unions += [on_cycle + [r] for r in extra if r not in on_cycle]
            unions += _random_unions(rng, reps, 24 - len(unions))
            _check(cos, unions, tally)
            for _ in range(2):
                edges = rng.sample(sorted(G.edges), rng.randint(0, min(G.m, 6)))
                assert _entry_is_cycle(cos, edges) == is_simple_cycle(G, set(edges)), (G.edges, edges)
        assert sum(tally[r] for r in ("paths", "reject", "walk")) >= 40_000
        assert min(tally["paths"], tally["reject"], tally["walk"]) > 0
        assert tally == {"paths": 29_391, "reject": 15_710, "walk": 979, "cycles": 3_305}

    def test_routes_by_hand(self):
        # a triangle: its one class closes without a port
        cos = cosimplify(parse_edge_list("3 3\n1 2\n2 3\n3 1\n"))
        assert list(cos.series_paths.values()) == [None]
        assert cos.classes_form_cycle(list(cos.section))
        # two triangles at vertex 1: each class is a closed path at that port
        G = parse_edge_list("5 6\n1 2\n2 3\n3 1\n1 4\n4 5\n5 1\n")
        cos = cosimplify(G)
        assert list(cos.series_paths.values()) == [((1, 1),), ((1, 1),)]
        assert all(cos.classes_form_cycle([rep]) for rep in cos.section)
        assert not cos.classes_form_cycle(list(cos.section))
        # grouped otherwise: vertex 1 meets one group only, at degree 4
        regrouped = replace(cos, section={0: frozenset({0, 2, 3, 5}), 1: frozenset({1, 4})})
        assert regrouped.series_paths == {0: (), 1: ((2, 3), (4, 5))}
        assert not regrouped.classes_form_cycle([0, 1])
        assert not regrouped.classes_form_cycle([1])


def _relabeled(rng: random.Random, G: Multigraph) -> Multigraph:
    """G on vertex ids with gaps, listed in random order, labeled half the time."""
    new = dict(zip(G.vertices, rng.sample(range(3 * G.n + 1), G.n)))
    vertices = tuple(rng.sample([new[v] for v in G.vertices], G.n))
    edges = {e: (new[u], new[v]) for e, (u, v) in G.edges.items()}
    labels = {v: f"x{v}" for v in vertices} if rng.random() < 0.5 else None
    return Multigraph(vertices, edges, labels)


class TestReducedGraph:
    def test_reduced_graph_is_the_minor(self, nx_quotient):
        """cosimplify's reduced graph against the networkx quotient with the
        bridges deleted and every class edge but the representative
        contracted, the minor the paper reduces to: the same
        vertices, edge dict in order and labels, on 600 random multigraphs
        (disconnected ones among them) on the BFS forest and on one with a
        preferred root."""
        reduced = 0
        for rng, G in _graphs(2022, 600):
            G = _relabeled(rng, G)
            for root in (None, rng.choice(G.vertices)):
                cos = cosimplify(G, forest=spanning_forest(G, prefer_root=root))
                if cos.identity:  # nothing to delete or contract: G itself
                    assert cos.hat_graph is G
                    continue
                contract = {e for rep, cls in cos.section.items() for e in cls if e != rep}
                expected = nx_quotient(G, contract, cos.partition.bridges)
                hat = cos.hat_graph
                assert hat.vertices == expected.vertices, (G, root)
                assert list(hat.edges.items()) == list(expected.edges.items()), (G, root)
                assert hat.labels == expected.labels, (G, root)
                reduced += 1
        assert reduced == 1184


def test_project_reads_images_off_the_series_classes():
    """Two triangles joined by a bridge: edges 0, 1, 2 form one class."""
    G = parse_edge_list("6 7\n1 2\n2 3\n3 1\n3 4\n4 5\n5 6\n6 4\n")
    cos = cosimplify(G)
    (a,) = {cos.projection[e] for e in (0, 1, 2)}
    assert cos.project({0: 2, 1: 2, 2: 2, 3: 0}) == {a: 2}
    assert cos.project({}) == {}
    assert cos.project({0: 1, 1: 1}) is None  # part of a class
    assert cos.project({0: 1, 1: 1, 2: 2}) is None  # unequal values
    assert cos.project({3: 1}) is None  # a bridge
    with pytest.raises(ArgumentError, match="unknown edge 98"):
        cos.project({99: 1, 98: 1, 0: 1})
    identity = cosimplify(parse_edge_list("4 6\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"))
    assert identity.project({0: 1, 1: 0, 3: 1}) == {0: 1, 3: 1}
