"""Shared generators for randomized suites.

Random systems are drawn with seeded Random instances so every run sees
the same instances; the planar generator keeps an explicit face list while
it mutates the graph, so its outputs are planar by construction and the
left-right planarity test confirms them independently.
"""

from __future__ import annotations

import random

from coxeter_l2.model import INFINITY, CoxeterSpec
from coxeter_l2.spherical import classify

DEFAULT_LABELS = (2, 3, 4, 5, INFINITY)


def random_spec(rng: random.Random, max_vertices: int = 6, labels=DEFAULT_LABELS) -> CoxeterSpec:
    n = rng.randint(0, max_vertices)
    vertices = [f"v{i}" for i in range(n)]
    edge_labels = {}
    for i in range(n):
        for j in range(i + 1, n):
            m = rng.choice(labels)
            if m != INFINITY:
                edge_labels[(vertices[i], vertices[j])] = m
    return CoxeterSpec(vertices, edge_labels)


def _degree(edges: set, v: int) -> int:
    return sum(1 for e in edges if v in e)


def random_planar_graph(
    rng: random.Random, max_vertices: int = 8, max_degree: int = 4
) -> tuple[list[str], list[tuple[int, int]], list[list[int]]]:
    """A 2-connected planar graph built by splitting faces of an embedded cycle, with its faces.

    Faces are tracked as simple closed walks; every mutation (a chord
    splitting a face, or a new vertex joined to two face vertices) keeps
    each walk simple, so the face list stays a genuine sphere embedding.
    The walks are consistently oriented: each directed edge lies on one.
    """
    n = rng.randint(3, min(5, max_vertices))
    cycle = list(range(n))
    faces = [cycle[:], list(reversed(cycle))]
    edges = {frozenset((cycle[i], cycle[(i + 1) % n])) for i in range(n)}
    count = n
    for _ in range(rng.randint(0, 7)):
        face = rng.choice(faces)
        op = rng.choice(("chord", "vertex"))
        if op == "chord" and len(face) >= 4:
            i = rng.randrange(len(face))
            j = rng.randrange(len(face))
            if i > j:
                i, j = j, i
            a, b = face[i], face[j]
            if (
                a == b
                or frozenset((a, b)) in edges
                or (j - i) in (1, len(face) - 1)
                or _degree(edges, a) >= max_degree
                or _degree(edges, b) >= max_degree
            ):
                continue
            edges.add(frozenset((a, b)))
            faces.remove(face)
            faces.append(face[i : j + 1])
            faces.append(face[j:] + face[: i + 1])
        elif op == "vertex" and count < max_vertices:
            i = rng.randrange(len(face))
            j = rng.randrange(len(face))
            if i > j:
                i, j = j, i
            a, b = face[i], face[j]
            if a == b or _degree(edges, a) >= max_degree or _degree(edges, b) >= max_degree:
                continue
            w = count
            count += 1
            edges.add(frozenset((a, w)))
            edges.add(frozenset((b, w)))
            faces.remove(face)
            faces.append(face[i : j + 1] + [w])
            faces.append(face[j:] + face[: i + 1] + [w])
    vertices = [f"v{i}" for i in range(count)]
    return vertices, [tuple(sorted(e)) for e in sorted(edges, key=sorted)], faces


def random_planar_spec(
    rng: random.Random,
    max_vertices: int = 8,
    labels=(2, 3, 4, 5, 6),
    require_infinite: bool = True,
) -> CoxeterSpec:
    """A connected planar graph with random finite edge labels, W infinite."""
    while True:
        vertices, edges, _ = random_planar_graph(rng, max_vertices)
        for _ in range(8):
            edge_labels = {
                (vertices[a], vertices[b]): rng.choice(labels) for a, b in edges
            }
            spec = CoxeterSpec(vertices, edge_labels)
            if not require_infinite or not classify(spec, spec.vertices).spherical:
                return spec
