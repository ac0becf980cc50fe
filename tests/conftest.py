"""Shared generators for randomized suites, induced subsystems, the cosine oracle for classify, and Kuratowski subgraphs.

Random systems are drawn with seeded Random instances so every run sees
the same instances; the planar generator keeps an explicit face list while
it mutates the graph, so its outputs are planar by construction and the
left-right planarity test confirms them independently.

A subset is spherical exactly when its cosine matrix c_st = -cos(pi / m_st)
is positive definite (Humphreys, Reflection Groups and Coxeter Groups,
6.4), that is when every leading minor is positive.  The numeric test
reads each minor with numpy's determinant; a minor within 1e-9 of zero is
indeterminate, which no spherical subset of rank and labels at most 12
gives.

A minimal non-planar subgraph, found by deleting edges while the rest
stays non-planar, subdivides K5 or K3,3 by Kuratowski's theorem; the
smoothing test names which.  Neither is a library operation: the package
proves non-planarity through l2-Betti numbers and decides planarity with
the left-right test.

The induced subsystem on a vertex subset is the reference that restricted
nerves and witness checks are held to; the package itself restricts a nerve
(induced_nerve) and reads a witness's labels off the ambient nerve, and
builds no subsystem on its own.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable

import numpy as np

from coxeter_l2 import enumeration
from coxeter_l2.model import INFINITY, CoxeterSpec
from coxeter_l2.nerve import SimplicialComplex
from coxeter_l2.planarity import planar_rotation
from coxeter_l2.spherical import classify

DEFAULT_LABELS = (2, 3, 4, 5, INFINITY)


def induced_subspec(spec: CoxeterSpec, subset: Iterable[str]) -> CoxeterSpec:
    """Restrict a system to a vertex subset, preserving labels and vertex order."""
    keep = set(spec.check_subset(subset))
    pairs = [p for p in spec._labels if keep.issuperset(p)]
    return spec._restrict(tuple(v for v in spec.vertices if v in keep), keep, pairs)


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


class IndeterminateCosine(ArithmeticError):
    """A leading minor of the cosine matrix fell within 1e-9 of zero."""


def reference_cosine_matrix_test(spec, subset) -> bool:
    """Is the cosine matrix positive definite?  Each leading minor from numpy's determinant."""
    T = spec.check_subset(subset)
    n = len(T)
    if n > 12:
        raise ValueError(f"subset rank {n} exceeds the numeric bound 12")
    rows = [[-1.0 if (m := spec.label(u, v)) == INFINITY else -math.cos(math.pi / m) for v in T] for u in T]
    C = np.reshape(np.array(rows, dtype=float), (n, n))
    for k in range(1, n + 1):
        minor = float(np.linalg.det(C[:k, :k]))
        if abs(minor) <= 1e-9:
            raise IndeterminateCosine(f"leading {k}x{k} minor {minor:.3e} within 1e-09 of zero")
        if minor < 0:
            return False
    return True


def check_classify_by_cosine(spec, subset) -> bool | None:
    """Strict cross-check: the cosine test's answer, None when indeterminate, checked against classify.

    A determinate answer must equal classify's verdict, and an
    indeterminate one needs a non-spherical verdict; classify never decides
    what the cosine test leaves open.
    """
    spherical = classify(spec, subset).spherical
    try:
        answer = reference_cosine_matrix_test(spec, subset)
    except IndeterminateCosine:
        assert not spherical
        return None
    assert answer is spherical
    return answer


def reflection_matrices(spec):
    """The sorted vertices and the enumerator's reflections: g_s is the identity with row s set to r_s."""
    T = spec.check_subset(spec.vertices)
    gens = np.array([np.eye(len(T)) for _ in T])
    for s, row in enumerate(enumeration._reflection_rows(T, enumeration._labels(spec, T))):
        gens[s, s] = row
    return T, gens


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


def kuratowski_subgraph(graph: SimplicialComplex) -> SimplicialComplex | None:
    """A minimal non-planar subgraph of the 1-skeleton, or None when it is planar.

    Each edge in turn is deleted when the graph without it is still
    non-planar.  Every proper subgraph of what remains is planar, so by
    Kuratowski's theorem it subdivides K5 or K3,3 (see kuratowski_type).
    Costs one left-right test per edge.
    """
    if planar_rotation(graph) is not None:
        return None
    edges = list(graph.edges)
    kept: list[tuple[str, ...]] = []
    for i, e in enumerate(edges):
        if planar_rotation(SimplicialComplex(graph.vertices, kept + edges[i + 1:])) is not None:
            kept.append(e)
    vertices = sorted({v for e in kept for v in e})
    return SimplicialComplex(vertices, kept)


def kuratowski_type(graph: SimplicialComplex) -> str | None:
    """Which of K5 and K3,3 the graph subdivides, isolated vertices aside; None if neither.

    Smoothing replaces each path through degree-2 vertices by one edge
    between its end vertices; the smoothed graph must be simple and equal
    to K5 or K3,3.
    """
    degree = {v: len(graph.neighbors(v)) for v in graph.vertices if graph.neighbors(v)}
    branch = [v for v, d in degree.items() if d != 2]
    smoothed = set()
    walked = 0
    for b in branch:
        for step in graph.neighbors(b):
            prev, cur = b, step
            walked += 1
            while degree[cur] == 2:
                prev, cur = cur, next(x for x in graph.neighbors(cur) if x != prev)
                walked += 1
            if cur == b:
                return None
            smoothed.add(frozenset((b, cur)))
    # Each path is walked once from each end: no parallel paths, and no cycle
    # of degree-2 vertices left untouched.
    if 2 * len(smoothed) != sum(degree[b] for b in branch) or walked != 2 * len(graph.edges):
        return None
    if len(branch) == 5 and len(smoothed) == 10:
        return "K5"
    if len(branch) == 6 and len(smoothed) == 9 and all(degree[b] == 3 for b in branch):
        near = {v for e in smoothed if branch[0] in e for v in e} - {branch[0]}
        if all(len(e & near) == 1 for e in smoothed):
            return "K3,3"
    return None
