"""Fast paths against the direct constructions they replace.

Each test keeps the old, slower path as a reference: rebuilding a nerve
from the induced subsystem, pairwise-label component finding, straddling
pairs by enumerating every vertex pair, the per-simplex Euler sum, the
exhaustive rotation-system search for planarity, face tracing that
restarts from the least unused directed edge, the non-planarity
certificate derived through a separate dimension-2 lower bound whose
provenance text is parsed, the component matcher that reads labels through
label() and returns a record, document parsing that checked every label
before the constructor checked it again, coning by rebuilding the coned
spec's nerve, the enumeration closure that formed each layer's
products with einsum and keyed them one row at a time, the Betti
engine that filled a separate builder and summed the finished vector again,
the right-angled-complement flag and straddling pairs that each scanned
the labels on their own before one witness scan replaced them, the
vanishing trace that read each link and its fullness off two ambient views,
and the nerve builder that sent every edge through the matcher and indexed
the finished nerve again.
"""

import gc
import json
import math
import random
import re
import weakref
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coxeter_l2 import enumeration, invariants, nerve as nerve_module, planarity, spherical as spherical_module
from coxeter_l2.catalog import (
    K4_ROTATION,
    complete_bipartite_spec,
    complete_graph_spec,
    cycle_spec,
    icosahedron_spec,
    octahedron_spec,
    path_spec,
)
from coxeter_l2.invariants import (
    UNKNOWN,
    BettiVector,
    CitedStep,
    ContradictoryRules,
    InvalidWitness,
    RuleContext,
    _rational,
    _validate_witness,
    betti,
    chi_orb,
    chi_orb_chain_sum,
)
from coxeter_l2.model import (
    INFINITY,
    ConflictingLabel,
    CoxeterSpec,
    DuplicateVertex,
    LabelOutOfRange,
    MalformedDocument,
    UnknownVertex,
    components,
    induced_subspec,
    parse_spec,
)
from coxeter_l2.nerve import (
    CapExceeded,
    Nerve,
    NotSpherical,
    RotationSystem,
    SphereKind,
    build_nerve,
    full_subcomplex,
    induced_nerve,
    is_full_subcomplex,
    join2,
    join_spec,
    link,
    recognize_sphere,
    SimplicialComplex,
    validate_embedding,
)
from coxeter_l2.planarity import (
    Certificate,
    NonSimpleFaceBoundary,
    brute_force_planar,
    certify_nonplanar,
    cone_construction,
    planar_rotation,
    trace_vanishing,
)
from coxeter_l2.spherical import FiniteTypeComponent, SphericalVerdict, classify, diagram_components

from conftest import check_classify_by_cosine, random_planar_graph, random_spec, reflection_matrices

LABELS = st.sampled_from([2, 3, 4, 5, 6, INFINITY])


@st.composite
def specs(draw, max_vertices=7, labels=LABELS):
    n = draw(st.integers(0, max_vertices))
    vertices = draw(st.permutations([f"v{i}" for i in range(n)]))
    drawn = {}
    for u, v in combinations(vertices, 2):
        m = draw(labels)
        if m != INFINITY:
            drawn[(u, v)] = m
    return CoxeterSpec(vertices, drawn)


@st.composite
def specs_with_subset(draw, max_vertices=7):
    spec = draw(specs(max_vertices))
    subset = draw(st.lists(st.sampled_from(spec.vertices), unique=True)) if spec.vertices else []
    return spec, subset


def reference_components(vertices, adjacent) -> list[tuple[str, ...]]:
    """Components by merging groups over every adjacent pair."""
    group = {v: {v} for v in vertices}
    for u, v in combinations(vertices, 2):
        if adjacent(u, v) and group[u] is not group[v]:
            merged = group[u] | group[v]
            for w in merged:
                group[w] = merged
    return sorted({tuple(sorted(g)) for g in group.values()})


@settings(max_examples=150)
@given(specs_with_subset())
def test_induced_nerve_equals_rebuilt_nerve(case):
    spec, subset = case
    sub = induced_nerve(build_nerve(spec), subset)
    ref = build_nerve(induced_subspec(spec, subset))
    assert sub.spec == ref.spec and sub.spec.vertices == ref.spec.vertices
    assert sub.simplices() == ref.simplices()
    assert [sub.order(s) for s in sub.simplices()] == [ref.order(s) for s in ref.simplices()]


def suspension_spec(n: int) -> CoxeterSpec:
    return join_spec(cycle_spec(n, 2, prefix="c"), CoxeterSpec(["n", "s"], {}))


@st.composite
def spheres_with_subset(draw):
    spec = draw(st.sampled_from([octahedron_spec(), icosahedron_spec(), suspension_spec(5)]))
    some = st.lists(st.sampled_from(spec.vertices), unique=True)
    subset = draw(st.one_of(st.just(list(spec.vertices)), some))
    return spec, subset


def assert_same_spec(spec: CoxeterSpec, ref: CoxeterSpec):
    assert spec == ref and hash(spec) == hash(ref) and spec.vertices == ref.vertices
    assert spec.finite_edges() == ref.finite_edges()
    assert all(spec.commuting(v) == ref.commuting(v) for v in ref.vertices)


@st.composite
def closed_or_factor_subsets(draw):
    """A union of skeleton components, all of whose vertices are closed, or one join factor.

    A factor of a join with two or more factors has no closed vertex.
    """
    if draw(st.booleans()):
        spec = draw(specs(labels=st.sampled_from([2, 3, INFINITY, INFINITY])).filter(len))
        chosen = draw(st.lists(st.sampled_from(build_nerve(spec).skeleton_components()), unique=True))
        return spec, [v for comp in chosen for v in comp]
    spec = join_spec(draw(specs(max_vertices=4).filter(len)), draw(specs(max_vertices=4).filter(len)))
    return spec, list(draw(st.sampled_from(diagram_components(spec, spec.vertices))))


@settings(max_examples=300, deadline=None)
@given(st.one_of(specs_with_subset(), spheres_with_subset(), closed_or_factor_subsets()))
def test_induced_nerve_view_equals_rebuilds(case):
    spec, subset = case
    ambient = build_nerve(spec)
    keep = set(subset)
    vertices = [v for v in spec.vertices if v in keep]
    validated = CoxeterSpec(vertices, {(u, v): m for u, v, m in spec.finite_edges() if {u, v} <= keep})
    view = induced_nerve(ambient, subset)
    assert_same_spec(view.spec, validated)
    assert_same_spec(induced_subspec(spec, subset), validated)
    rebuilt = build_nerve(induced_subspec(spec, subset))
    plain = SimplicialComplex(vertices, [s[::-1] for s in ambient.simplices() if keep.issuperset(s)])
    for other in (rebuilt, plain):
        assert view.vertices == other.vertices and view.counts() == other.counts()
        assert all(view.simplices(d) == other.simplices(d) for d in range(view.dimension + 1))
        assert list(view._neighbors.items()) == list(other._neighbors.items())  # key order too
        assert list(view._by_dim.items()) == list(other._by_dim.items())
        assert view.is_connected() == other.is_connected()
        assert recognize_sphere(view) is recognize_sphere(other)
    assert [view.order(s) for s in view.simplices()] == [rebuilt.order(s) for s in rebuilt.simplices()]
    assert chi_orb(view) == chi_orb(rebuilt) == chi_orb_chain_sum(view)
    assert repr(betti(view)) == repr(betti(rebuilt))


@settings(max_examples=150)
@given(specs_with_subset())
def test_full_subcomplex_notes_match_pairwise_enumeration(case):
    spec, subset = case
    nerve = build_nerve(spec)
    A = set(subset)
    pairs = [
        (u, v) for u, v in combinations(sorted(spec.vertices), 2)
        if spec.label(u, v) == INFINITY and not (u in A and v in A)
    ]
    assert reference_infinite_pairs_outside(nerve, subset) == pairs
    _, witness = full_subcomplex(nerve, subset)
    if not pairs:
        assert witness.notes == ()
    else:
        (note,) = witness.notes
        shown = ", ".join(f"({u},{v})" for u, v in pairs[:4])
        assert note.startswith(f"{len(pairs)} infinite-label pair(s) not contained in the subcomplex: {shown}")
        assert ("more" in note) == (len(pairs) > 4)


def reference_has_right_angled_complement(nerve, subset) -> bool:
    """has_right_angled_complement as it was: every edge not inside the subset is labelled 2."""
    A = set(nerve.spec.check_subset(subset))
    return all(m == 2 or (u in A and v in A) for u, v, m in nerve.spec.finite_edges())


def reference_infinite_pairs_outside(nerve, subset) -> list[tuple[str, str]]:
    """infinite_pairs_outside as it was: the straddling infinite pairs, in lexicographic order."""
    return list(nerve_module._straddling_pairs(nerve.spec, set(nerve.spec.check_subset(subset))))


def reference_witness_notes(pairs) -> tuple[str, ...]:
    if not pairs:
        return ()
    shown = ", ".join(f"({u},{v})" for u, v in pairs[:4])
    more = "" if len(pairs) <= 4 else f" and {len(pairs) - 4} more"
    return (
        f"{len(pairs)} infinite-label pair(s) not contained in the subcomplex: "
        f"{shown}{more} (permitted: infinite pairs are not edges)",
    )


@settings(max_examples=200, deadline=None)
@given(st.one_of(specs_with_subset(), spheres_with_subset()))
def test_witness_equals_separate_flag_and_pairs(case):
    spec, subset = case
    nerve = build_nerve(spec)
    _, witness = full_subcomplex(nerve, subset)
    assert witness.ambient is nerve and witness.vertex_set == spec.check_subset(subset)
    assert witness.right_angled_complement == reference_has_right_angled_complement(nerve, subset)
    assert witness.notes == reference_witness_notes(reference_infinite_pairs_outside(nerve, subset))
    if recognize_sphere(nerve) is SphereKind.TWO_SPHERE and witness.right_angled_complement:
        assert trace_vanishing(nerve, subset).notes == witness.notes


@settings(max_examples=150)
@given(specs_with_subset())
def test_component_helpers_equal_pairwise_reference(case):
    spec, subset = case
    assert diagram_components(spec, subset) == reference_components(
        sorted(subset), lambda u, v: spec.label(u, v) != 2
    )
    nerve = build_nerve(spec)
    factors = reference_components(sorted(spec.vertices), lambda u, v: spec.label(u, v) != 2)
    assert diagram_components(spec, nerve.vertices) == factors
    skeleton = reference_components(list(spec.vertices), lambda u, v: nerve.has_simplex((u, v)))
    assert nerve.skeleton_components() == tuple(skeleton)
    assert nerve.is_connected() == (len(skeleton) <= 1)


@given(st.integers(0, 9), st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9))), st.booleans())
def test_components_helper_on_graphs_and_complements(n, pairs, complement):
    vertices = [f"x{i}" for i in range(n)]
    edges = {frozenset((f"x{a}", f"x{b}")) for a, b in pairs if a != b and max(a, b) < n}
    adjacent = {v: {w for e in edges if v in e for w in e if w != v} for v in vertices}
    expected = reference_components(
        vertices, lambda u, v: (frozenset((u, v)) in edges) != complement
    )
    assert components(vertices, adjacent.__getitem__, complement=complement) == expected


def frozen_components(vertices, adjacent, *, complement=False) -> list[tuple[str, ...]]:
    """model.components as it was while both modes removed what they found with -=."""
    remaining = set(vertices)
    comps = []
    for start in sorted(remaining):
        if start not in remaining:
            continue
        remaining.discard(start)
        comp = [start]
        for u in comp:
            near = adjacent(u)
            found = remaining.difference(near) if complement else remaining.intersection(near)
            remaining -= found
            comp += found
            if not remaining:
                break
        comps.append(tuple(sorted(comp)))
    return comps


@st.composite
def graphs(draw):
    """Vertices with a neighbor function: a random graph, or a suspension of a cycle in any vertex order."""
    if draw(st.booleans()):
        n = draw(st.integers(0, 12))
        vertices = [f"x{i}" for i in range(n)]
        pairs = draw(st.sets(st.tuples(st.sampled_from(vertices), st.sampled_from(vertices)))) if n else set()
        adjacent = {v: [w for e in pairs if v in e for w in e if w != v] for v in vertices}
        return vertices, adjacent.__getitem__
    poles = draw(st.sampled_from([("a", "b"), ("c1_", "c3_"), ("n", "s")]))
    nerve = build_nerve(join_spec(cycle_spec(draw(st.integers(3, 40)), 2, prefix="c"), CoxeterSpec(poles, {})))
    return draw(st.permutations(nerve.vertices)), nerve.neighbors


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_components_equal_frozen_search_in_both_modes(graph):
    vertices, adjacent = graph
    for complement in (False, True):
        got = components(vertices, adjacent, complement=complement)
        assert got == frozen_components(vertices, adjacent, complement=complement)


@settings(max_examples=100, deadline=None)
@given(specs(max_vertices=6))
def test_chi_orb_equals_per_simplex_and_chain_sums(spec):
    nerve = build_nerve(spec)
    per_simplex = Fraction(1) + sum(
        (Fraction((-1) ** len(s), nerve.order(s)) for s in nerve.simplices()), Fraction(0)
    )
    assert chi_orb(nerve) == per_simplex == chi_orb_chain_sum(nerve)


def test_trace_links_equal_links_in_rebuilt_nerves():
    suspension = join_spec(cycle_spec(7, 2, prefix="c"), CoxeterSpec(["n", "s"], {}))
    cases = [
        (octahedron_spec(), ["x0", "x1", "y0", "y1"]),
        (icosahedron_spec(), ["t", "u0", "u1", "l0"]),
        (suspension, ["n", "c0", "c1", "c2"]),
    ]
    for spec, target in cases:
        trace = trace_vanishing(build_nerve(spec), target)
        assert len(trace.steps) == len(spec.vertices) - len(target)
        for step in trace.steps:
            rebuilt = build_nerve(induced_subspec(spec, step.before))
            assert step.link_vertices == link(rebuilt, step.removed).vertices
            assert step.after == tuple(v for v in step.before if v != step.removed)


def test_classified_spec_is_not_kept_alive():
    spec = complete_graph_spec(6, 3)
    for k in range(1, 4):
        for subset in combinations(spec.vertices, k):
            classify(spec, subset)
    nerve = build_nerve(spec)
    refs = (weakref.ref(spec), weakref.ref(nerve))
    del spec
    gc.collect()
    assert refs[0]() is not None  # the held nerve keeps its spec
    del nerve
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


# Irreducible finite types as (rank, diagram edges with labels >= 3, order).
FINITE_TYPES = {
    "A4": (4, [(0, 1, 3), (1, 2, 3), (2, 3, 3)], 120),
    "B3": (3, [(0, 1, 4), (1, 2, 3)], 48),
    "D4": (4, [(0, 1, 3), (1, 2, 3), (1, 3, 3)], 192),
    "D5": (5, [(0, 1, 3), (1, 2, 3), (2, 3, 3), (2, 4, 3)], 1920),
    "E6": (6, [(0, 1, 3), (1, 2, 3), (2, 3, 3), (3, 4, 3), (2, 5, 3)], 51840),
    "E7": (7, [(0, 1, 3), (1, 2, 3), (2, 3, 3), (3, 4, 3), (4, 5, 3), (2, 6, 3)], 2903040),
    "E8": (8, [(0, 1, 3), (1, 2, 3), (2, 3, 3), (3, 4, 3), (4, 5, 3), (5, 6, 3), (2, 7, 3)], 696729600),
    "F4": (4, [(0, 1, 3), (1, 2, 4), (2, 3, 3)], 1152),
    "H3": (3, [(0, 1, 5), (1, 2, 3)], 120),
    "H4": (4, [(0, 1, 5), (1, 2, 3), (2, 3, 3)], 14400),
    "I2(6)": (2, [(0, 1, 6)], 12),
    "A1": (1, [], 2),
}


def product_spec(types, vertices) -> CoxeterSpec:
    """A product of finite types laid out on the vertices in turn; cross pairs commute."""
    labels = dict.fromkeys(combinations(vertices, 2), 2)
    n = 0
    for name in types:
        rank, edges, _ = FINITE_TYPES[name]
        labels.update({(vertices[n + i], vertices[n + j]): m for i, j, m in edges})
        n += rank
    return CoxeterSpec(vertices, labels)


@st.composite
def finite_type_specs(draw, max_vertices=7):
    """Products of finite types under a random naming, sometimes with a few labels redrawn."""
    types, n = [], 0
    fitting = sorted(name for name, (rank, _, _) in FINITE_TYPES.items() if rank <= max_vertices)
    for name in draw(st.lists(st.sampled_from(fitting), min_size=1, max_size=3)):
        if n + FINITE_TYPES[name][0] <= max_vertices:
            types.append(name)
            n += FINITE_TYPES[name][0]
    vertices = draw(st.permutations([f"v{i}" for i in range(n)]))
    spec = product_spec(types, vertices)
    labels = {(u, v): m for u, v, m in spec.finite_edges()}
    for _ in range(draw(st.integers(0, 2)) if n >= 2 else 0):
        u, v = sorted(draw(st.permutations(vertices))[:2])
        labels[(u, v)] = draw(LABELS)
    return CoxeterSpec(vertices, {pair: m for pair, m in labels.items() if m != INFINITY})


def brute_force_nerve(spec) -> dict:
    """Every nonempty spherical subset with its order, each classified on its own."""
    out = {}
    for k in range(1, len(spec.vertices) + 1):
        for subset in combinations(sorted(spec.vertices), k):
            verdict = classify(spec, subset)
            if verdict.spherical:
                out[subset] = verdict.order
    return out


@settings(max_examples=200, deadline=None)
@given(st.one_of(specs(max_vertices=7), finite_type_specs()))
def test_nerve_equals_brute_force_classification(spec):
    nerve = build_nerve(spec)
    assert {s: nerve.order(s) for s in nerve.simplices()} == brute_force_nerve(spec)


@pytest.mark.parametrize("name", sorted(FINITE_TYPES))
def test_nerve_orders_finite_types(name):
    rank, _, order = FINITE_TYPES[name]
    # Vertex 0 of the diagram gets the greatest name, so the nerve adds it last;
    # at the D and E branch points the vertex added merges two components.
    spec = product_spec([name], [f"v{i}" for i in reversed(range(rank))])
    nerve = build_nerve(spec)
    assert nerve.order(spec.vertices) == order
    assert {s: nerve.order(s) for s in nerve.simplices()} == brute_force_nerve(spec)


def test_build_nerve_classifies_nothing(monkeypatch):
    calls = Counter()
    original = spherical_module.diagram_components

    def counting(*args):  # every classify call splits its subset into components first
        calls["classify"] += 1
        return original(*args)

    monkeypatch.setattr(spherical_module, "diagram_components", counting)
    e6_beside_i2 = product_spec(["E6", "I2(6)"], ["v5", "v0", "v3", "v1", "v4", "v2", "w0", "w1"])
    for spec in (icosahedron_spec(), complete_graph_spec(5, 3), e6_beside_i2):
        build_nerve(spec)
    assert calls == Counter()
    classify(e6_beside_i2, ["v0"])
    assert calls == {"classify": 1}  # the counter does see classification


def reference_recognize_sphere(complex_) -> SphereKind:
    """Sphere recognition that builds every vertex link and recognizes it as a circle."""
    dim = complex_.dimension
    if dim == 1:
        if not complex_.is_connected() or len(complex_.vertices) < 3:
            return SphereKind.NEITHER
        if all(len(complex_.neighbors(v)) == 2 for v in complex_.vertices):
            return SphereKind.CIRCLE
        return SphereKind.NEITHER
    if dim == 2:
        if not complex_.is_connected():
            return SphereKind.NEITHER
        V, E, F = len(complex_.vertices), len(complex_.edges), len(complex_.triangles)
        if V - E + F != 2:
            return SphereKind.NEITHER
        per_edge = Counter({e: 0 for e in complex_.edges})
        for a, b, c in complex_.triangles:
            per_edge.update([(a, b), (a, c), (b, c)])
        if any(count != 2 for count in per_edge.values()):
            return SphereKind.NEITHER
        for v in complex_.vertices:
            if reference_recognize_sphere(link(complex_, v)) is not SphereKind.CIRCLE:
                return SphereKind.NEITHER
        return SphereKind.TWO_SPHERE
    return SphereKind.NEITHER


@st.composite
def subdivided_spheres(draw):
    """A tetrahedron boundary under random stellar subdivisions of triangles and edges."""
    triangles = {frozenset(t) for t in combinations("abcd", 3)}
    for i in range(draw(st.integers(0, 8))):
        x = f"x{i}"
        t = draw(st.sampled_from(sorted(sorted(t) for t in triangles)))
        if draw(st.booleans()):
            triangles.remove(frozenset(t))
            triangles |= {frozenset((p, q, x)) for p, q in combinations(t, 2)}
        else:
            p, q = t[:2]
            for old in [s for s in triangles if {p, q} <= s]:
                (r,) = old - {p, q}
                triangles.remove(old)
                triangles |= {frozenset((p, r, x)), frozenset((q, r, x))}
    vertices = sorted(set().union(*triangles))
    return vertices, sorted(tuple(sorted(t)) for t in triangles)


@st.composite
def sphere_like_complexes(draw):
    """Subdivided spheres, sometimes damaged: a triangle dropped or added, a vertex pair glued,
    or two vertices glued to two of a second sphere (which keeps V - E + F = 2)."""
    vertices, triangles = draw(subdivided_spheres())
    damage = draw(st.sampled_from(["none", "drop", "add", "glue", "pinch"]))
    if damage == "drop":
        triangles.remove(draw(st.sampled_from(triangles)))
    elif damage == "add":
        triangles.append(tuple(sorted(draw(st.permutations(vertices))[:3])))
    elif damage == "glue":
        u, v = draw(st.permutations(vertices))[:2]
        triangles = [tuple(sorted(u if x == v else x for x in t)) for t in triangles]
        triangles = [t for t in triangles if len(set(t)) == 3]
        vertices = [x for x in vertices if x != v]
    elif damage == "pinch":
        other_vertices, other_triangles = draw(subdivided_spheres())
        a, b = draw(st.permutations(vertices))[:2]
        c, d = draw(st.permutations(other_vertices))[:2]
        rename = {x: {c: a, d: b}.get(x, f"y{x}") for x in other_vertices}
        vertices += [rename[x] for x in other_vertices if x not in (c, d)]
        triangles += [tuple(rename[x] for x in t) for t in other_triangles]
    return SimplicialComplex(vertices, triangles)


def two_octahedra_glued_at_both_poles() -> SimplicialComplex:
    triangles = [
        (pole, f"{side}{i}", f"{side}{(i + 1) % 4}")
        for side in "ab" for pole in "ns" for i in range(4)
    ]
    return SimplicialComplex(["n", "s"] + [f"{side}{i}" for side in "ab" for i in range(4)], triangles)


SPHERE_FIXTURES = [
    octahedron_spec(),
    icosahedron_spec(),
    join_spec(cycle_spec(9, 2, prefix="c"), CoxeterSpec(["n", "s"], {})),
    cycle_spec(6, 2),
    complete_graph_spec(5, 3),
    complete_bipartite_spec(3, 3),
]


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.builds(build_nerve, specs(max_vertices=8)),
        sphere_like_complexes(),
        st.sampled_from([build_nerve(spec) for spec in SPHERE_FIXTURES]),
    )
)
def test_recognize_sphere_equals_link_reference(complex_):
    assert recognize_sphere(complex_) is reference_recognize_sphere(complex_)


@st.composite
def spheres_with_swapped_edges(draw):
    """A subdivided sphere with one to three edges swapped for as many non-edges.  The
    constructor puts the removed edges back, so V - E + F falls below 2."""
    vertices, triangles = draw(subdivided_spheres().filter(lambda case: len(case[0]) > 4))
    closed = SimplicialComplex(vertices, triangles)
    non_edges = [p for p in combinations(vertices, 2) if not closed.has_simplex(p)]
    k = draw(st.integers(1, min(3, len(non_edges))))
    removed = draw(st.permutations(closed.edges))[:k]
    added = draw(st.permutations(non_edges))[:k]
    return SimplicialComplex(vertices, [s for s in closed.simplices() if s not in removed] + added)


@settings(max_examples=100, deadline=None)
@given(spheres_with_swapped_edges())
def test_recognize_sphere_rejects_swapped_edges(complex_):
    V, E, F = len(complex_.vertices), len(complex_.edges), len(complex_.triangles)
    assert V - E + F < 2
    assert recognize_sphere(complex_) is SphereKind.NEITHER
    assert reference_recognize_sphere(complex_) is SphereKind.NEITHER


def test_recognize_sphere_rejects_pinched_octahedra():
    pinched = two_octahedra_glued_at_both_poles()
    V, E, F = len(pinched.vertices), len(pinched.edges), len(pinched.triangles)
    assert pinched.is_connected() and V - E + F == 2
    assert len(link(pinched, "n").skeleton_components()) == 2
    assert recognize_sphere(pinched) is SphereKind.NEITHER
    assert reference_recognize_sphere(pinched) is SphereKind.NEITHER


def test_recognize_sphere_rejects_spheres_with_pendant_pieces():
    # Each keeps V - E + F = 2 and connectivity; only the edge and link checks can reject it.
    octahedron = build_nerve(octahedron_spec())
    triangles = list(octahedron.triangles)
    cases = [
        ([], [("x0", "p")]),  # a pendant edge
        ([("x0", "a", "b")], []),  # a pendant triangle on one vertex
        ([("x0", "y0", "q")], []),  # a flap on an edge, which then lies in three triangles
    ]
    for extra_triangles, extra_edges in cases:
        vertices = sorted({v for s in triangles + extra_triangles + extra_edges for v in s})
        complex_ = SimplicialComplex(vertices, triangles + extra_triangles + extra_edges)
        V, E, F = len(complex_.vertices), len(complex_.edges), len(complex_.triangles)
        assert complex_.is_connected() and V - E + F == 2
        assert recognize_sphere(complex_) is SphereKind.NEITHER
        assert reference_recognize_sphere(complex_) is SphereKind.NEITHER


def test_recognize_sphere_rejects_triangles_on_non_edges():
    # An octahedron with poles n, s over the square x0 x1 x2 x3, some edges under its triangles
    # swapped for non-edges.  The constructor puts the removed edges back, so each complex is
    # the octahedron with the non-edges added, and V - E + F falls below 2.
    square = [f"x{i}" for i in range(4)]
    triangles = [(pole, square[i], square[(i + 1) % 4]) for pole in "ns" for i in range(4)]
    octahedron = SimplicialComplex(["n", "s"] + square, triangles)
    for removed, added in (
        ([("x0", "x1"), ("x2", "x3")], [("x0", "x2"), ("x1", "x3")]),
        ([("n", "x0")], [("n", "s")]),
    ):
        simplices = [t for t in octahedron.simplices() if t not in removed] + added
        complex_ = SimplicialComplex(octahedron.vertices, simplices)
        assert complex_ == SimplicialComplex(octahedron.vertices, [*octahedron.simplices(), *added])
        V, E, F = len(complex_.vertices), len(complex_.edges), len(complex_.triangles)
        assert complex_.is_connected() and V - E + F == 2 - len(added)
        assert recognize_sphere(complex_) is SphereKind.NEITHER
        assert reference_recognize_sphere(complex_) is SphereKind.NEITHER


SEVEN_VERTEX_TORUS = [
    tuple(f"t{(i + k) % 7}" for k in ks) for i in range(7) for ks in ((0, 1, 3), (0, 2, 3))
]
SIX_VERTEX_PROJECTIVE_PLANE = [
    tuple(f"p{x}" for x in t)
    for t in ((1, 2, 4), (1, 2, 6), (1, 3, 4), (1, 3, 5), (1, 5, 6), (2, 3, 5), (2, 3, 6), (2, 4, 5), (3, 4, 6), (4, 5, 6))
]


def test_recognize_sphere_rejects_disconnected_pieces_with_circle_links():
    octahedron = build_nerve(octahedron_spec())
    torus_vertices = [f"t{i}" for i in range(7)]
    beside_torus = SimplicialComplex(list(octahedron.vertices) + torus_vertices, list(octahedron.triangles) + SEVEN_VERTEX_TORUS)
    # A projective plane and a lone vertex: Euler's formula holds, and the lone vertex has no link.
    beside_point = SimplicialComplex([f"p{i}" for i in range(1, 7)] + ["z"], SIX_VERTEX_PROJECTIVE_PLANE)
    for complex_ in (beside_torus, beside_point):
        V, E, F = len(complex_.vertices), len(complex_.edges), len(complex_.triangles)
        assert not complex_.is_connected() and V - E + F == 2
        assert all(recognize_sphere(link(complex_, v)) is SphereKind.CIRCLE for v in complex_.vertices if complex_.neighbors(v))
        assert recognize_sphere(complex_) is SphereKind.NEITHER
        assert reference_recognize_sphere(complex_) is SphereKind.NEITHER


def test_recognize_sphere_searches_components_last(monkeypatch):
    torus = SimplicialComplex([f"t{i}" for i in range(7)], SEVEN_VERTEX_TORUS)  # V - E + F = 0
    calls = Counter()
    original = SimplicialComplex.skeleton_components

    def counting(self):
        calls["components"] += 1
        return original(self)

    monkeypatch.setattr(SimplicialComplex, "skeleton_components", counting)
    assert recognize_sphere(torus) is SphereKind.NEITHER
    assert calls == Counter()
    assert recognize_sphere(build_nerve(octahedron_spec())) is SphereKind.TWO_SPHERE
    assert calls == {"components": 1}  # a sphere is still checked to be connected


def test_recognize_sphere_builds_no_complex(monkeypatch):
    nerve = build_nerve(join_spec(cycle_spec(400, 2, prefix="c"), CoxeterSpec(["n", "s"], {})))
    built = Counter()
    original = SimplicialComplex.__init__

    def counting(self, *args, **kwargs):
        built[type(self).__name__] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(SimplicialComplex, "__init__", counting)
    assert recognize_sphere(nerve) is SphereKind.TWO_SPHERE
    assert built == Counter()


def test_held_nerve_is_reused(monkeypatch):
    spec = complete_graph_spec(5, 3)
    nerve = build_nerve(spec)
    assert build_nerve(spec) is nerve
    assert build_nerve(complete_graph_spec(5, 3)) is not nerve  # an equal spec is another object
    calls = Counter()
    original_match, original_index = nerve_module._match_component, SimplicialComplex._index

    def counting_match(*args):
        calls["match"] += 1
        return original_match(*args)

    def counting_index(self, *args, **kwargs):  # every complex, view or not, is indexed here
        calls["complex"] += 1
        original_index(self, *args, **kwargs)

    monkeypatch.setattr(nerve_module, "_match_component", counting_match)
    monkeypatch.setattr(SimplicialComplex, "_index", counting_index)
    assert certify_nonplanar(spec).verdict == "NotPlanar"
    assert calls == Counter()
    del nerve
    gc.collect()
    assert certify_nonplanar(spec).verdict == "NotPlanar"
    assert calls["match"] > 0 and calls["complex"] == 1  # with no nerve held, it is rebuilt


def test_suspension_is_recognized_and_summed_once(monkeypatch):
    nerve = build_nerve(suspension_spec(400))
    calls = Counter()
    recognize = nerve_module._recognize_sphere

    def counting_recognize(complex_):
        calls["recognize"] += complex_ is nerve
        return recognize(complex_)

    class CountingOrders(dict):
        def items(self):  # a chi sum reads every level's orders; a view reads its levels one by one
            calls["chi_sum"] += 1
            return super().items()

    monkeypatch.setattr(nerve_module, "_recognize_sphere", counting_recognize)
    count_whole_set_classifications(monkeypatch, calls, nerve.vertices)
    nerve._orders = CountingOrders(nerve._orders)
    assert recognize_sphere(nerve) is SphereKind.TWO_SPHERE
    assert chi_orb(nerve) == 0
    assert betti(nerve).as_tuple() == (0, 0, 0, 0)
    half = ["n"] + [f"c{i}" for i in range(200)]
    sub, witness = full_subcomplex(nerve, half)
    assert betti(sub, RuleContext(witness=witness)).as_tuple()[2:] == (0, 0)
    target = [v for v in nerve.vertices if v not in ("c397", "c398", "c399")]
    assert len(trace_vanishing(nerve, target).steps) == 3
    assert betti(nerve).as_tuple() == (0, 0, 0, 0)  # a second call reads the held sphere kind
    assert calls == {"recognize": 1, "chi_sum": 1}  # and nothing classifies the whole vertex set


def test_cap_counts_every_simplex_of_a_fresh_build(monkeypatch):
    size = len(build_nerve(complete_graph_spec(5, 3)).simplices())
    monkeypatch.setattr(nerve_module, "_SIMPLEX_CAP", size)
    assert len(build_nerve(complete_graph_spec(5, 3)).simplices()) == size
    for cap in (size - 1, 4, 0):  # the last simplex, and caps below the vertex count
        monkeypatch.setattr(nerve_module, "_SIMPLEX_CAP", cap)
        with pytest.raises(CapExceeded, match=f"^nerve exceeds {cap} simplices$"):
            build_nerve(complete_graph_spec(5, 3))


def _exhaustive_planar(graph) -> bool:
    """Planarity by trying every rotation system: one per component must have V - E + F = 2."""
    V = len(graph.vertices)
    if V >= 3 and len(graph.edges) > 3 * V - 6:
        return False
    for comp in graph.skeleton_components():
        E = sum(len(graph.neighbors(v)) for v in comp) // 2
        options = [
            [(ns[0], *rest) for rest in permutations(ns[1:])] if ns else [()]
            for ns in map(graph.neighbors, comp)
        ]
        if not any(_face_count(comp, choice) == 2 - len(comp) + E for choice in product(*options)):
            return False
    return True


def _face_count(vertices, rotations) -> int:
    follow = {}
    for v, order in zip(vertices, rotations):
        for i, u in enumerate(order):
            follow[(v, u)] = order[(i + 1) % len(order)]
    seen = set()
    faces = 1 if not follow else 0  # a lone vertex bounds one region
    for dart in follow:
        if dart in seen:
            continue
        faces += 1
        u, v = dart
        while (u, v) not in seen:
            seen.add((u, v))
            u, v = v, follow[(v, u)]
    return faces


def _systems(edges) -> int:
    degree = {}
    for e in edges:
        for v in e:
            degree[v] = degree.get(v, 0) + 1
    total = 1
    for d in degree.values():
        for k in range(2, d):
            total *= k
    return total


SEARCH_LIMIT = 8000  # rotation systems the exhaustive reference may try per graph


@st.composite
def small_graphs(draw):
    """Graphs on at most 8 vertices, each small enough for the exhaustive search.

    A base shape (random, tree, two disjoint pieces, two pieces sharing a cut
    vertex, or a subdivided K5 or K3,3) gets extra edges, each kept only
    while the rotation search space stays within SEARCH_LIMIT.
    """
    kind = draw(st.sampled_from(["random", "tree", "disjoint", "cut", "K5", "K3,3"]))
    n = draw(st.integers(0 if kind == "random" else 2, 8))
    vertices = [f"v{i}" for i in range(n)]
    base = []
    if kind == "tree":
        base = [(f"v{draw(st.integers(0, i - 1))}", f"v{i}") for i in range(1, n)]
    elif kind in ("disjoint", "cut"):
        k = draw(st.integers(1, n - 1))
        glue = 1 if kind == "cut" else 0
        pieces = [vertices[: k + glue], vertices[k:]]
        pairs = [p for piece in pieces for p in combinations(piece, 2)]
        base = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    elif kind in ("K5", "K3,3"):
        branch = 5 if kind == "K5" else 6
        n = max(n, branch)
        vertices = [f"v{i}" for i in range(n)]
        if kind == "K5":
            base = list(combinations(vertices[:5], 2))
        else:
            base = [(u, v) for u in vertices[:3] for v in vertices[3:6]]
        for w in vertices[branch : draw(st.integers(branch, n))]:  # subdivide edges
            u, v = base.pop(draw(st.integers(0, len(base) - 1)))
            base += [(u, w), (w, v)]
    edges = []
    for e in base:
        if _systems(edges + [e]) <= SEARCH_LIMIT or kind in ("K5", "K3,3"):
            edges.append(e)
    all_pairs = list(combinations(vertices, 2))
    extra = draw(st.lists(st.sampled_from(all_pairs), max_size=6)) if all_pairs else []
    for e in extra:
        if e not in edges and (e[1], e[0]) not in edges and _systems(edges + [e]) <= SEARCH_LIMIT:
            edges.append(e)
    return SimplicialComplex(vertices, edges)


@settings(max_examples=100, deadline=None)
@given(small_graphs())
def test_lr_oracle_equals_exhaustive_search(graph):
    assert brute_force_planar(graph) == _exhaustive_planar(graph)


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_planar_rotation_passes_validate_embedding(graph):
    assert outcome(planar_rotation, graph) == outcome(reference_planar_rotation, graph)
    rot = planar_rotation(graph)
    if rot is not None:
        out = validate_embedding(graph, rot)
        assert sorted(v for comp, _ in out for v in comp) == sorted(graph.vertices)


def _planar_graph(rng: random.Random, n: int, keep: float):
    """A random stacked triangulation on n >= 3 vertices with each edge kept at rate keep."""
    faces = [(0, 1, 2), (0, 2, 1)]
    edges = {(0, 1), (1, 2), (0, 2)}
    for w in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        faces += [(a, b, w), (b, c, w), (c, a, w)]
        edges |= {(a, w), (b, w), (c, w)}
    return [e for e in sorted(edges) if rng.random() < keep]


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 200), st.floats(0.6, 1.0), st.booleans(), st.integers(0, 2 ** 32))
def test_lr_oracle_agrees_with_networkx(n, keep, extra, seed):
    nx = pytest.importorskip("networkx")
    rng = random.Random(seed)
    pairs = _planar_graph(rng, n, keep)
    if extra:
        u, v = rng.sample(range(n), 2)
        pairs.append((min(u, v), max(u, v)))
    vertices = [f"x{i}" for i in range(n)]
    graph = SimplicialComplex(vertices, [(f"x{u}", f"x{v}") for u, v in set(pairs)])
    rot = planar_rotation(graph)
    assert (rot is not None) == nx.check_planarity(nx.Graph(pairs))[0]
    if rot is not None:
        validate_embedding(graph, rot)


def _reference_faces(skeleton, rot):
    """Face walks restarted from min(remaining), each rotated to its least edge by trying all rotations."""
    remaining = {(a, b) for a, b in skeleton.edges} | {(b, a) for a, b in skeleton.edges}
    faces = []
    while remaining:
        start = min(remaining)
        walk = []
        cur = start
        while True:
            walk.append(cur)
            remaining.discard(cur)
            u, v = cur
            cur = (v, rot._next[v, u])
            if cur == start:
                break
        faces.append(min(tuple(walk[i:] + walk[:i]) for i in range(len(walk))))
    return sorted(faces)


@settings(max_examples=150, deadline=None)
@given(small_graphs(), st.randoms(use_true_random=False), st.booleans())
def test_face_tracing_equals_restarting_reference(graph, rnd, embedded):
    comp = max(graph.skeleton_components(), key=len, default=())
    if len(comp) < 2:
        return
    sub = SimplicialComplex(comp, [s for s in graph.simplices() if set(s) <= set(comp)])
    rot = planar_rotation(sub) if embedded else None
    if rot is None:
        rot = RotationSystem({v: rnd.sample(sub.neighbors(v), len(sub.neighbors(v))) for v in comp})
    faces = _reference_faces(sub, rot)
    if len(sub.vertices) - len(sub.edges) + len(faces) == 2:
        assert validate_embedding(sub, rot) == [(sub.vertices, tuple(faces))]
    else:
        with pytest.raises(NotSpherical):
            validate_embedding(sub, rot)


# One face tracer: the per-component references it replaced --------------------------------


Walk = tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class FaceSet:
    """The face walks of a component, as face tracing returned them before they came as a tuple."""

    faces: tuple[Walk, ...]

    def __len__(self) -> int:
        return len(self.faces)


def _is_simple(walk: Walk) -> bool:
    heads = [u for u, _ in walk]
    return len(set(heads)) == len(heads)


def reference_restrict(rot, vertices) -> RotationSystem:
    keep = set(vertices)
    return RotationSystem({v: [u for u in rot._rot[v] if u in keep] for v in keep if v in rot._rot})


def reference_faces_from_rotation(skeleton, rot) -> FaceSet:
    """faces_from_rotation as it was: its own connectivity and edge-set checks, then one trace."""
    if not skeleton.is_connected():
        raise ValueError("face tracing requires a connected skeleton")
    rot.check_against(skeleton)
    if not skeleton.edges:
        if len(skeleton.vertices) != 1:
            raise ValueError("edgeless skeleton with several vertices is disconnected")
        return FaceSet(((),))
    directed = sorted([(a, b) for a, b in skeleton.edges] + [(b, a) for a, b in skeleton.edges])
    used, faces = set(), []
    for start in directed:
        if start in used:
            continue
        walk, cur = [], start
        while True:
            walk.append(cur)
            used.add(cur)
            u, v = cur
            cur = (v, rot._next[v, u])
            if cur == start:
                break
        faces.append(tuple(walk))
    V, E = len(skeleton.vertices), len(skeleton.edges)
    if V - E + len(faces) != 2:
        raise NotSpherical(f"V - E + F = {V} - {E} + {len(faces)} != 2: rotation has positive genus")
    return FaceSet(tuple(faces))


def reference_component_faces(complex_, rot):
    """Each component copied into a view with a restricted rotation, then traced on its own."""
    for comp in complex_.skeleton_components():
        sub = complex_._view(comp)
        yield comp, sub, reference_faces_from_rotation(sub, reference_restrict(rot, comp))


def reference_validate_embedding(complex_, rot):
    if not isinstance(rot, RotationSystem):
        rot = RotationSystem.from_document(rot)
    if complex_.dimension > 2:
        raise ValueError("embedding witnesses only apply to complexes of dimension <= 2")
    rot.check_against(complex_)
    out = []
    for comp, sub, faceset in reference_component_faces(complex_, rot):
        triangles = {
            frozenset(u for u, _ in face) for face in faceset.faces if len(face) == 3 and _is_simple(face)
        }
        for t in sub.triangles:
            if frozenset(t) not in triangles:
                raise NotSpherical(f"2-simplex {t} is not a face of the embedding")
        out.append((comp, faceset))
    return out


def reference_planar_rotation(graph):
    V = len(graph.vertices)
    if V >= 3 and len(graph.edges) > 3 * V - 6:
        return None
    rotations = {}
    for comp in graph.skeleton_components():
        order = planarity._lr_rotation(comp, graph.neighbors)
        if order is None:
            return None
        rotations.update(order)
    rot = RotationSystem(rotations)
    for _ in reference_component_faces(graph, rot):
        pass
    return rot


@st.composite
def rotated_complexes(draw):
    """One to three disjoint pieces on interleaved vertex names, some filled 3-cycles, and a rotation.

    The rotation is a random one, the left-right one, or either with a vertex left out; with the
    left-right rotation the filled triangles are drawn from its triangular faces more often.
    """
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    names = draw(st.permutations([f"v{i}" for i in range(sum(sizes))]))
    edges, start = [], 0
    for size in sizes:
        piece = names[start:start + size]
        start += size
        edges += [(piece[draw(st.integers(0, i - 1))], piece[i]) for i in range(1, size)]  # a tree
        pairs = list(combinations(piece, 2))
        edges += draw(st.lists(st.sampled_from(pairs), max_size=6)) if pairs else []
    graph = SimplicialComplex(names, edges)
    kind = draw(st.sampled_from(["random", "planar", "random-missing", "planar-missing"]))
    rot = planar_rotation(graph) if kind.startswith("planar") else None
    if rot is None:
        rot = RotationSystem({v: draw(st.permutations(graph.neighbors(v))) for v in names})
    cycles = [t for t in combinations(sorted(names), 3) if all(graph.has_simplex(e) for e in combinations(t, 2))]
    if kind.startswith("planar") and draw(st.booleans()):
        try:
            faces = [f for _, fs in reference_validate_embedding(graph, rot) for f in fs.faces if len(f) == 3]
            cycles = sorted({tuple(sorted(u for u, _ in f)) for f in faces}) or cycles
        except NotSpherical:
            pass
    filled = draw(st.lists(st.sampled_from(cycles), unique=True)) if cycles else []
    complex_ = SimplicialComplex(names, list(graph.simplices()) + filled)
    if kind.endswith("missing"):
        gone = draw(st.sampled_from(names))
        rot = RotationSystem({v: ns for v, ns in rot._rot.items() if v != gone})
    return complex_, rot


def outcome(fn, *args):
    try:
        got = fn(*args)
    except ValueError as exc:  # NotSpherical is a ValueError
        return type(exc), str(exc)
    if isinstance(got, list):  # (component, walks) pairs; the references wrap the walks in a FaceSet
        return [(comp, getattr(walks, "faces", walks)) for comp, walks in got]
    return got._rot if isinstance(got, RotationSystem) else got


@settings(max_examples=400, deadline=None)
@given(rotated_complexes())
def test_one_tracer_equals_per_component_references(case):
    complex_, rot = case
    assert outcome(validate_embedding, complex_, rot) == outcome(reference_validate_embedding, complex_, rot)
    skeleton = complex_._view(complex_.vertices)  # the same vertices and edges, for planar_rotation
    assert outcome(planar_rotation, skeleton) == outcome(reference_planar_rotation, skeleton)


def separated_bipyramid_beside_twisted_k4(first: str) -> tuple[SimplicialComplex, RotationSystem]:
    """Two components: a bipyramid whose filled equator bounds no face, and K4 on a torus.

    The component named first comes first in the skeleton's component order.
    """
    other = "b" if first == "a" else "a"
    pyr = [f"{first}{i}" for i in range(5)]  # equator 0, 1, 2 with poles 3, 4
    k4 = [f"{other}{i}" for i in range(4)]
    edges = list(combinations(pyr[:3], 2)) + [(p, q) for p in pyr[3:] for q in pyr[:3]]
    edges += list(combinations(k4, 2))
    graph = SimplicialComplex(pyr + k4, edges)
    rotations = dict(planar_rotation(graph._view(tuple(pyr)))._rot)
    twisted = {0: (1, 2, 3), 1: (0, 3, 2), 2: (0, 1, 3), 3: (0, 1, 2)}  # V - E + F = 4 - 6 + 2
    rotations.update({k4[v]: [k4[u] for u in ns] for v, ns in twisted.items()})
    complex_ = SimplicialComplex(graph.vertices, list(graph.simplices()) + [tuple(pyr[:3])])
    return complex_, RotationSystem(rotations)


def test_first_component_error_comes_first():
    for first, expected in (("a", "2-simplex ('a0', 'a1', 'a2') is not a face"), ("b", "positive genus")):
        complex_, rot = separated_bipyramid_beside_twisted_k4(first)
        with pytest.raises(NotSpherical, match=re.escape(expected)):
            validate_embedding(complex_, rot)
        assert outcome(validate_embedding, complex_, rot) == outcome(reference_validate_embedding, complex_, rot)


def count_calls(monkeypatch, owner, names) -> Counter:
    calls = Counter()
    for name in names:
        def wrapper(*args, _name=name, _fn=getattr(owner, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_validate_embedding_on_c200_searches_components_once(monkeypatch):
    nerve = build_nerve(cycle_spec(200, 2))
    rot = RotationSystem({v: list(nerve.neighbors(v)) for v in nerve.vertices})
    searches = count_calls(monkeypatch, nerve_module, ["components"])
    views = count_calls(monkeypatch, SimplicialComplex, ["_view"])
    built = count_calls(monkeypatch, RotationSystem, ["__init__"])
    ((comp, faces),) = validate_embedding(nerve, rot)
    assert comp == tuple(sorted(nerve.vertices)) and len(faces) == 2
    assert searches == {"components": 1} and views == built == Counter()
    validate_embedding(nerve, rot)
    assert searches == {"components": 1}  # held on the nerve


def test_cone_of_c200_searches_components_twice(monkeypatch):
    nerve = build_nerve(cycle_spec(200, 2))
    rot = {v: list(nerve.neighbors(v)) for v in nerve.vertices}
    searches = count_calls(monkeypatch, nerve_module, ["components"])
    views = count_calls(monkeypatch, SimplicialComplex, ["_view"])
    cone_construction(nerve, rot)
    # The input once (the connectivity check holds it for the tracer) and the cone in
    # recognize_sphere; each face's simplices are read from the levels and the witness
    # from the neighbors.
    assert searches == {"components": 2} and views == Counter()


def test_planar_rotation_searches_components_once(monkeypatch):
    graph = build_nerve(join_spec(cycle_spec(50, 2, prefix="c"), CoxeterSpec(["n", "s"], {})))
    graph = graph._view(graph.vertices)  # the same vertices and simplices, nothing held yet
    searches = count_calls(monkeypatch, nerve_module, ["components"])
    assert planar_rotation(graph) is not None
    assert searches == {"components": 1}


def test_certifying_a_disconnected_subject_checks_and_searches_no_component(monkeypatch):
    cycle, k5 = cycle_spec(4, 2, prefix="c"), complete_graph_spec(5, 3, prefix="p")
    labels = {(u, v): m for u, v, m in (*k5.finite_edges(), *cycle.finite_edges())}
    spec = CoxeterSpec((*k5.vertices, *cycle.vertices), labels)
    nerve = build_nerve(spec)  # held by the spec while the test holds it, with no search made yet
    checked = Counter()
    check_subset = CoxeterSpec.check_subset

    def counting(self, subset):
        checked["subject" if self is spec else "component"] += 1
        return check_subset(self, subset)

    monkeypatch.setattr(CoxeterSpec, "check_subset", counting)
    searches = count_calls(monkeypatch, nerve_module, ["components"])
    cert = certify_nonplanar(spec)
    assert cert.verdict == "NotPlanar" and cert.bound == Fraction(1, 6)
    # The subject's components are split off without a check; the circle's sphere test finds
    # its component held, so the subject's own search is the only one.
    assert checked["subject"] == 0 and searches == {"components": 1}
    assert nerve.skeleton_components() == (cycle.vertices, k5.vertices)  # by least vertex


def reference_star(vertices, simplices) -> dict[str, list[tuple[str, ...]]]:
    """The simplices at each vertex, in the order given: the star map complexes once kept."""
    star: dict[str, list[tuple[str, ...]]] = {v: [] for v in vertices}
    for s in simplices:
        for v in s:
            star[v].append(s)
    return star


def reference_is_full(ambient, sub) -> bool:
    """is_full_subcomplex as it was: the spanned simplices read off the ambient stars, compared as a set."""
    star = reference_star(ambient.vertices, ambient.simplices())
    if not all(v in star for v in sub.vertices):
        return False
    keep, simplices = set(sub.vertices), set(sub.simplices())
    spanned = [s for v in keep for s in star[v] if s[0] == v and keep.issuperset(s)]
    return len(spanned) == len(simplices) and all(s in simplices for s in spanned)


@st.composite
def fullness_cases(draw):
    """An ambient complex, a candidate subcomplex, and whether it is full."""
    if draw(st.booleans()):  # unsorted faces, which the constructor closes
        faces = st.lists(st.sampled_from("abcde"), min_size=1, max_size=4, unique=True)
        ambient = SimplicialComplex("abcde", draw(st.lists(faces, max_size=8)))
        return ambient, ambient._view(tuple(draw(st.permutations("abcde"))[:draw(st.integers(0, 5))])), True
    spec, subset = draw(st.one_of(specs_with_subset(), spheres_with_subset()))
    nerve = build_nerve(spec)
    plain = SimplicialComplex(draw(st.permutations(nerve.vertices)), nerve.simplices())
    view = nerve._view(tuple(subset))
    kind = draw(st.sampled_from(["view", "view minus a simplex", "shuffled copy", "nerve", "unknown vertex"]))
    if kind == "view":
        return draw(st.sampled_from([nerve, plain])), view, True
    # A maximal simplex of dimension >= 1: the closure would put back any other.
    maximal = [s for s in view.simplices() if len(s) > 1 and not any(set(s) < set(t) for t in view.simplices(len(s)))]
    if kind == "view minus a simplex" and maximal:
        dropped = draw(st.sampled_from(maximal))
        return nerve, SimplicialComplex(view.vertices, [s for s in view.simplices() if s != dropped]), False
    if kind == "shuffled copy":
        return nerve, SimplicialComplex(draw(st.permutations(view.vertices)), view.simplices()), True
    if kind == "nerve":  # Nerve.__eq__ declines a plain complex, so the comparison is reflected
        return plain, induced_nerve(nerve, subset), True
    return nerve, SimplicialComplex([*view.vertices, "zz"], view.simplices()), False


@settings(max_examples=300, deadline=None)
@given(fullness_cases())
def test_is_full_subcomplex_equals_star_reference(case):
    ambient, sub, full = case
    assert is_full_subcomplex(ambient, sub) == reference_is_full(ambient, sub) == full


def test_trace_on_suspension_restricts_no_spec(monkeypatch):
    nerve = build_nerve(join_spec(cycle_spec(50, 2, prefix="c"), CoxeterSpec(["n", "s"], {})))
    target = ["n", *nerve.vertices[:10]]
    calls = count_calls(monkeypatch, CoxeterSpec, ["_restrict"])
    induced = count_calls(monkeypatch, nerve_module, ["induced_nerve"])
    split = count_calls(monkeypatch, planarity, ["_component_nerve"])
    built = count_calls(monkeypatch, SimplicialComplex, ["_view", "__init__", "_index"])
    trace = trace_vanishing(nerve, target)
    assert len(trace.steps) == len(nerve.vertices) - len(target) == 41
    # Each link and its fullness are read from the ambient neighbors: no complex, view or
    # link, is built (every complex is indexed by _index).
    assert calls == induced == split == built == Counter()


def test_trace_on_suspension_reads_no_level():
    nerve = build_nerve(suspension_spec(50))
    assert recognize_sphere(nerve) is SphereKind.TWO_SPHERE  # the kind is held from here on
    reads = Counter()

    class CountingLevels(Mapping):
        def __init__(self, levels):
            self.levels = levels

        def __getitem__(self, d):
            reads[d] += 1
            return self.levels[d]

        def __iter__(self):
            reads["iter"] += 1
            return iter(self.levels)

        def __len__(self):
            return len(self.levels)

    nerve._by_dim = CountingLevels(nerve._by_dim)
    trace = trace_vanishing(nerve, ["n", *nerve.vertices[:10]])
    # Each link is the removed vertex's remaining neighbors, full by the witness.
    assert len(trace.steps) == 41 and reads == Counter()
    assert nerve.has_simplex(("c0", "n")) and reads == {1: 1}  # the counter does see the levels


def reference_link(complex_, v):
    """link as it was: the simplices at v read off its star, the neighbors off its star's edges."""
    star = reference_star(complex_.vertices, complex_.simplices())
    if v not in star:
        raise KeyError(f"{v!r} is not a vertex")
    near = tuple(x for e in star[v] if len(e) == 2 for x in e if x != v)
    return SimplicialComplex(near, [tuple(x for x in s if x != v) for s in star[v] if len(s) > 1])


@st.composite
def complexes_with_queries(draw):
    """A complex, from unsorted input that the constructor closes or from build_nerve, and vertex sets to ask about.

    The queries mix its simplices (shuffled), other vertex sets, the empty set, and
    vertices the complex does not know.
    """
    if draw(st.booleans()):
        pool = ["a", "b", "c", "d", "e", "f"]
        vertices = draw(st.lists(st.sampled_from(pool[:5]), unique=True))  # f is never listed
        shuffled = st.lists(st.sampled_from(vertices), min_size=1, max_size=4, unique=True) if vertices else st.just(())
        complex_ = SimplicialComplex(vertices, draw(st.lists(shuffled, max_size=12)))
    else:
        spec = draw(st.one_of(specs(max_vertices=6), st.integers(3, 8).map(suspension_spec)))
        complex_ = build_nerve(spec)
        pool = list(spec.vertices) + ["f"]
    named = sorted(complex_.vertices)
    known = [list(draw(st.permutations(s))) for s in complex_.simplices()]
    other = st.lists(st.sampled_from([*pool, "zz"]), max_size=4, unique=True)
    sets = draw(st.lists(st.one_of(st.sampled_from(known or [[]]), other, st.just([])), max_size=8))
    return complex_, sets, [*named, "f", "zz"]


@settings(max_examples=300, deadline=None)
@given(complexes_with_queries())
def test_has_simplex_and_link_equal_star_references(case):
    complex_, sets, vertices = case
    simplices = set(complex_.simplices())
    for s in sets:
        assert complex_.has_simplex(s) == (tuple(sorted(s)) in simplices)
        assert complex_.has_simplex(iter(s)) == complex_.has_simplex(s)
    for v in vertices:
        try:
            ref = reference_link(complex_, v)
        except KeyError:
            with pytest.raises(KeyError):
                link(complex_, v)
            continue
        got = link(complex_, v)
        assert got == ref and list(got._neighbors.items()) == list(ref._neighbors.items())


class FiniteGroup(ValueError):
    pass


class DimensionTooHigh(ValueError):
    pass


@dataclass(frozen=True)
class Beta2Bound:
    value: Fraction
    provenance: str
    vector: BettiVector
    cited: CitedStep | None  # the engine's entry-2 step when the bound is its exact entry


def betti_lower_bound_dim2(nerve) -> Beta2Bound:
    """Certified lower bound for the dimension-2 entry, for nerves of dim <= 2.

    With W infinite and no chains above dimension 3, the alternating-sum
    identity gives chi_orb <= beta_2; an exact positive entry from the rule
    engine can only improve the bound, and is then cited as the engine set it.
    """
    if nerve.dimension > 2:
        raise DimensionTooHigh(f"nerve dimension {nerve.dimension} > 2")
    if classify(nerve.spec, nerve.vertices).spherical:
        raise FiniteGroup("the full vertex set is spherical, so W is finite")
    chi = chi_orb(nerve)
    vector = betti(nerve)
    value = Fraction(0)
    provenance = "trivial: entries are nonnegative"
    if chi > value:
        value = chi
        provenance = f"alternating-sum bound: chi_orb = {chi} <= beta_2"
    exact = vector.get(2)
    if exact is not UNKNOWN and exact > 0 and exact >= value:
        return Beta2Bound(
            exact, f"exact entry: {vector.provenance_for(2)}", vector, vector.step(2)
        )
    return Beta2Bound(value, provenance, vector, None)


def reference_certify(nerve) -> Certificate:
    """The certificate derived through the bound, citing an exact bound's engine step."""
    spec = nerve.spec
    if nerve.dimension > 2:
        return Certificate("Inconclusive", spec, Fraction(0), (), reason="DimensionTooHigh")
    if classify(spec, spec.vertices).spherical:
        return Certificate("Inconclusive", spec, Fraction(0), (), reason="FiniteGroup")
    components = nerve.skeleton_components()
    if len(components) > 1:
        notes = [
            f"subject has {len(components)} components; certified per component, "
            "a non-planar component makes the whole non-planar"
        ]
        # Certify by size tier, smallest first; the first tier that certifies cites its largest bound.
        for size in sorted({len(comp) for comp in components}):
            tier = [
                (comp, reference_certify(build_nerve(induced_subspec(spec, comp))))
                for comp in components if len(comp) == size
            ]
            notes += [
                f"component {{{','.join(comp)}}}: {cert.reason or 'ObstructionSilent'}"
                for comp, cert in tier if cert.verdict != "NotPlanar"
            ]
            certified = [(comp, cert) for comp, cert in tier if cert.verdict == "NotPlanar"]
            if certified:
                comp, sub_cert = max(certified, key=lambda pair: pair[1].bound)  # the first on a tie
                notes.append(f"witnessing component: {{{','.join(comp)}}}")
                return Certificate(
                    "NotPlanar", spec, sub_cert.bound, sub_cert.chain, notes=tuple(notes)
                )
        return Certificate(
            "Inconclusive", spec, Fraction(0), (), reason="ObstructionSilent", notes=tuple(notes)
        )
    chi = chi_orb(nerve)
    chain = [
        CitedStep("chi-orb", f"nerve on {len(nerve.vertices)} vertices", {"chi_orb": _rational(chi)}),
        CitedStep("R-b0", "W infinite", {"beta_0": "0/1"}),
    ]
    bound = betti_lower_bound_dim2(nerve)
    value = _rational(bound.value)
    if bound.cited is not None:
        chain.append(CitedStep(bound.cited.statement, bound.cited.applied_to, {"beta_2": value}))
    else:
        chain.append(
            CitedStep(
                "atiyah-bound",
                "alternating Betti sum equals chi_orb; dimension <= 2",
                {"beta_2_lower_bound": value},
            )
        )
    if bound.value > 0:
        chain.append(
            CitedStep(
                "planar-vanishing",
                "a complex of dimension <= 2 embeddable in the 2-sphere has beta_2 = 0",
                {"contradiction": f"beta_2 >= {value} > 0"},
            )
        )
        return Certificate("NotPlanar", spec, bound.value, tuple(chain))
    return Certificate("Inconclusive", spec, Fraction(0), tuple(chain), reason="ObstructionSilent")


def disjoint_union(a: CoxeterSpec, b: CoxeterSpec) -> CoxeterSpec:
    """Two systems side by side with every cross pair infinite; b's vertices gain a w prefix."""
    rename = {v: f"w{v}" for v in b.vertices}
    labels = {(u, v): m for u, v, m in a.finite_edges()}
    labels.update({(rename[u], rename[v]): m for u, v, m in b.finite_edges()})
    return CoxeterSpec(list(a.vertices) + list(rename.values()), labels)


PLANTED = st.sampled_from([complete_graph_spec(5, 3), complete_bipartite_spec(3, 3)])


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        specs(max_vertices=7),
        st.builds(disjoint_union, specs(max_vertices=4), specs(max_vertices=4)),
        st.builds(join_spec, specs(max_vertices=3), specs(max_vertices=3)),
        PLANTED,
        st.builds(disjoint_union, specs(max_vertices=3), PLANTED),
        st.builds(join_spec, PLANTED, specs(max_vertices=1)),
    )
)
def test_certificate_equals_bound_derivation(spec):
    expected = reference_certify(build_nerve(spec)).to_document()
    assert certify_nonplanar(spec).to_document() == expected


def test_beta2_bound_k5():
    bound = betti_lower_bound_dim2(build_nerve(complete_graph_spec(5, 3)))
    assert bound.value == Fraction(1, 6)
    assert "chi_orb" in bound.provenance


def test_beta2_bound_k33_prefers_join():
    bound = betti_lower_bound_dim2(build_nerve(complete_bipartite_spec(3, 3)))
    assert bound.value == Fraction(1, 4)
    assert "R-join" in bound.provenance


def test_beta2_bound_hexagon_trivial():
    bound = betti_lower_bound_dim2(build_nerve(cycle_spec(6, 2)))
    assert bound.value == 0


def test_beta2_bound_errors():
    with pytest.raises(FiniteGroup):
        betti_lower_bound_dim2(build_nerve(complete_graph_spec(3, 2)))
    deep = build_nerve(complete_graph_spec(4, 2))  # a 3-simplex
    with pytest.raises(DimensionTooHigh):
        betti_lower_bound_dim2(deep)


def count_whole_set_classifications(monkeypatch, calls, vertices):
    """Count, under "classify", each classify or matcher call on the whole vertex set, wherever it is reachable."""
    def counting(fn):
        def wrapper(spec, subset):
            if set(subset) == set(vertices):
                calls["classify"] += 1
            return fn(spec, subset)
        return wrapper

    for module in (spherical_module, nerve_module, invariants, planarity):
        for name in ("classify", "_match_component"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(getattr(module, name)))


def test_certify_k5_computes_chi_once_and_classifies_nothing_whole(monkeypatch):
    # W's finiteness is read off the nerve, so nothing classifies the whole vertex set
    spec = complete_graph_spec(5, 3)
    calls = Counter()
    original_chi = invariants.chi_orb

    def counting_chi(nerve):
        calls["chi_orb"] += 1
        return original_chi(nerve)

    monkeypatch.setattr(invariants, "chi_orb", counting_chi)
    count_whole_set_classifications(monkeypatch, calls, spec.vertices)
    assert not spherical_module.classify(spec, spec.vertices).spherical
    assert calls == {"classify": 2}  # the counter sees classify and its matcher on the whole set
    calls.clear()
    assert certify_nonplanar(spec).verdict == "NotPlanar"
    assert calls == {"chi_orb": 1}


# Front end: one-pass spec validation, the tuple matcher, the assembled cone --------------


def reference_match_component(spec, comp):
    """The matcher as it was: membership-checked label() reads, a record per match."""
    n = len(comp)
    members = set(comp)
    commuting_pairs = sum(len(spec.commuting(u) & members) for u in comp) // 2
    if n * (n - 1) // 2 - commuting_pairs != n - 1:
        return None
    pairs = [(u, v) for i, u in enumerate(comp) for v in comp[i + 1:]]
    if any(spec.label(u, v) == INFINITY for u, v in pairs):
        return None
    if n == 1:
        return FiniteTypeComponent("A", 1, 2, comp)
    if n == 2:
        m = int(spec.label(*comp))
        if m == 3:
            return FiniteTypeComponent("A", 2, 6, comp)
        if m == 4:
            return FiniteTypeComponent("B", 2, 8, comp)
        return FiniteTypeComponent("I2", 2, 2 * m, comp, m=m)
    edges = [(u, v, int(spec.label(u, v))) for u, v in pairs if spec.label(u, v) >= 3]
    adj = {v: [] for v in comp}
    for u, v, m in edges:
        adj[u].append((v, m))
        adj[v].append((u, m))
    degrees = {v: len(nb) for v, nb in adj.items()}
    if max(degrees.values()) > 3 or sum(1 for d in degrees.values() if d == 3) > 1:
        return None
    branch = [v for v, d in degrees.items() if d == 3]
    if branch:
        if any(m != 3 for _, _, m in edges):
            return None
        b = branch[0]
        arms = []
        for first, _ in adj[b]:
            length, prev, cur = 1, b, first
            while degrees[cur] == 2:
                nxt = [w for w, _ in adj[cur] if w != prev][0]
                prev, cur = cur, nxt
                length += 1
            arms.append(length)
        arms.sort()
        if arms[:2] == [1, 1]:
            return FiniteTypeComponent("D", n, 2 ** (n - 1) * math.factorial(n), comp)
        e_orders = {6: 51840, 7: 2903040, 8: 696729600}
        for rank, shape in ((6, [1, 2, 2]), (7, [1, 2, 3]), (8, [1, 2, 4])):
            if arms == shape:
                return FiniteTypeComponent(f"E{rank}", rank, e_orders[rank], comp)
        return None
    ends = [v for v, d in degrees.items() if d == 1]
    seq, prev, cur = [], None, min(ends)
    while True:
        nxt = [(w, m) for w, m in adj[cur] if w != prev]
        if not nxt:
            break
        (w, m) = nxt[0]
        seq.append(m)
        prev, cur = cur, w
    big = [m for m in seq if m >= 4]
    if not big:
        return FiniteTypeComponent("A", n, math.factorial(n + 1), comp)
    if len(big) > 1:
        return None
    m, pos = big[0], seq.index(big[0])
    at_end = pos in (0, len(seq) - 1)
    if m == 4:
        if at_end:
            return FiniteTypeComponent("B", n, 2 ** n * math.factorial(n), comp)
        if n == 4 and pos == 1:
            return FiniteTypeComponent("F4", 4, 1152, comp)
        return None
    if m == 5 and at_end:
        if n == 3:
            return FiniteTypeComponent("H3", 3, 120, comp)
        if n == 4:
            return FiniteTypeComponent("H4", 4, 14400, comp)
    return None


def reference_classify(spec, subset) -> SphericalVerdict:
    comps, order = [], 1
    for comp in diagram_components(spec, subset):
        match = reference_match_component(spec, comp)
        if match is None:
            return SphericalVerdict(False, (), 0)
        comps.append(match)
        order *= match.order
    return SphericalVerdict(True, tuple(comps), order)


@st.composite
def labelled_specs_with_subset(draw):
    spec = draw(st.one_of(specs(max_vertices=8), finite_type_specs(max_vertices=8)))
    subset = draw(st.lists(st.sampled_from(spec.vertices), unique=True)) if spec.vertices else []
    return spec, draw(st.one_of(st.just(list(spec.vertices)), st.just(subset)))


@settings(max_examples=300, deadline=None)
@given(labelled_specs_with_subset())
def test_classify_equals_record_matcher(case):
    spec, subset = case
    verdict, ref = classify(spec, subset), reference_classify(spec, subset)
    assert verdict == ref  # spherical, order, and kind, rank, order, m per component
    assert [c.name for c in verdict.components] == [c.name for c in ref.components]


def test_rank_3_is_read_from_the_labels_as_the_tree_walk_reads_it():
    # Every labelling of a triple's three pairs from {2, ..., 7, inf}; the connected ones are matched.
    labels = (2, 3, 4, 5, 6, 7, INFINITY)
    comp = ("a", "b", "c")
    kinds = Counter()
    for given in product(labels, repeat=3):
        pairs = dict(zip(combinations(comp, 2), given))
        spec = CoxeterSpec(["c", "a", "b"], {p: m for p, m in pairs.items() if m != INFINITY})
        verdict, ref = classify(spec, spec.vertices), reference_classify(spec, spec.vertices)
        assert verdict == ref
        assert [c.name for c in verdict.components] == [c.name for c in ref.components]
        if given.count(2) <= 1:  # diagram-connected
            match, record = spherical_module._match_component(spec, comp), reference_match_component(spec, comp)
            assert match == (record and (record.kind, record.rank, record.order, record.m))
            kinds[match and match[0]] += 1
    # A commuting pair beside {3, 3} (three places), {3, 4} or {3, 5} (six each); the rest is infinite.
    assert kinds == {"A": 3, "B": 6, "H3": 6, None: 6 ** 3 + 3 * 6 ** 2 - 15}


def reference_parse_spec(document) -> CoxeterSpec:
    """parse_spec as it was: every label checked here, then the vertices by the constructor."""
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise MalformedDocument(f"not valid JSON: {exc}") from exc
    if not isinstance(document, Mapping):
        raise MalformedDocument("document must be a JSON object")
    if "vertices" not in document:
        raise MalformedDocument("document lacks a 'vertices' field")
    vertices = document["vertices"]
    if not isinstance(vertices, list):
        raise MalformedDocument("'vertices' must be a list of strings")
    edges = document.get("edges", [])
    if not isinstance(edges, list):
        raise MalformedDocument("'edges' must be a list of {u, v, m} records")
    labels, infinite_pairs, vertex_set = {}, set(), set()
    for v in vertices:
        if not isinstance(v, str):
            raise MalformedDocument(f"vertex {v!r} is not a string")
        vertex_set.add(v)
    for rec in edges:
        if not isinstance(rec, Mapping) or not {"u", "v", "m"} <= set(rec):
            raise MalformedDocument(f"edge record {rec!r} must have fields u, v, m")
        u, v, m = rec["u"], rec["v"], rec["m"]
        if not isinstance(u, str) or not isinstance(v, str):
            raise MalformedDocument(f"edge endpoints {u!r}, {v!r} must be vertex strings")
        if u == v:
            raise MalformedDocument(f"edge ({u!r}, {v!r}) is a self-loop")
        if u not in vertex_set or v not in vertex_set:
            raise UnknownVertex(f"edge ({u!r}, {v!r}) mentions a non-vertex")
        key = (u, v) if u < v else (v, u)
        if m == "inf" or m == INFINITY:
            if key in labels:
                raise ConflictingLabel(f"edge {key} listed with labels {labels[key]} and inf")
            infinite_pairs.add(key)
            continue
        if not isinstance(m, int) or isinstance(m, bool):
            raise LabelOutOfRange(f"label m({u},{v}) = {m!r} is neither an integer nor 'inf'")
        if m < 2:
            raise LabelOutOfRange(f"label m({u},{v}) = {m} is below 2")
        if key in infinite_pairs:
            raise ConflictingLabel(f"edge {key} listed with labels inf and {m}")
        if key in labels and labels[key] != m:
            raise ConflictingLabel(f"edge {key} listed with labels {labels[key]} and {m}")
        labels[key] = m
    seen = set()  # the constructor's own vertex checks, which ran before its label checks
    for v in vertices:
        if not v:
            raise MalformedDocument(f"vertex identifier must be a non-empty string, got {v!r}")
        if v in seen:
            raise DuplicateVertex(f"duplicate vertex {v!r}")
        seen.add(v)
    return CoxeterSpec(vertices, labels)


NAMES = st.sampled_from(["a", "b", "c", "d", "e", "v10", "v2", "Z", "é"])
DOC_LABELS = st.sampled_from([2, 3, 4, 5, 6, 17, "inf"])


@st.composite
def valid_documents(draw):
    vertices = draw(st.lists(NAMES, unique=True, max_size=7))
    edges = []
    for u, v in combinations(vertices, 2):
        m = draw(st.one_of(st.none(), DOC_LABELS))
        if m is None:
            continue
        for _ in range(draw(st.integers(1, 2))):  # a repeated record with the same label is fine
            ends = [u, v] if draw(st.booleans()) else [v, u]
            rec = {"u": ends[0], "v": ends[1], "m": m}
            # A record may be any mapping, not only a dict.
            edges.append(MappingProxyType(rec) if draw(st.integers(0, 3)) == 0 else rec)
    order = draw(st.permutations(range(len(edges))))
    return {"vertices": vertices, "edges": [edges[i] for i in order]}


BAD_VERTICES = st.sampled_from(["", 3, None, ["a"], True])
BAD_LABELS = st.sampled_from([0, 1, -3, "x", 2.5, True, None, "Infinity", [3]])


@st.composite
def mutated_documents(draw):
    """A valid document with one to three faults, each at a random place."""
    doc = draw(valid_documents())
    vertices, edges = doc["vertices"], doc["edges"]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from([  # faults that end parsing at once come up less often
            "dup_vertex", "bad_vertex", "bad_record", "missing_field", "bad_endpoint", "self_loop",
            *["ghost", "bad_label", "conflict"] * 3,
            "vertices_not_list", "edges_not_list", "no_vertices", "not_mapping",
        ]))
        at = draw(st.integers(0, len(edges)))
        if kind == "dup_vertex" and vertices:
            vertices.insert(draw(st.integers(0, len(vertices))), draw(st.sampled_from(vertices)))
        elif kind == "bad_vertex":
            vertices.insert(draw(st.integers(0, len(vertices))), draw(BAD_VERTICES))
        elif kind == "vertices_not_list":
            doc["vertices"] = draw(st.sampled_from(["ab", {"a": 1}, 7]))
        elif kind == "edges_not_list":
            doc["edges"] = draw(st.sampled_from(["ab", {}, 7]))
        elif kind == "no_vertices":
            doc.pop("vertices", None)
        elif kind == "bad_record":
            edges.insert(at, draw(st.sampled_from(["ab", 5, None, ["a", "b", 2], ("a", "b", 2)])))
        elif kind == "missing_field":
            rec = {"u": "a", "v": "b", "m": 2}
            del rec[draw(st.sampled_from(["u", "v", "m"]))]
            edges.insert(at, rec)
        elif kind == "bad_endpoint":
            edges.insert(at, {"u": "a", "v": draw(BAD_VERTICES.filter(lambda x: x != "")), "m": 2})
        elif kind == "self_loop":
            v = draw(NAMES)
            edges.insert(at, {"u": v, "v": v, "m": draw(DOC_LABELS)})
        elif kind == "ghost":
            edges.insert(at, {"u": draw(NAMES), "v": "ghost", "m": 2})
        elif kind == "bad_label":
            u, v = draw(st.permutations(vertices if len(vertices) >= 2 else ["a", "b"]))[:2]
            edges.insert(at, {"u": u, "v": v, "m": draw(BAD_LABELS)})
        elif kind == "conflict" and any(isinstance(rec, dict) and len(rec) == 3 for rec in edges):
            rec = dict(draw(st.sampled_from([r for r in edges if isinstance(r, dict) and len(r) == 3])))
            rec["m"] = draw(DOC_LABELS)
            edges.insert(at, rec)
        elif kind == "not_mapping":
            return [doc]
    return doc


def parse_outcome(parse, document):
    try:
        return parse(document)
    except Exception as exc:  # the class and the message are compared
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(valid_documents())
def test_parse_spec_equals_two_pass_reference(doc):
    for document in (doc, json.dumps(doc, default=dict)):  # a mapping record is written as an object
        assert_same_spec(parse_spec(document), reference_parse_spec(document))


@settings(max_examples=300, deadline=None)
@given(mutated_documents())
def test_parse_spec_reports_the_same_first_fault(doc):
    got, ref = parse_outcome(parse_spec, doc), parse_outcome(reference_parse_spec, doc)
    if isinstance(ref, CoxeterSpec):  # some mutations leave a valid document
        assert_same_spec(got, ref)
    else:
        assert got == ref


def reference_cone_construction(nerve, rot):
    """cone_construction as it was, the coned spec's nerve built from scratch, and a lone 2-simplex refused."""
    rot = RotationSystem.from_document(rot) if isinstance(rot, dict) else rot
    if not nerve.vertices:
        raise ValueError("cannot cone an empty complex")
    if not nerve.is_connected():
        raise ValueError("cone construction requires a connected complex")
    if nerve.dimension > 2:
        raise ValueError("cone construction requires dimension <= 2")
    ((_, walks),) = validate_embedding(nerve, rot)
    faceset = FaceSet(walks)
    for face in faceset.faces:
        if not _is_simple(face):
            raise NonSimpleFaceBoundary(f"face walk {[u for u, _ in face]} repeats a vertex")
    to_cone = [
        face for face in faceset.faces
        if not (len(face) == 3 and nerve.has_simplex([u for u, _ in face]))
    ]
    if nerve.counts() == (3, 3, 1):
        raise ValueError(
            f"cannot cone the lone 2-simplex {nerve.triangles[0]}: it bounds both faces, and a "
            "label-2 apex over it would span a spherical tetrahedron"
        )
    taken, vertices = set(nerve.spec.vertices), list(nerve.spec.vertices)
    labels = {(u, v): m for u, v, m in nerve.spec.finite_edges()}
    for i, face in enumerate(to_cone):
        name = f"c{i}"
        while name in taken:
            name += "'"
        taken.add(name)
        vertices.append(name)
        for u, _ in face:
            labels[(name, u)] = 2
    coned = build_nerve(CoxeterSpec(vertices, labels))
    if recognize_sphere(coned) is not SphereKind.TWO_SPHERE:
        raise NotSpherical(
            "coning did not yield a 2-sphere triangulation (a face boundary likely has a chord)"
        )
    sub, witness = full_subcomplex(coned, nerve.vertices)
    if sub != nerve or not witness.right_angled_complement:
        raise NotSpherical("coned complex does not contain the input as expected")
    return coned, witness


def labelled_cycle(n: int, labels: list[int]) -> CoxeterSpec:
    vertices = [f"c{i}" for i in range(n)]  # cone names c0, c1 clash and get primed
    return CoxeterSpec(vertices, {(vertices[i], vertices[(i + 1) % n]): labels[i] for i in range(n)})


@st.composite
def coning_inputs(draw):
    """A labelled cycle with its rotation, or a face-split planar graph with an LR rotation."""
    if draw(st.booleans()):
        n = draw(st.integers(3, 30))
        spec = labelled_cycle(n, draw(st.lists(st.sampled_from([2, 3, 4, 6]), min_size=n, max_size=n)))
        nerve = build_nerve(spec)
        return nerve, {v: list(nerve.neighbors(v)) for v in nerve.vertices}
    vertices, edges, _ = random_planar_graph(draw(st.randoms(use_true_random=False)), max_vertices=9)
    labels = {(vertices[a], vertices[b]): draw(st.sampled_from([2, 2, 3, 4, 5])) for a, b in edges}
    nerve = build_nerve(CoxeterSpec(vertices, labels))
    return nerve, planar_rotation(nerve)


def cone_outcome(cone, nerve, rot):
    try:
        return cone(nerve, rot)
    except ValueError as exc:  # NotSpherical and NonSimpleFaceBoundary are ValueErrors
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(coning_inputs())
def test_assembled_cone_equals_rebuilt_cone(case):
    nerve, rot = case
    got, ref = cone_outcome(cone_construction, nerve, rot), cone_outcome(reference_cone_construction, nerve, rot)
    if not isinstance(ref[0], Nerve):
        assert got == ref
        return
    (coned, witness), (ref_coned, ref_witness) = got, ref
    fresh = CoxeterSpec(coned.spec.vertices, {(u, v): m for u, v, m in coned.spec.finite_edges()})
    rebuilt = build_nerve(fresh)  # an equal spec that holds no nerve, so built from scratch
    assert rebuilt is not coned
    for other in (ref_coned, rebuilt):
        assert_same_spec(coned.spec, other.spec)
        assert coned.vertices == other.vertices and coned.dimension == other.dimension
        assert all(coned.simplices(d) == other.simplices(d) for d in range(other.dimension + 1))
        assert coned._orders == other._orders
        assert list(coned._neighbors.items()) == list(other._neighbors.items())  # key order too
        assert list(coned._by_dim.items()) == list(other._by_dim.items())
    assert witness == ref_witness


def test_witness_of_the_c200_cone_reads_only_its_straddling_pair(monkeypatch):
    nerve = build_nerve(cycle_spec(200, 2))
    rot = {v: list(nerve.neighbors(v)) for v in nerve.vertices}
    calls = count_calls(monkeypatch, CoxeterSpec, ["label"])
    coned, witness = cone_construction(nerve, rot)
    # The one straddling pair is the two apexes, (c0,c1): once it is found the scan stops,
    # instead of reading on through every later vertex for pairs that are not there.
    assert 0 < calls["label"] <= 4
    assert witness.notes == reference_witness_notes([("c0", "c1")])
    assert witness.notes == reference_witness_notes(reference_infinite_pairs_outside(coned, nerve.vertices))


def test_cone_of_c200_builds_and_matches_nothing(monkeypatch):
    nerve = build_nerve(cycle_spec(200, 2))
    rot = {v: list(nerve.neighbors(v)) for v in nerve.vertices}
    calls, built = Counter(), []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "build_nerve":
                built.append(args[0])
            return fn(*args, **kwargs)
        return wrapper

    for module in (nerve_module, planarity):
        monkeypatch.setattr(module, "build_nerve", counting("build_nerve", module.build_nerve))
    for module in (nerve_module, spherical_module):
        monkeypatch.setattr(module, "_match_component", counting("match", module._match_component))
    coned, witness = cone_construction(nerve, rot)
    assert coned.counts() == (202, 600, 400) and witness.right_angled_complement
    # One build, of the coned spec; every label at an apex is 2, so nothing is matched.
    assert calls == {"build_nerve": 1} and built == [coned.spec]
    build_nerve(cycle_spec(3, 3))
    # The counters do see the nerve module: the triangle (edges read their labels).
    assert calls == {"build_nerve": 1, "match": 1}


def reference_trace_vanishing(ambient, target):
    """trace_vanishing as it was: each step's link and its fullness read off two ambient views."""
    A = ambient.spec.check_subset(target)
    if reference_recognize_sphere(ambient) is not SphereKind.TWO_SPHERE:
        raise planarity.HypothesisViolated("ambient nerve is not a 2-sphere triangulation")
    witness = nerve_module._witness(ambient, A)
    if not witness.right_angled_complement:
        raise planarity.HypothesisViolated("target does not have a right-angled complement")
    current = set(ambient.vertices)
    steps = []
    for v in sorted(set(ambient.vertices) - set(A)):
        before = tuple(sorted(current))
        near = [u for u in ambient.neighbors(v) if u in current]
        b_v = link(ambient._view((v, *near)), v)
        if b_v != ambient._view(b_v.vertices):
            raise planarity.HypothesisViolated(f"link of {v} is not a full subcomplex of the ambient nerve")
        current.discard(v)
        justification = (
            "mayer-vietoris: B = B' (cup) C2(B_v) along B_v; link-full by the right-angled "
            "complement; circle-subcomplex-vanishing kills h_i(B_v) for i > 1 since B_v is "
            f"full in the link of {v}, a circle; the cone halves Betti entries, so exactness "
            "transfers vanishing from B to B'"
        )
        steps.append(planarity.TraceStep(v, before, tuple(sorted(current)), tuple(b_v.vertices), justification))
    conclusion = (
        f"h_i vanishes for i > 1 on the full subcomplex spanned by {{{','.join(A)}}}; "
        "base case sphere-vanishing on the ambient 2-sphere nerve"
    )
    return planarity.ProofTrace(ambient, A, tuple(steps), conclusion, witness.notes)


@st.composite
def traced_spheres(draw):
    """A right-angled sphere nerve, a cone or cycle, or one with some labels 3, and a target."""
    n = draw(st.integers(4, 40))
    cycle = cycle_spec(n, 2, prefix="c")
    spec = draw(st.sampled_from([
        join_spec(cycle, CoxeterSpec(["n", "s"], {})),
        octahedron_spec(),
        icosahedron_spec(),
        join_spec(cycle, CoxeterSpec(["n"], {})),  # a disk, not a sphere
        cycle,
    ]))
    if draw(st.booleans()):  # some finite labels become 3
        spec = CoxeterSpec(spec.vertices, {
            (u, v): draw(st.sampled_from([2, 2, 2, 3])) for u, v, _ in spec.finite_edges()
        })
    target = draw(st.lists(st.sampled_from(spec.vertices), unique=True))
    if draw(st.integers(0, 19)) == 7:
        target.append("zz")
    return build_nerve(spec), target


def trace_outcome(trace, ambient, target):
    try:
        return trace(ambient, target).to_document()
    except (ValueError, RuntimeError) as exc:  # UnknownVertex and HypothesisViolated
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(traced_spheres())
def test_trace_equals_two_view_reference(case):
    ambient, target = case
    got = trace_outcome(trace_vanishing, ambient, target)
    assert got == trace_outcome(reference_trace_vanishing, ambient, target)


def test_build_nerve_reads_no_label(monkeypatch):
    calls = Counter()
    original = CoxeterSpec.label

    def counting(self, u, v):
        calls["label"] += 1
        return original(self, u, v)

    monkeypatch.setattr(CoxeterSpec, "label", counting)
    rng = random.Random(7)
    simplices = 0
    for _ in range(30):
        spec = random_spec(rng, max_vertices=9, labels=(2, 3, 4, 5, 6, INFINITY))
        simplices += len(build_nerve(spec).simplices())
    e6_beside_i2 = product_spec(["E6", "I2(6)"], ["v5", "v0", "v3", "v1", "v4", "v2", "w0", "w1"])
    simplices += len(build_nerve(e6_beside_i2).simplices())
    assert simplices > 500 and calls == Counter()
    assert e6_beside_i2.label("v0", "v1") in (2, 3) and calls == {"label": 1}


def test_matcher_rejects_a_non_tree_before_reading_labels():
    spec = complete_graph_spec(300, 3)  # one diagram component with a cycle through every vertex
    calls = Counter()

    class CountingLabels(dict):
        def get(self, *args):
            calls["get"] += 1
            return super().get(*args)

    spec._labels = CountingLabels(spec._labels)
    assert not classify(spec, spec.vertices).spherical
    assert calls == Counter()  # the commuting sets alone rule out a tree
    assert classify(spec, ["v0", "v1"]).order == 6 and calls == {"get": 1}  # one read for a pair


GRID, CELL = 1e-8, 1e-6  # the retired grid closure's snap resolution and equality cell


def reference_closure_size(gens, cap, offset):
    """The closure as first written: einsum products, one key per row in Python."""
    n = gens.shape[1]
    eye = np.eye(n)
    cells_per_snap = CELL / GRID

    def keys(batch):
        snapped = np.round(batch / GRID)
        q = np.round(snapped / cells_per_snap + offset).astype(np.int64)
        return [row.tobytes() for row in q.reshape(len(batch), -1)]

    store = {keys(eye[None, :, :])[0]}
    frontier = eye[None, :, :]
    count = 1
    while len(frontier):
        products = np.einsum("fij,gjk->fgik", frontier, gens).reshape(-1, n, n)
        fresh = []
        for mat, key in zip(products, keys(products)):
            if key not in store:
                store.add(key)
                fresh.append(mat)
                count += 1
                if count > cap:
                    return None
        frontier = np.array(fresh) if fresh else np.empty((0, n, n))
    return count


def triangle_spec(p, q, r) -> CoxeterSpec:
    return CoxeterSpec(["a", "b", "c"], {("a", "b"): p, ("b", "c"): q, ("a", "c"): r})


@st.composite
def enumeration_systems(draw):
    """Spherical paths, D4, dihedral groups and commuting products; affine and hyperbolic triangles."""
    kind = draw(st.sampled_from(["path", "D4", "dihedral", "product", "triangle"]))
    if kind == "path":
        return draw(
            st.lists(st.sampled_from([2, 3, 4, 5, 6]), max_size=4)
            .map(path_spec)
            .filter(lambda spec: classify(spec, spec.vertices).spherical)
        )
    if kind == "D4":
        return product_spec(["D4"], draw(st.permutations([f"v{i}" for i in range(4)])))
    if kind == "dihedral":
        return path_spec([draw(st.integers(2, 12))])
    if kind == "product":
        types = draw(st.lists(st.sampled_from(["A1", "I2(6)", "B3", "H3"]), min_size=2, max_size=3))
        rank = sum(FINITE_TYPES[name][0] for name in types)
        return product_spec(types, draw(st.permutations([f"v{i}" for i in range(rank)])))
    return triangle_spec(*draw(st.permutations(draw(st.sampled_from([(3, 3, 3), (2, 4, 4), (2, 3, 6), (2, 3, 7)])))))


@settings(max_examples=80, deadline=None)
@given(enumeration_systems(), st.integers(1, 3000))
def test_closure_equals_einsum_reference(spec, cap):
    _, gens = reflection_matrices(spec)
    rows = [g[s] for s, g in enumerate(gens)]
    assert enumeration._order(rows, cap) == reference_closure_size(gens, cap, 0.25)
    verdict = classify(spec, spec.vertices)
    if verdict.spherical and verdict.order <= 3000:
        assert enumeration._order(rows, verdict.order - 1) is None
        assert enumeration._order(rows, verdict.order) == verdict.order


@st.composite
def cosine_systems(draw):
    """Systems of rank at most 12, labels in {2..12, inf}, mostly 2 so that some stay spherical."""
    rank = draw(st.integers(0, 12))
    vertices = [f"v{i}" for i in range(rank)]
    label = st.one_of(st.just(2), st.sampled_from([*range(2, 13), INFINITY]))
    return CoxeterSpec(vertices, {(u, v): draw(label) for i, u in enumerate(vertices) for v in vertices[i + 1:]})


@settings(max_examples=300, deadline=None)
@given(cosine_systems())
def test_cosine_test_equals_determinant_reference(spec):
    # classify against the determinant test of positive definiteness, with no fallback to classify
    check_classify_by_cosine(spec, spec.vertices)


class ReferenceBettiVector:
    """BettiVector as it was: a finished record built from a separate builder's lists."""

    def __init__(self, top, entries, provenance, chi):
        self.top, self._entries, self._provenance, self.chi = top, tuple(entries), tuple(provenance), chi

    def get(self, i):
        return Fraction(0) if i > self.top else self._entries[i]

    def step(self, i):
        record = self._provenance[i] if i <= self.top else None
        return record and CitedStep(*record, {f"beta_{i}": _rational(self._entries[i])})

    def provenance_for(self, i):
        if i > self.top:
            return "beyond the top dimension: no chains"
        if self._provenance[i] is None:
            return "Unknown: no rule fired"
        return ": ".join(self._provenance[i])

    @property
    def fully_known(self):
        return all(e is not UNKNOWN for e in self._entries)

    def alternating_sum(self):
        return sum(((-1) ** i * e for i, e in enumerate(self._entries)), Fraction(0))

    def __repr__(self):
        return "(" + ", ".join("?" if e is UNKNOWN else str(e) for e in self._entries) + ")"

    def to_document(self):
        return {
            "entries": {str(i): (None if e is UNKNOWN else _rational(e)) for i, e in enumerate(self._entries)},
            "provenance": {str(i): self.provenance_for(i) for i in range(self.top + 1)},
        }


class ReferenceBuilder:
    def __init__(self, top):
        self.top = top
        self.entries = [UNKNOWN] * (top + 1)
        self.provenance = [None] * (top + 1)

    def assign(self, i, value, rule, detail):
        value = Fraction(value)
        why = f"{rule}: {detail}"
        if value < 0:
            raise ContradictoryRules(f"rule '{why}' assigned negative value {value} to dimension {i}")
        if i > self.top:
            if value != 0:
                raise ContradictoryRules(f"rule '{why}' assigned {value} beyond the top dimension {self.top}")
            return
        current = self.entries[i]
        if current is UNKNOWN:
            self.entries[i] = value
            self.provenance[i] = (rule, detail)
        elif current != value:
            raise ContradictoryRules(
                f"dimension {i}: '{': '.join(self.provenance[i])}' gave {current} but '{why}' gives {value}"
            )

    def unknown_dims(self):
        return [i for i, e in enumerate(self.entries) if e is UNKNOWN]

    def build(self, chi):
        return ReferenceBettiVector(self.top, self.entries, self.provenance, chi)


def reference_betti(nerve, ctx=None):
    """betti as it was: a builder, a completion sum, then the finished vector summed again."""
    top = nerve.dimension + 1
    b = ReferenceBuilder(top)
    chi = chi_orb(nerve)
    full_verdict = classify(nerve.spec, nerve.vertices)
    if full_verdict.spherical:
        order = f"|W| = {full_verdict.order}"
        b.assign(0, Fraction(1, full_verdict.order), "R-fin", order)
        for i in range(1, top + 1):
            b.assign(i, Fraction(0), "R-fin", order)
    else:
        b.assign(0, Fraction(0), "R-b0", "W infinite")
    kind = recognize_sphere(nerve)
    is_s0 = len(nerve.vertices) == 2 and not nerve.edges
    if kind is SphereKind.CIRCLE or is_s0:
        which = "circle" if kind is SphereKind.CIRCLE else "two points"
        b.assign(top, Fraction(0), "R-S0/S1", f"nerve is {which}, top entry vanishes")
    if kind is SphereKind.TWO_SPHERE:
        for i in range(top + 1):
            b.assign(i, Fraction(0), "R-S2", "2-sphere nerve, all entries vanish")
    if ctx is not None and ctx.witness is not None:
        _validate_witness(nerve, ctx.witness)
        ambient_kind = recognize_sphere(ctx.witness.ambient)
        if ambient_kind is SphereKind.CIRCLE:
            for i in range(2, top + 1):
                b.assign(i, Fraction(0), "R-sub1", "full subcomplex of a circle nerve")
        if ambient_kind is SphereKind.TWO_SPHERE and ctx.witness.right_angled_complement:
            for i in range(2, top + 1):
                b.assign(i, Fraction(0), "R-sub2", "full subcomplex with right-angled complement in a 2-sphere nerve")
    if ctx is not None and ctx.embedding is not None and nerve.dimension <= 2:
        try:
            validate_embedding(nerve, ctx.embedding)
        except Exception as exc:
            raise InvalidWitness(f"embedding witness rejected: {exc}") from exc
        b.assign(2, Fraction(0), "R-planar", "sphere-embedding witness")
    factors = tuple(diagram_components(nerve.spec, nerve.vertices))
    if len(factors) >= 2:
        factor_vectors = [reference_betti(induced_nerve(nerve, f)) for f in factors]
        if all(v.fully_known for v in factor_vectors):
            conv = [Fraction(1)]
            for v in factor_vectors:
                cur = [v.get(i) for i in range(v.top + 1)]
                nxt = [Fraction(0)] * (len(conv) + len(cur) - 1)
                for i, a in enumerate(conv):
                    for j, c in enumerate(cur):
                        nxt[i + j] += a * c
                conv = nxt
            desc = " * ".join("{" + ",".join(f) + "}" for f in factors)
            for k, value in enumerate(conv):
                b.assign(k, value, "R-join", desc)
    missing = b.unknown_dims()
    if len(missing) == 1:
        i = missing[0]
        partial = sum(((-1) ** j * e for j, e in enumerate(b.entries) if e is not UNKNOWN), Fraction(0))
        b.assign(i, (-1) ** i * (chi - partial), "R-atiyah", f"completion against chi_orb = {chi}")
    vector = b.build(chi)
    if vector.fully_known and vector.alternating_sum() != chi:
        raise ContradictoryRules(
            f"fully known vector {vector} has alternating sum {vector.alternating_sum()} != chi_orb = {chi}"
        )
    return vector


def betti_outcome(engine, nerve, ctx):
    try:
        vector = engine(nerve, ctx)
    except (ContradictoryRules, InvalidWitness) as exc:
        return type(exc), str(exc)
    readers = [
        (vector.get(i), vector.step(i), vector.provenance_for(i))
        for i in range(vector.top + 3)  # two dimensions past the top as well
    ]
    return vector.top, vector.chi, readers, vector.fully_known, repr(vector), vector.to_document()


def random_nerve(rnd):
    return build_nerve(random_spec(rnd, max_vertices=5))


@st.composite
def betti_inputs(draw):
    """A nerve, a rule context and an optional wrong held chi_orb.

    Nerves are random systems, their right-angled joins and cones, K5@3 and
    K3,3; witnesses are full subcomplexes of coned spheres or of circles,
    some paired with the wrong target, and embeddings are left-right
    rotations or random ones.  A wrong held chi_orb reaches
    the completion's negative-value check and the fully-known sum check.
    """
    rnd = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(["random", "join", "cone", "planted", "witness", "embedding"]))
    ctx = None
    if kind == "random":
        nerve = random_nerve(rnd)
    elif kind == "join":
        nerve = join2(random_nerve(rnd), random_nerve(rnd))
    elif kind == "cone":
        nerve = join2(random_nerve(rnd), build_nerve(CoxeterSpec(["P"], {})))
    elif kind == "planted":
        nerve = build_nerve(draw(st.sampled_from([complete_graph_spec(5, 3), complete_bipartite_spec(3, 3)])))
    elif kind == "witness":
        base, rot = draw(coning_inputs())
        try:
            ambient, witness = cone_construction(base, rot)
        except ValueError:  # NotSpherical and NonSimpleFaceBoundary
            return base, None, None
        nerve = base
        pick = draw(st.sampled_from(["cone", "sphere", "circle", "mismatch"]))
        if pick == "circle":
            ambient = build_nerve(labelled_cycle(rnd.randint(4, 8), [rnd.choice([2, 3]) for _ in range(8)]))
        if pick in ("sphere", "circle"):
            subset = draw(st.lists(st.sampled_from(ambient.vertices), min_size=1, unique=True))
            nerve, witness = full_subcomplex(ambient, subset)
        elif pick == "mismatch":
            nerve = ambient  # the witness names the input's vertices, not the sphere's
        ctx = RuleContext(witness=witness)
    else:
        nerve = random_nerve(rnd)
        if draw(st.booleans()) and nerve.dimension <= 2:
            rot = planar_rotation(nerve)
        else:
            rot = {v: draw(st.permutations(nerve.neighbors(v))) for v in nerve.vertices}
        ctx = RuleContext(embedding=rot) if rot is not None else None
    shift = draw(st.sampled_from([None, None, Fraction(1, 4), Fraction(-1, 2), Fraction(3)]))
    return nerve, ctx, shift


@settings(max_examples=300, deadline=None)
@given(betti_inputs())
def test_betti_equals_builder_reference(case):
    nerve, ctx, shift = case
    if shift is not None:
        nerve._chi = chi_orb(nerve) + shift  # both engines read the held value
    assert betti_outcome(betti, nerve, ctx) == betti_outcome(reference_betti, nerve, ctx)


def finite_systems():
    """Every FINITE_TYPES type alone and beside each other type, a single vertex, and the empty system.

    Each comes with the order of its group.
    """
    for types in [(name,) for name in FINITE_TYPES] + list(combinations(FINITE_TYPES, 2)):
        rank = sum(FINITE_TYPES[name][0] for name in types)
        order = math.prod(FINITE_TYPES[name][2] for name in types)
        yield product_spec(types, [f"v{i}" for i in range(rank)]), order
    yield CoxeterSpec(["v0"], {}), 2
    yield CoxeterSpec([], {}), 1


def test_chi_orb_of_a_finite_system_is_one_over_its_order():
    for spec, order in finite_systems():
        assert chi_orb(build_nerve(spec)) == Fraction(1, order)


def test_r_fin_reads_the_order_classify_gives():
    for spec, order in finite_systems():
        nerve, verdict = build_nerve(spec), classify(spec, spec.vertices)
        vector = betti(nerve)
        assert verdict.spherical and verdict.order == order
        assert vector.step(0) == CitedStep("R-fin", f"|W| = {order}", {"beta_0": f"1/{order}"})
        assert vector.get(0) == Fraction(1, order)
        assert planarity._certify_connected(nerve).reason == "FiniteGroup"
        reason = "FiniteGroup" if nerve.dimension <= 2 else "DimensionTooHigh"
        assert certify_nonplanar(spec).reason == reason


@settings(max_examples=200, deadline=None)
@given(specs_with_subset())
def test_r_fin_fires_exactly_on_spherical_systems(case):
    spec, subset = case
    nerve = build_nerve(spec)
    for target in (nerve, induced_nerve(nerve, subset)):
        verdict = classify(target.spec, target.vertices)
        vector = betti(target)
        assert (vector.step(0).statement == "R-fin") is verdict.spherical
        if verdict.spherical:
            assert vector.step(0).applied_to == f"|W| = {verdict.order}"


def reference_index(vertices, by_dim):
    """The neighbor map rebuilt from each vertex's star, as _index once built it."""
    star = reference_star(vertices, [s for level in by_dim.values() for s in level])
    # The edges at v come in lexicographic order, so its neighbors come out sorted.
    return {v: tuple(x for e in ss if len(e) == 2 for x in e if x != v) for v, ss in star.items()}


def reference_build_nerve(spec: CoxeterSpec) -> Nerve:
    """build_nerve as it was: every edge through the matcher, the maps rebuilt by reference_index.

    Its orders, kept by simplex while it enumerates, are handed over as one
    tuple per level, as a nerve keeps them.  It reads its cap from the
    nerve module, as build_nerve does.
    """
    held = spec._nerve and spec._nerve()
    if held is not None:
        return held
    simplex_cap = nerve_module._SIMPLEX_CAP
    by_dim: list[tuple[tuple[str, ...], ...]] = []
    finite_adj: dict[str, set[str]] = {v: set() for v in spec.vertices}
    for u, v, _ in spec.finite_edges():
        finite_adj[u].add(v)
        finite_adj[v].add(u)
    frontier = [
        ((v,), sorted(w for w in finite_adj[v] if w > v), (((v,), 2),)) for v in sorted(spec.vertices)
    ]
    orders = {s: 2 for s, _, _ in frontier}
    if len(orders) > simplex_cap:
        raise CapExceeded(f"nerve exceeds {simplex_cap} simplices")
    while frontier:
        by_dim.append(tuple(entry[0] for entry in frontier))
        nxt = []
        for s, candidates, comps in frontier:
            for i, w in enumerate(candidates):
                commuting = spec.commuting(w)
                merged, kept, order = [w], [], 1
                for comp in comps:
                    if commuting.issuperset(comp[0]):
                        kept.append(comp)
                        order *= comp[1]
                    else:
                        merged += comp[0]
                if len(merged) == 1:
                    comp = ((w,), 2)
                else:
                    key = tuple(sorted(merged))
                    match = spherical_module._match_component(spec, key)
                    if match is None:
                        continue
                    comp = (key, match[2])
                t = s + (w,)
                orders[t] = order * comp[1]
                if len(orders) > simplex_cap:
                    raise CapExceeded(f"nerve exceeds {simplex_cap} simplices")
                near = finite_adj[w]
                nxt.append((t, [x for x in candidates[i + 1:] if x in near], (*kept, comp)))
        frontier = nxt
    by_dim = dict(enumerate(by_dim))
    nerve = Nerve._presorted(spec.vertices, by_dim, reference_index(spec.vertices, by_dim))
    nerve.spec, nerve._orders = spec, {d: tuple(map(orders.__getitem__, level)) for d, level in by_dim.items()}
    spec._nerve = weakref.ref(nerve)
    return nerve


def fresh_spec(spec: CoxeterSpec) -> CoxeterSpec:
    """An equal spec that holds no nerve, so a build starts from scratch."""
    return CoxeterSpec(spec.vertices, {(u, v): m for u, v, m in spec.finite_edges()})


@st.composite
def nerve_specs(draw):
    """Random systems, finite-type products, the empty system, lone vertices and suspensions."""
    lone = st.integers(1, 8).flatmap(lambda n: st.permutations([f"v{i}" for i in range(n)]))
    return draw(st.one_of(
        specs(),
        finite_type_specs(),
        st.just(CoxeterSpec([], {})),
        lone.map(lambda vertices: CoxeterSpec(vertices, {})),
        st.integers(3, 30).map(suspension_spec),
        st.integers(3, 30).map(lambda n: join_spec(cycle_spec(n, 2, prefix="c"), CoxeterSpec(["a", "b"], {}))),
    ))


def counting_matcher(match, calls: Counter):
    """The matcher match, counting its calls in calls by the number of vertices matched."""
    def counting(spec, comp):
        calls[len(comp)] += 1
        return match(spec, comp)
    return counting


def nerve_outcome(build, module, spec, cap):
    """The nerve or the CapExceeded message under cap, with the matcher calls the build made through module."""
    calls = Counter()
    original, original_cap = module._match_component, nerve_module._SIMPLEX_CAP
    module._match_component = counting_matcher(original, calls)
    nerve_module._SIMPLEX_CAP = cap
    try:
        return build(fresh_spec(spec)), calls
    except CapExceeded as exc:
        return str(exc), None
    finally:
        module._match_component, nerve_module._SIMPLEX_CAP = original, original_cap


@settings(max_examples=300, deadline=None)
@given(nerve_specs())
def test_build_nerve_equals_reindexing_reference(spec):
    total = len(reference_build_nerve(fresh_spec(spec)).simplices())
    for cap in (0, len(spec.vertices) - 1, total - 1, total):
        got, matched = nerve_outcome(build_nerve, nerve_module, spec, cap)
        ref, ref_matched = nerve_outcome(reference_build_nerve, spherical_module, spec, cap)
        if isinstance(ref, str):
            assert got == ref
            continue
        assert got.vertices == ref.vertices and got.spec == ref.spec
        # Key order and per-vertex order too: items are compared as lists.
        assert list(got._by_dim.items()) == list(ref._by_dim.items())
        assert list(got._orders.items()) == list(ref._orders.items())
        assert list(got._neighbors.items()) == list(ref._neighbors.items())
        assert got.simplices() == ref.simplices()
        # The reference also matched every two-vertex component: each edge whose label is
        # not 2, and each pair merged above it.  The label gives the order of both.
        assert ref_matched[2] >= sum(m != 2 for _, _, m in spec.finite_edges())
        # Nothing else differs, so no candidate outside the common neighbors reached the matcher.
        assert matched == ref_matched - Counter({2: ref_matched[2]})


def test_k4_cone_matches_only_its_three_vertex_components(monkeypatch):
    nerve = build_nerve(complete_graph_spec(4, 3))
    calls = Counter()
    monkeypatch.setattr(nerve_module, "_match_component", counting_matcher(nerve_module._match_component, calls))
    coned, _ = cone_construction(nerve, K4_ROTATION)
    # The apexes c0..c3 sort before v0..v3, so each apex triangle (c, u, w) merges u and w
    # into one I2(3) component, whose order the label gives: 12 such pairs skip the matcher.
    assert coned.counts() == (8, 18, 12) and calls == {3: 8}


def test_fresh_k5_build_matches_only_its_triangles(monkeypatch):
    calls = count_calls(monkeypatch, nerve_module, ["_match_component"])
    nerve = build_nerve(complete_graph_spec(5, 3))
    # Ten edges read their orders off the labels; the ten triangles (affine, so no
    # simplices) go through the matcher.
    assert nerve.counts() == (5, 10) and calls == {"_match_component": 10}


@pytest.mark.parametrize("poles", [("a", "b"), ("c1_", "c3_"), ("n", "s")])
def test_suspension_poles_cost_no_quadratic_scan(poles):
    # The poles sort before all, half or none of the cycle, as a renaming can place them.
    spec = join_spec(cycle_spec(400, 2, prefix="c"), CoxeterSpec(poles, {}))
    calls = Counter()

    class CountingName(str):
        def __hash__(self):
            calls["hash"] += 1
            return str.__hash__(self)

    name = {v: CountingName(v) for v in spec.vertices}
    spec = CoxeterSpec(list(name.values()), {(name[u], name[v]): m for u, v, m in spec.finite_edges()})
    calls.clear()
    nerve = build_nerve(spec)
    # A name is hashed whenever it, or a pair holding it, is looked up or put in a set; a set
    # intersection reuses the hashes its sets hold.  The build hashes about 7 names per simplex.
    # Scanning a pole's later neighbors for each of its edges, by label lookups or by a set
    # made per edge, would hash up to 2 * 400**2 / 2 names more.
    assert nerve.counts() == (402, 1200, 800) and calls["hash"] <= 10 * sum(nerve.counts())


def test_suspension_extensions_take_one_commuting_test_each():
    spec = fresh_spec(suspension_spec(400))
    calls = Counter()

    class CountingSet(set):
        def issuperset(self, other):
            calls["issuperset"] += 1
            return set.issuperset(self, other)

    spec._commuting = {v: CountingSet(near) for v, near in spec._commuting.items()}
    nerve = build_nerve(spec)
    # Each triangle extends a cycle edge by a pole, which commutes with the whole edge: one
    # test of the edge per candidate, not one per component of it (1,600).
    assert nerve.counts() == (402, 1200, 800) and calls["issuperset"] == 800


def test_built_nerve_is_indexed_with_its_maps(monkeypatch):
    given = []
    original = SimplicialComplex._index

    def recording(self, vertices, by_dim, neighbors):
        given.append((by_dim, neighbors, reference_index(vertices, by_dim)))
        original(self, vertices, by_dim, neighbors)

    monkeypatch.setattr(SimplicialComplex, "_index", recording)
    systems = (complete_graph_spec(5, 3), suspension_spec(20), CoxeterSpec(["b", "a"], {}), CoxeterSpec([], {}))
    nerves = [build_nerve(spec) for spec in systems]
    nerves[1]._view(nerves[1].vertices[::3])
    link(nerves[1], "n")
    SimplicialComplex(["c", "a", "b"], [("c", "a", "b"), ("a", "c")])  # closed by the constructor
    nerves += [induced_nerve(nerves[1], nerves[1].vertices[::3]), induced_nerve(nerves[0], [])]
    nerves.append(cone_construction(build_nerve(complete_graph_spec(4, 3)), K4_ROTATION)[0])
    # Every constructor hands _index nonempty levels of distinct sorted simplices, ascending
    # by dimension and lexicographic within each, and a neighbor map equal, in key order and
    # per-vertex order, to a rebuild from the stars.
    assert len(given) == 11
    for by_dim, near, ref_near in given:
        assert list(by_dim) == sorted(by_dim)
        for d, level in by_dim.items():
            assert level and list(level) == sorted(set(level))
            assert all(len(s) == d + 1 and list(s) == sorted(set(s)) for s in level)
        assert list(near.items()) == list(ref_near.items())
    # Every nerve constructor (build_nerve, induced_nerve and cone_construction, which builds)
    # hands over one order per simplex, level by level, as a tuple of ints.
    for nerve in nerves:
        assert list(nerve._orders) == list(nerve._by_dim)
        for d, level in nerve._by_dim.items():
            orders = nerve._orders[d]
            assert type(orders) is tuple and len(orders) == len(level)
            assert all(type(order) is int for order in orders)
            assert list(orders) == [classify(nerve.spec, s).order for s in level]
