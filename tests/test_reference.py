"""Fast paths against the direct constructions they replace.

Each test keeps the old, slower path as a reference: rebuilding a nerve
from the induced subsystem, pairwise-label component finding, straddling
pairs by enumerating every vertex pair, the per-simplex Euler sum, the
exhaustive rotation-system search for planarity, face tracing that
restarts from the least unused directed edge, and the non-planarity
certificate derived through a separate dimension-2 lower bound whose
provenance text is parsed.
"""

import gc
import random
import weakref
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from coxeter_l2 import invariants, nerve as nerve_module, planarity, spherical as spherical_module
from coxeter_l2.catalog import (
    complete_bipartite_spec,
    complete_graph_spec,
    cycle_spec,
    icosahedron_spec,
    octahedron_spec,
)
from coxeter_l2.invariants import (
    UNKNOWN,
    BettiVector,
    RuleContext,
    _rational,
    betti,
    chi_orb,
    chi_orb_chain_sum,
)
from coxeter_l2.model import INFINITY, CoxeterSpec, components, induced_subspec
from coxeter_l2.nerve import (
    CapExceeded,
    FaceSet,
    NotSpherical,
    RotationSystem,
    SphereKind,
    build_nerve,
    detect_join2,
    faces_from_rotation,
    full_subcomplex,
    induced_nerve,
    infinite_pairs_outside,
    join_spec,
    link,
    recognize_sphere,
    SimplicialComplex,
    validate_embedding,
)
from coxeter_l2.planarity import (
    Certificate,
    CitedStep,
    brute_force_planar,
    certify_nonplanar,
    planar_rotation,
    trace_vanishing,
)
from coxeter_l2.spherical import classify, diagram_components

LABELS = st.sampled_from([2, 3, 4, 5, 6, INFINITY])


@st.composite
def specs(draw, max_vertices=7):
    n = draw(st.integers(0, max_vertices))
    vertices = draw(st.permutations([f"v{i}" for i in range(n)]))
    labels = {}
    for u, v in combinations(vertices, 2):
        m = draw(LABELS)
        if m != INFINITY:
            labels[(u, v)] = m
    return CoxeterSpec(vertices, labels)


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


@settings(max_examples=200, deadline=None)
@given(st.one_of(specs_with_subset(), spheres_with_subset()))
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
        assert all(view.neighbors(v) == other.neighbors(v) for v in vertices)
        assert all(view._star[v] == other._star[v] for v in vertices)
        assert view.is_connected() == other.is_connected()
        assert recognize_sphere(view) is recognize_sphere(other)
    assert [view.order(s) for s in view.simplices()] == [rebuilt.order(s) for s in rebuilt.simplices()]
    assert chi_orb(view) == chi_orb(rebuilt)
    assert repr(betti(view)) == repr(betti(rebuilt))
    assert view._verdict == rebuilt._verdict == classify(spec, subset)


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
    assert infinite_pairs_outside(nerve, subset) == pairs
    _, witness = full_subcomplex(nerve, subset)
    if not pairs:
        assert witness.notes == ()
    else:
        (note,) = witness.notes
        shown = ", ".join(f"({u},{v})" for u, v in pairs[:4])
        assert note.startswith(f"{len(pairs)} infinite-label pair(s) not contained in the subcomplex: {shown}")
        assert ("more" in note) == (len(pairs) > 4)


@settings(max_examples=150)
@given(specs_with_subset())
def test_component_helpers_equal_pairwise_reference(case):
    spec, subset = case
    assert diagram_components(spec, subset) == reference_components(
        sorted(subset), lambda u, v: spec.label(u, v) != 2
    )
    nerve = build_nerve(spec)
    factors = reference_components(sorted(spec.vertices), lambda u, v: spec.label(u, v) != 2)
    assert detect_join2(nerve) == (factors if len(factors) >= 2 else None)
    skeleton = reference_components(list(spec.vertices), lambda u, v: nerve.has_simplex((u, v)))
    assert nerve.skeleton_components() == skeleton
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
    for name in draw(st.lists(st.sampled_from(sorted(FINITE_TYPES)), min_size=1, max_size=3)):
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


def closure(vertices, triangles) -> SimplicialComplex:
    """The complex generated by some triangles, with every vertex as a 0-simplex."""
    faces = {tuple(sorted(f)) for t in triangles for k in (1, 2, 3) for f in combinations(t, k)}
    return SimplicialComplex(vertices, faces | {(v,) for v in vertices})


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
    return closure(vertices, triangles)


def two_octahedra_glued_at_both_poles() -> SimplicialComplex:
    triangles = [
        (pole, f"{side}{i}", f"{side}{(i + 1) % 4}")
        for side in "ab" for pole in "ns" for i in range(4)
    ]
    return closure(["n", "s"] + [f"{side}{i}" for side in "ab" for i in range(4)], triangles)


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
        pieces = closure(list(octahedron.vertices), triangles + extra_triangles)
        vertices = sorted({v for s in pieces.simplices() for v in s} | {v for e in extra_edges for v in e})
        complex_ = SimplicialComplex(vertices, list(pieces.simplices()) + extra_edges + [(v,) for v in vertices])
        V, E, F = len(complex_.vertices), len(complex_.edges), len(complex_.triangles)
        assert complex_.is_connected() and V - E + F == 2
        assert recognize_sphere(complex_) is SphereKind.NEITHER
        assert reference_recognize_sphere(complex_) is SphereKind.NEITHER


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
    recognize, classify_ = nerve_module._recognize_sphere, invariants.classify

    def counting_recognize(complex_):
        calls["recognize"] += complex_ is nerve
        return recognize(complex_)

    def counting_classify(spec, subset):
        calls["classify"] += spec is nerve.spec and set(subset) == set(nerve.vertices)
        return classify_(spec, subset)

    class CountingOrders(dict):
        def items(self):  # chi_orb sums the simplices through their orders
            calls["chi_sum"] += 1
            return super().items()

    monkeypatch.setattr(nerve_module, "_recognize_sphere", counting_recognize)
    monkeypatch.setattr(invariants, "classify", counting_classify)
    nerve._orders = CountingOrders(nerve._orders)
    assert recognize_sphere(nerve) is SphereKind.TWO_SPHERE
    assert chi_orb(nerve) == 0
    assert betti(nerve).as_tuple() == (0, 0, 0, 0)
    half = ["n"] + [f"c{i}" for i in range(200)]
    sub, witness = full_subcomplex(nerve, half)
    assert betti(sub, RuleContext(witness=witness)).as_tuple()[2:] == (0, 0)
    target = [v for v in nerve.vertices if v not in ("c397", "c398", "c399")]
    assert len(trace_vanishing(nerve, target).steps) == 3
    assert betti(nerve).as_tuple() == (0, 0, 0, 0)  # a second call reads the held verdict
    assert calls == {"recognize": 1, "chi_sum": 1, "classify": 1}


def test_cap_below_held_nerve_still_raises():
    spec = complete_graph_spec(5, 3)
    nerve = build_nerve(spec)
    size = len(nerve.simplices())
    with pytest.raises(CapExceeded):
        build_nerve(spec, simplex_cap=size - 1)
    assert build_nerve(spec, simplex_cap=size) is nerve


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
    return SimplicialComplex(vertices, [(v,) for v in vertices] + edges)


@settings(max_examples=100, deadline=None)
@given(small_graphs())
def test_lr_oracle_equals_exhaustive_search(graph):
    assert brute_force_planar(graph) == _exhaustive_planar(graph)


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_planar_rotation_passes_validate_embedding(graph):
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
            cur = (v, rot.next_after(v, u))
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
        assert faces_from_rotation(sub, rot) == FaceSet(tuple(faces))
    else:
        with pytest.raises(NotSpherical):
            faces_from_rotation(sub, rot)


class FiniteGroup(ValueError):
    pass


class DimensionTooHigh(ValueError):
    pass


@dataclass(frozen=True)
class Beta2Bound:
    value: Fraction
    provenance: str
    vector: BettiVector


def betti_lower_bound_dim2(nerve) -> Beta2Bound:
    """Certified lower bound for the dimension-2 entry, for nerves of dim <= 2.

    With W infinite and no chains above dimension 3, the alternating-sum
    identity gives chi_orb <= beta_2; an exact entry from the rule engine
    can only improve the bound.
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
    if exact is not UNKNOWN and exact >= value:
        value = exact
        provenance = f"exact entry: {vector.provenance_for(2)}"
    return Beta2Bound(value, provenance, vector)


def reference_certify(nerve) -> Certificate:
    """The certificate derived through the bound, choosing its step from the provenance text."""
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
        for comp in components:
            sub_cert = reference_certify(build_nerve(induced_subspec(spec, comp)))
            if sub_cert.verdict == "NotPlanar":
                notes.append(f"witnessing component: {{{','.join(comp)}}}")
                return Certificate(
                    "NotPlanar", spec, sub_cert.bound, sub_cert.chain, notes=tuple(notes)
                )
            notes.append(
                f"component {{{','.join(comp)}}}: {sub_cert.reason or 'ObstructionSilent'}"
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
    if bound.provenance.startswith("exact entry") and "R-join" in bound.provenance:
        factors = bound.vector.provenance_for(2).removeprefix("R-join: ")
        chain.append(CitedStep("R-join", factors, {"beta_2": value}))
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


def test_certify_k5_computes_chi_and_full_classification_once(monkeypatch):
    spec = complete_graph_spec(5, 3)
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            if name == "chi_orb" or set(args[1]) == set(spec.vertices):
                calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (nerve_module, invariants, planarity):
        for name in ("chi_orb", "classify"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    assert certify_nonplanar(spec).verdict == "NotPlanar"
    assert calls == {"chi_orb": 1, "classify": 1}
