import random
import re
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from coxeter_l2 import nerve as nerve_module
from coxeter_l2.model import CoxeterSpec, INFINITY
from coxeter_l2.catalog import (
    complete_bipartite_spec,
    complete_graph_spec,
    cycle_spec,
    icosahedron_spec,
    octahedron_spec,
    points_spec,
)
from coxeter_l2.nerve import (
    CapExceeded,
    NotSpherical,
    RotationSystem,
    SimplicialComplex,
    SphereKind,
    build_nerve,
    full_subcomplex,
    induced_nerve,
    is_full_subcomplex,
    join2,
    link,
    recognize_sphere,
    validate_embedding,
)
from coxeter_l2.planarity import cone_construction
from coxeter_l2.spherical import classify, diagram_components

from conftest import induced_subspec, random_spec


@st.composite
def disjoint_unions(draw):
    """One to three random systems on disjoint names with no finite label between them, listed in a random order."""
    vertices, labels = [], {}
    for prefix in "abc"[:draw(st.integers(1, 3))]:
        names = [f"{prefix}{i}" for i in range(draw(st.integers(1, 5)))]
        vertices += names
        for pair in combinations(names, 2):
            m = draw(st.sampled_from([2, 3, 4, 5, 6, INFINITY]))
            if m != INFINITY:
                labels[pair] = m
    return CoxeterSpec(draw(st.permutations(vertices)), labels)


@settings(max_examples=200, deadline=None)
@given(disjoint_unions())
def test_component_split_is_the_induced_nerve_on_the_subjects_maps(spec):
    nerve = build_nerve(spec)
    for comp in nerve.skeleton_components():
        split, induced = nerve_module._component_nerve(nerve, comp), induced_nerve(nerve, comp)
        assert split._components == (comp,)  # held, so never searched again
        assert split.vertices == induced.vertices and split.spec == induced.spec
        assert split._by_dim == induced._by_dim and split._orders == induced._orders
        assert split._neighbors == induced._neighbors
        assert split.spec._commuting == induced.spec._commuting
        assert split.skeleton_components() == induced.skeleton_components()
        for v in split.vertices:  # the subject's own objects, shared
            assert split.neighbors(v) is nerve.neighbors(v) and split.spec.commuting(v) is spec.commuting(v)


def test_k5_nerve_is_one_dimensional():
    nerve = build_nerve(complete_graph_spec(5, 3))
    assert nerve.counts() == (5, 10)
    assert nerve.dimension == 1  # no (3,3,3) triangle is spherical


def test_k33_nerve_has_no_triangles():
    nerve = build_nerve(complete_bipartite_spec(3, 3))
    assert nerve.counts() == (6, 9)
    assert nerve.dimension == 1


def test_octahedron_nerve():
    nerve = build_nerve(octahedron_spec())
    assert nerve.counts() == (6, 12, 8)
    assert nerve.dimension == 2
    # every face is a (2,2,2) triple of order 8
    for t in nerve.triangles:
        assert nerve.order(t) == 8


def test_octahedron_refuses_a_label_on_an_antipodal_pair():
    assert octahedron_spec({("x1", "y0"): 3}).label("x1", "y0") == 3
    with pytest.raises(ValueError, match=r"^\('x0', 'x1'\) is an antipodal pair, not an edge$"):
        octahedron_spec({("x0", "x1"): 3})


def test_nerve_orders_match_classifier():
    # Built nerves, induced_nerve views and a cone_construction output.
    rng = random.Random(37)
    nerves = [build_nerve(complete_graph_spec(4, 3)), build_nerve(octahedron_spec())]
    nerves += [build_nerve(random_spec(rng, max_vertices=7, labels=(2, 3, 4, 5, INFINITY))) for _ in range(30)]
    nerves += [induced_nerve(nerve, [v for v in nerve.vertices if rng.random() < 0.6]) for nerve in nerves]
    square = build_nerve(cycle_spec(4, 2))
    nerves.append(cone_construction(square, {v: list(square.neighbors(v)) for v in square.vertices})[0])
    for nerve in nerves:
        for s in nerve.simplices():
            assert nerve.order(s) == classify(nerve.spec, s).order
            assert nerve.order(reversed(s)) == nerve.order(s)  # any vertex order names the simplex
        assert nerve.order(()) == 1


def test_order_of_a_non_simplex_is_a_key_error():
    nerve = build_nerve(octahedron_spec())  # x0 x1 is an antipodal pair, so no edge
    view = induced_nerve(nerve, ["x0", "y0", "y1"])
    cases = [
        (nerve, ("x0", "y0", "z0", "z1")),  # no level of dimension 3
        (nerve, ("x0", "x1")),  # a pair that is no edge
        (nerve, ("w",)),  # an unknown vertex
        (nerve, ("w", "x0")),
        (view, ("x0", "z0")),  # a simplex of the ambient outside the view
        (view, ("z0",)),
    ]
    for complex_, s in cases:
        assert not complex_.has_simplex(s)
        with pytest.raises(KeyError):
            complex_.order(s)
    assert view.order(("y0", "x0")) == nerve.order(("x0", "y0")) == 4


def test_simplex_cap(monkeypatch):
    monkeypatch.setattr(nerve_module, "_SIMPLEX_CAP", 10)
    with pytest.raises(CapExceeded):
        build_nerve(complete_graph_spec(6, 2))


def test_downward_closure_random():
    rng = random.Random(23)
    for _ in range(60):
        spec = random_spec(rng, max_vertices=8, labels=(2, 3, 4, 5, INFINITY))
        nerve = build_nerve(spec)
        for s in nerve.simplices():
            for k in range(1, len(s)):
                for sub in combinations(s, k):
                    assert nerve.has_simplex(sub)
            assert classify(spec, s).spherical
        # and conversely: every spherical subset of size <= 3 appears
        for k in (1, 2, 3):
            for sub in combinations(spec.vertices, k):
                if classify(spec, sub).spherical:
                    assert nerve.has_simplex(sub)


def test_induced_equals_full_subcomplex():
    rng = random.Random(29)
    for _ in range(40):
        spec = random_spec(rng, max_vertices=7)
        nerve = build_nerve(spec)
        subset = [v for v in spec.vertices if rng.random() < 0.5]
        sub, witness = full_subcomplex(nerve, subset)
        assert sub == build_nerve(induced_subspec(spec, subset))
        assert witness.vertex_set == tuple(subset)
        assert is_full_subcomplex(nerve, sub)


def test_construction_paths_agree_on_equality_hash_and_membership():
    # build_nerve, a view and __init__ on shuffled, unsorted simplices must store the same complex.
    rng = random.Random(31)
    for _ in range(40):
        spec = random_spec(rng, max_vertices=6)
        subset = [v for v in spec.vertices if rng.random() < 0.7]
        nerve = build_nerve(spec)
        view = induced_nerve(nerve, subset)
        rebuilt = build_nerve(induced_subspec(spec, subset))
        assert view == rebuilt and hash(view) == hash(rebuilt)
        simplices = [tuple(reversed(s)) for s in view.simplices()]
        rng.shuffle(simplices)
        plain = SimplicialComplex(view.vertices, simplices)
        plain_view = nerve._view(view.vertices)
        assert plain == plain_view == view and hash(plain) == hash(plain_view)
        assert SimplicialComplex.__hash__(view) == hash(plain)
        if view.dimension > 0:  # a top simplex is maximal, so the closure does not put it back
            assert SimplicialComplex(view.vertices, view.simplices()[:-1]) != plain
        for complex_ in (view, rebuilt, plain, plain_view):
            for k in range(len(spec.vertices) + 1):
                for sub in combinations(spec.vertices, k):
                    expected = bool(sub) and set(sub) <= set(subset) and classify(spec, sub).spherical
                    assert complex_.has_simplex(reversed(sub)) == expected
            assert not complex_.has_simplex(())
            assert not complex_.has_simplex(("nowhere",))
            assert not complex_.has_simplex((*subset[:1], "nowhere"))


def set_closure(vertices, simplices) -> set:
    """The closure by its set definition: each nonempty subset of a given simplex, and each vertex."""
    faces = {(v,) for v in vertices}
    for s in simplices:
        s = sorted(set(s))
        faces |= {f for k in range(1, len(s) + 1) for f in combinations(s, k)}
    return faces


def set_link(closed: set, v: str) -> set:
    return {tuple(x for x in s if x != v) for s in closed if v in s and len(s) > 1}


def set_connected(vertices, closed: set) -> bool:
    reached, edges = set(vertices[:1]), [s for s in closed if len(s) == 2]
    while True:
        more = {x for e in edges if reached.intersection(e) for x in e} - reached
        if not more:
            return reached == set(vertices)
        reached |= more


def set_sphere_kind(vertices, closed: set) -> SphereKind:
    """Circle or 2-sphere by the definitions, every link built as a set and recognized in turn."""
    dim = max(map(len, closed), default=0) - 1
    edges = [s for s in closed if len(s) == 2]
    triangles = [s for s in closed if len(s) == 3]
    if dim == 1 and len(vertices) >= 3 and set_connected(vertices, closed):
        if all(sum(v in e for e in edges) == 2 for v in vertices):
            return SphereKind.CIRCLE
    if dim == 2 and len(vertices) - len(edges) + len(triangles) == 2 and set_connected(vertices, closed):
        if all(sum(set(e) < set(t) for t in triangles) == 2 for e in edges) and all(
            set_sphere_kind(sorted({x for s in set_link(closed, v) for x in s}), set_link(closed, v))
            is SphereKind.CIRCLE
            for v in vertices
        ):
            return SphereKind.TWO_SPHERE
    return SphereKind.NEITHER


@st.composite
def vertices_and_simplices(draw):
    """Up to seven listed vertices and some simplices on them, unsorted, repeats and faces left out."""
    vertices = draw(st.permutations("abcdefg"))[:draw(st.integers(0, 7))]
    if not vertices:
        return vertices, draw(st.lists(st.just(()), max_size=2))
    return vertices, draw(st.lists(st.lists(st.sampled_from(vertices), min_size=1, max_size=5), max_size=10))


@st.composite
def spheres_and_damaged_spheres(draw):
    """A circle or 2-sphere nerve's maximal simplices, perhaps with one dropped or a simplex added."""
    nerve = build_nerve(draw(st.sampled_from([cycle_spec(5, 2), octahedron_spec(), icosahedron_spec()])))
    vertices, top = list(nerve.vertices), list(nerve.simplices(nerve.dimension))
    damage = draw(st.sampled_from(["none", "drop", "add"]))
    if damage == "drop":
        top.remove(draw(st.sampled_from(top)))
    elif damage == "add":
        top.append(tuple(draw(st.permutations(vertices))[:draw(st.integers(2, 3))]))
    return vertices, top


@settings(max_examples=200, deadline=None)
@given(vertices_and_simplices())
def test_the_constructor_closes_as_the_set_definition_does(case):
    vertices, simplices = case
    complex_ = SimplicialComplex(vertices, simplices)
    closed = set_closure(vertices, simplices)
    assert complex_.vertices == tuple(vertices) and set(complex_.simplices()) == closed
    assert complex_.simplices(0) == tuple(sorted((v,) for v in vertices))
    for d in range(complex_.dimension + 1):
        assert list(complex_.simplices(d)) == sorted(s for s in closed if len(s) == d + 1)
    for v in vertices:
        assert complex_.neighbors(v) == tuple(sorted(x for e in closed if len(e) == 2 and v in e for x in e if x != v))


@settings(max_examples=200, deadline=None)
@given(st.one_of(vertices_and_simplices(), spheres_and_damaged_spheres()), st.data())
def test_sphere_link_and_fullness_equal_their_set_definitions(case, data):
    vertices, simplices = case
    complex_ = SimplicialComplex(vertices, simplices)
    closed = set_closure(vertices, simplices)
    assert recognize_sphere(complex_) is set_sphere_kind(vertices, closed)
    for v in vertices:
        got = link(complex_, v)
        assert set(got.vertices) == {x for s in set_link(closed, v) for x in s}
        assert set(got.simplices()) == set_link(closed, v)
    with pytest.raises(KeyError):
        link(complex_, "zz")
    # A candidate on some vertices, perhaps one the ambient lacks, with its spanned simplices or others.
    subset = data.draw(st.permutations([*vertices, "zz"]))[:data.draw(st.integers(0, len(vertices) + 1))]
    spanned = [s for s in closed if set(s) <= set(subset)]
    drawn = st.lists(st.lists(st.sampled_from(subset), min_size=1, max_size=3), max_size=6) if subset else st.just([])
    sub = SimplicialComplex(subset, data.draw(st.one_of(st.just(spanned), drawn)))
    full = set(subset) <= set(vertices) and set(sub.simplices()) == {s for s in closed if set(s) <= set(subset)}
    assert is_full_subcomplex(complex_, sub) == full


def test_an_edge_on_an_unlisted_vertex_is_refused():
    # It could reach neither planar_rotation nor validate_embedding, which would mishandle it.
    with pytest.raises(ValueError, match=re.escape("simplex ('c', 'w') names 'w', which is not a listed vertex")):
        SimplicialComplex(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c"), ("c", "w")])


def test_a_repeated_vertex_is_refused():
    with pytest.raises(ValueError, match="vertex 'a' is listed twice"):
        SimplicialComplex(["a", "a", "b"], [("a", "b")])
    with pytest.raises(ValueError, match="vertex 'b' is listed twice"):
        SimplicialComplex(["b", "a", "c", "a", "b"], [])


def test_the_closure_counts_toward_the_simplex_cap(monkeypatch):
    # A 30-vertex simplex has 2**30 - 1 faces: it is refused before any is built.
    vertices = [f"v{i:02}" for i in range(30)]
    with pytest.raises(CapExceeded, match="complex exceeds 1000000 simplices"):
        SimplicialComplex(vertices, [vertices])
    # Two 4-simplices on a common 3-face close to 31 + 31 - 15 = 47 simplices.
    simplices = [("a", "b", "c", "d", "e"), ("a", "b", "c", "d", "f")]
    monkeypatch.setattr(nerve_module, "_SIMPLEX_CAP", 47)
    assert sum(SimplicialComplex("abcdef", simplices).counts()) == 47
    monkeypatch.setattr(nerve_module, "_SIMPLEX_CAP", 46)
    with pytest.raises(CapExceeded):
        SimplicialComplex("abcdef", simplices)
    monkeypatch.setattr(nerve_module, "_SIMPLEX_CAP", 30)  # one 4-simplex alone is past it
    with pytest.raises(CapExceeded):
        SimplicialComplex("abcdef", simplices[:1])


@st.composite
def complexes_of_every_constructor(draw) -> list[SimplicialComplex]:
    """A random system's nerve, a view and a rebuild on a subset, a coned cycle, and plain copies of each."""
    spec = random_spec(draw(st.randoms(use_true_random=False)), max_vertices=6)
    subset = draw(st.lists(st.sampled_from(spec.vertices), unique=True)) if spec.vertices else []
    nerve = build_nerve(spec)
    cycle = build_nerve(cycle_spec(draw(st.integers(4, 7)), draw(st.sampled_from((2, 3, 4, 5)))))
    cone, _ = cone_construction(cycle, {v: list(cycle.neighbors(v)) for v in cycle.vertices})
    built = [nerve, induced_nerve(nerve, subset), build_nerve(induced_subspec(spec, subset)), cycle, cone]
    return built + [SimplicialComplex(c.vertices, c.simplices()) for c in built]


@settings(max_examples=100, deadline=None)
@given(complexes_of_every_constructor())
def test_equal_complexes_hash_equally(pool):
    for a in pool:
        for b in pool:
            if a == b:
                assert hash(a) == hash(b), (a, b)


def test_full_subcomplex_of_cone_recovers_base():
    k5 = build_nerve(complete_graph_spec(5, 3))
    coned = join2(k5, build_nerve(CoxeterSpec(["P"], {})))
    sub, witness = full_subcomplex(coned, k5.vertices)
    assert sub == k5
    assert is_full_subcomplex(coned, sub) and witness.right_angled_complement


def test_full_subcomplex_whole_vertex_set():
    nerve = build_nerve(complete_graph_spec(4, 3))
    sub, witness = full_subcomplex(nerve, nerve.vertices)
    assert sub == nerve
    assert is_full_subcomplex(nerve, sub) and witness.right_angled_complement  # vacuous


def test_full_subcomplex_side_of_k33():
    nerve = build_nerve(complete_bipartite_spec(3, 3))
    side, witness = full_subcomplex(nerve, ["a0", "a1", "a2"])
    assert side.counts() == (3,)  # three disjoint points
    assert is_full_subcomplex(nerve, side)
    # the infinite pairs within the other side straddle: flagged, permitted
    assert witness.right_angled_complement
    assert witness.notes


def test_a_view_shares_only_the_maps_of_closed_vertices():
    # Skeleton components {a, b} and {c, d, e}; in a view on a, b, c, d only d has a neighbor outside.
    spec = CoxeterSpec(["a", "b", "c", "d", "e"], {("a", "b"): 2, ("c", "d"): 3, ("d", "e"): 2})
    nerve = build_nerve(spec)
    component = induced_nerve(nerve, ["a", "b"])
    assert all(component.neighbors(v) is nerve.neighbors(v) for v in "ab")
    assert all(component.spec.commuting(v) is spec.commuting(v) for v in "ab")
    assert component.simplices() == (("a",), ("b",), ("a", "b"))
    view = induced_nerve(nerve, ["a", "b", "c", "d"])
    assert all(view.neighbors(v) is nerve.neighbors(v) for v in "abc")
    assert all(view.spec.commuting(v) is spec.commuting(v) for v in "abc")
    assert view.neighbors("d") == ("c",) and view.spec.commuting("d") == set()
    assert nerve.neighbors("d") == ("c", "e") and spec.commuting("d") == {"e"}
    # Each level is filtered in order from the ambient one.
    assert view.simplices(0) == (("a",), ("b",), ("c",), ("d",))
    assert view.edges == (("a", "b"), ("c", "d")) and nerve.edges == (("a", "b"), ("c", "d"), ("d", "e"))


def witness_of(nerve, subset):
    return full_subcomplex(nerve, subset)[1]


def test_right_angled_complement():
    k5 = build_nerve(complete_graph_spec(5, 3))
    coned = join2(k5, build_nerve(CoxeterSpec(["P"], {})))
    assert witness_of(coned, k5.vertices).right_angled_complement
    assert witness_of(coned, coned.vertices).right_angled_complement  # vacuous
    # a 3-labelled edge with an endpoint outside the subset disqualifies
    assert not witness_of(coned, k5.vertices[:4]).right_angled_complement
    assert witness_of(coned, k5.vertices).notes == ()  # no straddling infinite pair


def test_right_angled_complement_permits_infinite_pairs():
    spec = CoxeterSpec(["a", "b", "c"], {("a", "b"): 3})  # c sees nobody
    witness = witness_of(build_nerve(spec), ["a", "b"])
    assert witness.right_angled_complement
    assert witness.notes == (
        "2 infinite-label pair(s) not contained in the subcomplex: (a,c), (b,c) "
        "(permitted: infinite pairs are not edges)",
    )


def test_link_octahedron_is_square():
    nerve = build_nerve(octahedron_spec())
    lk = link(nerve, "x0")
    assert recognize_sphere(lk) is SphereKind.CIRCLE
    assert len(lk.vertices) == 4


def test_link_of_a_missing_vertex_is_a_key_error():
    with pytest.raises(KeyError, match="'missing' is not a vertex"):
        link(build_nerve(cycle_spec(4, 2)), "missing")


def test_link_k5_is_isolated_points():
    nerve = build_nerve(complete_graph_spec(5, 3))
    lk = link(nerve, "v0")
    assert lk.dimension == 0
    assert len(lk.vertices) == 4
    # the link is NOT full: ambient edges span its vertices
    assert not is_full_subcomplex(nerve, lk)


def test_link_of_cone_apex_is_base():
    base = build_nerve(cycle_spec(4, 2))
    coned = join2(base, build_nerve(CoxeterSpec(["P"], {})))
    lk = link(coned, "P")
    assert lk.vertices == base.vertices
    assert set(lk.simplices()) == set(base.simplices())


def test_cone_apex_is_primed_when_p_is_taken():
    base = build_nerve(CoxeterSpec(["P", "Q"], {("P", "Q"): 3}))
    coned = join2(base, build_nerve(CoxeterSpec(["P"], {})))
    assert coned.vertices == ("P", "Q", "P'")
    lk = link(coned, "P'")
    assert lk.vertices == base.vertices
    assert set(lk.simplices()) == set(base.simplices())


def test_join_of_point_sets_is_bipartite():
    a = build_nerve(points_spec(3, prefix="a"))
    b = build_nerve(points_spec(3, prefix="b"))
    joined = join2(a, b)
    assert joined == build_nerve(complete_bipartite_spec(3, 3))


def test_join_with_empty_is_identity():
    empty = build_nerve(CoxeterSpec([], {}))
    k4 = build_nerve(complete_graph_spec(4, 3))
    assert join2(empty, k4) == k4
    assert join2(k4, empty) == k4


def test_join_simplices_are_unions():
    a = build_nerve(cycle_spec(4, 2, prefix="a"))
    b = build_nerve(points_spec(2, prefix="b"))
    joined = join2(a, b)
    expected = set(a.simplices()) | set(b.simplices())
    for sa in a.simplices():
        for sb in b.simplices():
            expected.add(tuple(sorted(sa + sb)))
    assert set(joined.simplices()) == expected


def test_join_renames_collisions():
    a = build_nerve(points_spec(2, prefix="p"))
    b = build_nerve(points_spec(2, prefix="p"))
    joined = join2(a, b)
    assert len(joined.vertices) == 4
    assert set(joined.vertices) == {"p0", "p1", "p0'", "p1'"}


def test_cone_is_square_pyramid():
    base = build_nerve(cycle_spec(4, 2, prefix="b"))
    pyramid = join2(base, build_nerve(CoxeterSpec(["P"], {})))
    assert pyramid.counts() == (5, 8, 4)
    assert recognize_sphere(pyramid) is SphereKind.NEITHER  # open base


def test_recognize_sphere_examples():
    assert recognize_sphere(build_nerve(cycle_spec(6, 2))) is SphereKind.CIRCLE
    assert recognize_sphere(build_nerve(octahedron_spec())) is SphereKind.TWO_SPHERE
    assert recognize_sphere(build_nerve(icosahedron_spec())) is SphereKind.TWO_SPHERE
    assert recognize_sphere(build_nerve(complete_graph_spec(5, 3))) is SphereKind.NEITHER
    assert recognize_sphere(build_nerve(points_spec(2))) is SphereKind.NEITHER
    # a triangle whose labels make it a genuine 2-simplex is not a circle
    assert recognize_sphere(build_nerve(complete_graph_spec(3, 2))) is SphereKind.NEITHER
    # but an empty 3-cycle is the smallest circle
    assert recognize_sphere(build_nerve(complete_graph_spec(3, 3))) is SphereKind.CIRCLE


def test_a_lone_vertex_breaks_a_sphere_and_an_unlisted_one_is_refused():
    for spec, kind in ((octahedron_spec(), SphereKind.TWO_SPHERE), (cycle_spec(5, 2), SphereKind.CIRCLE)):
        nerve = build_nerve(spec)
        assert recognize_sphere(nerve) is kind
        with pytest.raises(ValueError, match="names 'w', which is not a listed vertex"):
            SimplicialComplex(nerve.vertices, [*nerve.simplices(), ("w",)])
        extra = SimplicialComplex((*nerve.vertices, "w"), nerve.simplices())  # "w" gets its 0-simplex
        assert extra.has_simplex(("w",)) and recognize_sphere(extra) is SphereKind.NEITHER
        assert not extra.is_connected()


def test_two_sphere_links_are_circles():
    for spec in (octahedron_spec(), icosahedron_spec()):
        nerve = build_nerve(spec)
        assert recognize_sphere(nerve) is SphereKind.TWO_SPHERE
        for v in nerve.vertices:
            assert recognize_sphere(link(nerve, v)) is SphereKind.CIRCLE


def factors_of(nerve):
    return diagram_components(nerve.spec, nerve.vertices)


def test_detect_join_k33():
    nerve = build_nerve(complete_bipartite_spec(3, 3))
    assert factors_of(nerve) == [("a0", "a1", "a2"), ("b0", "b1", "b2")]


def test_detect_join_absent_for_k5():
    k5 = build_nerve(complete_graph_spec(5, 3))
    assert factors_of(k5) == [k5.vertices]  # one factor: no join


def test_detect_join_octahedron_three_factors():
    nerve = build_nerve(octahedron_spec())
    assert factors_of(nerve) == [("x0", "x1"), ("y0", "y1"), ("z0", "z1")]


def test_detect_join_square_pyramid():
    pyramid = join2(build_nerve(cycle_spec(4, 2, prefix="b")), build_nerve(CoxeterSpec(["P"], {})))
    factors = factors_of(pyramid)
    # finest factorization: the apex plus the two diagonal point pairs
    assert factors == [("P",), ("b0", "b2"), ("b1", "b3")]


def test_detect_join_recovers_construction():
    rng = random.Random(31)
    for _ in range(30):
        a = build_nerve(random_spec(rng, max_vertices=3))
        b = build_nerve(random_spec(rng, max_vertices=3))
        if not a.vertices or not b.vertices:
            continue
        joined = join2(a, b)
        factors = factors_of(joined)
        assert len(factors) >= 2
        # the detected factors refine the {a, b} bipartition
        renamed_a = set(joined.vertices[: len(a.vertices)])
        for f in factors:
            fs = set(f)
            assert fs <= renamed_a or not (fs & renamed_a)


def test_join_associative_up_to_renaming():
    a = build_nerve(points_spec(2, prefix="a"))
    b = build_nerve(points_spec(2, prefix="b"))
    c = build_nerve(points_spec(2, prefix="c"))
    left = join2(join2(a, b), c)
    right = join2(a, join2(b, c))
    assert left == right  # names are disjoint, so no renaming happens
    assert recognize_sphere(left) is SphereKind.TWO_SPHERE  # the octahedron


def test_link_fullness_under_right_angled_complement():
    # With the complement of A right-angled, the link of any vertex
    # outside A inside any full B containing A is full in the ambient.
    nerve = build_nerve(octahedron_spec())
    A = ("x0", "x1", "y0", "y1")
    assert witness_of(nerve, A).right_angled_complement
    rng = random.Random(37)
    for _ in range(20):
        extra = [v for v in ("z0", "z1") if rng.random() < 0.7]
        B = sorted(set(A) | set(extra))
        b_nerve, _ = full_subcomplex(nerve, B)
        for v in extra:
            assert is_full_subcomplex(nerve, link(b_nerve, v))


def test_a_2_simplex_on_an_unlisted_vertex_is_refused_before_any_embedding():
    # The complex would list b and c only, so no rotation could face its 2-simplex {a,b,c}.
    with pytest.raises(ValueError, match=re.escape("simplex ('a', 'b', 'c') names 'a', which is not a listed vertex")):
        SimplicialComplex(["b", "c"], [("b",), ("c",), ("b", "c"), ("a", "b", "c")])


@pytest.mark.parametrize("document, name", [
    ({"1": [2, "3"], "2": ["3", "1"], "3": ["1", "2"]}, "2"),
    ({"a": ["b", None], "b": ["a"]}, "None"),
    ({"a": [["b"]], "b": ["a"]}, "['b']"),
    ({"a": [1.5]}, "1.5"),
    ({1: ["b"], "b": ["1"]}, "1"),
])
def test_a_rotation_document_names_only_strings(document, name):
    with pytest.raises(ValueError, match=re.escape(f"names {name}, which is not a vertex string")):
        RotationSystem.from_document(document)
