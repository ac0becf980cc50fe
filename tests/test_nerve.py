import random
from itertools import combinations

import pytest

from coxeter_l2.model import CoxeterSpec, INFINITY, induced_subspec
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
    SimplicialComplex,
    SphereKind,
    build_nerve,
    full_subcomplex,
    induced_nerve,
    is_full_subcomplex,
    join2,
    link,
    recognize_sphere,
)
from coxeter_l2.spherical import classify, diagram_components

from conftest import random_spec


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


def test_nerve_orders_match_classifier():
    nerve = build_nerve(complete_graph_spec(4, 3))
    for s in nerve.simplices():
        assert nerve.order(s) == classify(nerve.spec, s).order
    assert nerve.order(()) == 1


def test_simplex_cap():
    with pytest.raises(CapExceeded):
        build_nerve(complete_graph_spec(6, 2), simplex_cap=10)


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
        if simplices:
            assert SimplicialComplex(view.vertices, view.simplices()[:-1]) != plain
        for complex_ in (view, rebuilt, plain, plain_view):
            for k in range(len(spec.vertices) + 1):
                for sub in combinations(spec.vertices, k):
                    expected = bool(sub) and set(sub) <= set(subset) and classify(spec, sub).spherical
                    assert complex_.has_simplex(reversed(sub)) == expected
            assert not complex_.has_simplex(())
            assert not complex_.has_simplex(("nowhere",))
            assert not complex_.has_simplex((*subset[:1], "nowhere"))


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
