import itertools
import re
import random
from pathlib import Path
from fractions import Fraction

import pytest

from coxeter_l2.model import CoxeterSpec, parse_spec
from coxeter_l2.catalog import (
    complete_bipartite_spec,
    complete_graph_spec,
    cycle_spec,
    octahedron_spec,
    points_spec,
)
from coxeter_l2.nerve import (
    NotSpherical,
    RotationSystem,
    SimplicialComplex,
    join_spec,
    SphereKind,
    build_nerve,
    full_subcomplex,
    is_full_subcomplex,
    link,
    recognize_sphere,
    validate_embedding,
)
from coxeter_l2 import planarity
from coxeter_l2.invariants import betti, chi_orb
from coxeter_l2.planarity import (
    Certificate,
    HypothesisViolated,
    NonSimpleFaceBoundary,
    brute_force_planar,
    certify_nonplanar,
    cone_construction,
    planar_rotation,
    trace_vanishing,
)

from conftest import kuratowski_subgraph, kuratowski_type, random_planar_spec

DATA = Path(__file__).resolve().parent.parent / "demos" / "data"

K4_ROT = {
    "v0": ["v1", "v3", "v2"],
    "v1": ["v0", "v2", "v3"],
    "v2": ["v0", "v3", "v1"],
    "v3": ["v0", "v1", "v2"],
}


def skeleton_of(spec):
    return SimplicialComplex(spec.vertices, [(u, v) for u, v, _ in spec.finite_edges()])


def cycle_rotation(nerve):
    return {v: list(nerve.neighbors(v)) for v in nerve.vertices}


def test_rotation_system_validation():
    with pytest.raises(ValueError):
        RotationSystem({"a": ["b", "b"]})
    with pytest.raises(ValueError):
        RotationSystem({"a": ["a"]})
    rot = RotationSystem(K4_ROT)
    assert rot._next["v0", "v1"] == "v3"
    assert rot._next["v0", "v2"] == "v1"  # cyclic wrap
    skel = skeleton_of(complete_graph_spec(4, 3))
    rot.check_against(skel)
    with pytest.raises(ValueError):
        rot.check_against(skeleton_of(complete_graph_spec(5, 3)))


def test_faces_k4_planar_rotation():
    skel = skeleton_of(complete_graph_spec(4, 3))
    ((_, faces),) = validate_embedding(skel, RotationSystem(K4_ROT))
    assert len(faces) == 4
    assert all(len(face) == 3 for face in faces)


def test_faces_hexagon():
    nerve = build_nerve(cycle_spec(6, 2))
    ((_, faces),) = validate_embedding(nerve, RotationSystem(cycle_rotation(nerve)))
    assert len(faces) == 2
    assert all(len(face) == 6 for face in faces)


def test_faces_twisted_k4_fails():
    # swapping one rotation produces a toroidal embedding somewhere among
    # the 16 systems; check at least one fails and the planar one passes
    skel = skeleton_of(complete_graph_spec(4, 3))
    verdicts = []
    options = [["v1", "v3", "v2"], ["v1", "v2", "v3"]]
    for o0 in options:
        rot = dict(K4_ROT)
        rot["v0"] = o0
        try:
            validate_embedding(skel, RotationSystem(rot))
            verdicts.append(True)
        except NotSpherical:
            verdicts.append(False)
    assert verdicts == [True, False]


def test_faces_k5_all_rotations_fail():
    # exhaustive over all 7776 rotation systems of K5
    skel = skeleton_of(complete_graph_spec(5, 3))
    options = []
    for v in skel.vertices:
        ns = skel.neighbors(v)
        options.append([(ns[0], *p) for p in itertools.permutations(ns[1:])])
    failures = 0
    total = 0
    for choice in itertools.product(*options):
        total += 1
        rot = RotationSystem(dict(zip(skel.vertices, choice)))
        with pytest.raises(NotSpherical):
            validate_embedding(skel, rot)
        failures += 1
    assert total == 6 ** 5  # (4-1)! cyclic orders per vertex
    assert failures == total


def test_validate_embedding_refuses_dimension_three():
    nerve = build_nerve(complete_graph_spec(4, 2))  # right-angled K4: a solid tetrahedron
    assert nerve.dimension == 3
    with pytest.raises(ValueError, match="only apply to complexes of dimension <= 2"):
        validate_embedding(nerve, K4_ROT)


def test_validate_embedding_isolated_points():
    nerve = build_nerve(points_spec(3))
    out = validate_embedding(nerve, {"p0": [], "p1": [], "p2": []})
    assert len(out) == 3  # one trivial face set per component


def test_validate_embedding_triangle_simplex():
    # a filled triangle: its boundary must be a face of the embedding
    nerve = build_nerve(complete_graph_spec(3, 2))
    rot = {v: list(nerve.neighbors(v)) for v in nerve.vertices}
    out = validate_embedding(nerve, rot)
    assert len(out) == 1


def test_brute_force_small_graphs():
    assert brute_force_planar(skeleton_of(complete_graph_spec(4, 3)))
    assert not brute_force_planar(skeleton_of(complete_graph_spec(5, 3)))
    assert not brute_force_planar(skeleton_of(complete_bipartite_spec(3, 3)))
    assert brute_force_planar(skeleton_of(complete_bipartite_spec(2, 3)))
    assert brute_force_planar(skeleton_of(cycle_spec(8, 2)))
    assert brute_force_planar(skeleton_of(points_spec(4)))  # disconnected


def test_brute_force_edge_bound_shortcut():
    # K6 has 15 > 3*6-6 = 12 edges: rejected without enumeration
    assert not brute_force_planar(skeleton_of(complete_graph_spec(6, 3)))


def test_oracle_rejects_k11():
    assert not brute_force_planar(skeleton_of(complete_graph_spec(11, 3)))


def test_oracle_embeds_suspension_of_c400():
    suspension = join_spec(cycle_spec(400, 2, prefix="c"), CoxeterSpec(["n", "s"], {}))
    skel = skeleton_of(suspension)
    assert len(skel.vertices) == 402
    assert brute_force_planar(skel)
    ((_, faceset),) = validate_embedding(skel, planar_rotation(skel))
    assert len(faceset) == 800  # F = 2 - V + E = 2 - 402 + 1200


def subdivide(spec, edges, chords=()):
    """The skeleton of spec with the given edges subdivided, plus chords between new vertices."""
    pairs = [(u, v) for u, v, _ in spec.finite_edges()]
    vertices = list(spec.vertices)
    for i, (u, v) in enumerate(edges):
        vertices.append(f"s{i}")
        pairs.remove((u, v))
        pairs += [(u, f"s{i}"), (f"s{i}", v)]
    pairs += [(f"s{i}", f"s{j}") for i, j in chords]
    return SimplicialComplex(vertices, pairs)


def assert_minimal_nonplanar(graph, sub):
    assert set(sub.edges) <= set(graph.edges)
    assert not brute_force_planar(sub)
    for e in sub.edges:
        rest = [s for s in sub.simplices() if s != e]
        assert brute_force_planar(SimplicialComplex(sub.vertices, rest))


def test_kuratowski_witness_on_paper_examples():
    for name, kind in (("k5.json", "K5"), ("k33.json", "K3,3")):
        spec = parse_spec((DATA / name).read_text())
        skel = skeleton_of(spec)
        sub = kuratowski_subgraph(skel)
        assert sub == skel and kuratowski_type(sub) == kind
    assert kuratowski_subgraph(skeleton_of(octahedron_spec())) is None


def test_kuratowski_witness_on_subdivisions_with_chords():
    k5, k33 = complete_graph_spec(5, 3), complete_bipartite_spec(3, 3)
    cases = [
        (subdivide(k5, [("v0", "v1"), ("v2", "v3")]), "K5"),
        (subdivide(k33, [("a0", "b0"), ("a1", "b1"), ("a2", "b2")]), "K3,3"),
        (subdivide(k5, [("v0", "v1"), ("v2", "v3"), ("v1", "v4")], [(0, 1), (1, 2)]), None),
        (subdivide(k33, [("a0", "b0"), ("a1", "b1"), ("a0", "b2")], [(0, 1), (0, 2)]), None),
    ]
    for graph, kind in cases:
        if kind is not None:
            assert kuratowski_type(graph) == kind
        sub = kuratowski_subgraph(graph)
        assert_minimal_nonplanar(graph, sub)
        assert kuratowski_type(sub) in ("K5", "K3,3")


def test_kuratowski_type_rejects_other_graphs():
    for spec in (complete_graph_spec(4, 3), complete_graph_spec(6, 3), cycle_spec(5, 2),
                 octahedron_spec(), complete_bipartite_spec(3, 4)):
        assert kuratowski_type(skeleton_of(spec)) is None
    # two K3,3 subdivisions glued at a vertex are not one subdivision
    k33 = complete_bipartite_spec(3, 3)
    twice = CoxeterSpec(
        k33.vertices + ("w1", "w2", "w3", "w4", "w5"),
        {**{(u, v): 2 for u, v, _ in k33.finite_edges()},
         **{(u, v): 2 for u in ("a0", "w1", "w2") for v in ("w3", "w4", "w5")}},
    )
    assert kuratowski_type(skeleton_of(twice)) is None
    # a cycle of degree-2 vertices hanging at a branch vertex of K5 leads back to it
    k5 = complete_graph_spec(5, 3)
    loop = ("v0", "w1", "w2", "w3")
    hanging = CoxeterSpec(
        k5.vertices + loop[1:],
        {**{(u, v): 3 for u, v, _ in k5.finite_edges()},
         **{tuple(sorted((loop[i], loop[(i + 1) % 4]))): 2 for i in range(4)}},
    )
    assert kuratowski_type(skeleton_of(hanging)) is None


def test_cone_hexagon_is_bipyramid():
    nerve = build_nerve(cycle_spec(6, 2))
    sphere, witness = cone_construction(nerve, cycle_rotation(nerve))
    assert sphere.counts() == (8, 18, 12)
    assert recognize_sphere(sphere) is SphereKind.TWO_SPHERE
    assert is_full_subcomplex(sphere, nerve) and witness.right_angled_complement
    assert chi_orb(sphere) == 0
    added = set(sphere.vertices) - set(nerve.vertices)
    assert len(added) == 2


def test_cone_k4_at_3_is_octahedral():
    nerve = build_nerve(complete_graph_spec(4, 3))
    sphere, witness = cone_construction(nerve, K4_ROT)
    # all four triangular regions are empty 3-cycles, so all are coned:
    # 8 - 18 + 12 = 2
    assert sphere.counts() == (8, 18, 12)
    assert recognize_sphere(sphere) is SphereKind.TWO_SPHERE
    assert is_full_subcomplex(sphere, nerve) and witness.right_angled_complement
    assert chi_orb(sphere) == 0


def test_cone_leaves_filled_triangles_alone():
    # pentagon wheel at 2: the five filled triangles are faces and stay
    # unconed; only the outer pentagon region receives an apex
    hub = "x"
    ring = [f"v{i}" for i in range(5)]
    labels = {}
    for i, v in enumerate(ring):
        labels[(hub, v) if hub < v else (v, hub)] = 2
        u = ring[(i + 1) % 5]
        labels[(v, u) if v < u else (u, v)] = 2
    nerve = build_nerve(CoxeterSpec([hub] + ring, labels))
    assert len(nerve.triangles) == 5
    rot = {hub: ring[:]}
    for i, v in enumerate(ring):
        rot[v] = [ring[(i + 1) % 5], hub, ring[(i - 1) % 5]]
    sphere, witness = cone_construction(nerve, rot)
    assert len(set(sphere.vertices) - set(nerve.vertices)) == 1
    assert sphere.counts() == (7, 15, 10)
    assert recognize_sphere(sphere) is SphereKind.TWO_SPHERE
    assert is_full_subcomplex(sphere, nerve) and witness.right_angled_complement


def test_cone_already_sphere_adds_nothing():
    nerve = build_nerve(octahedron_spec())
    sphere, _ = cone_construction(nerve, planar_rotation(nerve))
    assert sphere == nerve  # every region is already a 2-simplex


def test_cone_rejects_nonsimple_face():
    # bowtie: two triangles sharing a vertex; the outer walk repeats it
    spec = CoxeterSpec(
        ["a", "b", "c", "d", "e"],
        {
            ("a", "b"): 3,
            ("a", "c"): 3,
            ("b", "c"): 3,
            ("a", "d"): 3,
            ("a", "e"): 3,
            ("d", "e"): 3,
        },
    )
    nerve = build_nerve(spec)
    rot = {
        "a": ["b", "c", "d", "e"],
        "b": ["a", "c"],
        "c": ["b", "a"],
        "d": ["a", "e"],
        "e": ["d", "a"],
    }
    with pytest.raises(NonSimpleFaceBoundary):
        cone_construction(nerve, rot)


def test_cone_refuses_a_lone_2_simplex(monkeypatch):
    # Both face walks bound the one filled triangle, so nothing would be coned; an apex
    # over either side would span a spherical tetrahedron.  The refusal comes before any build.
    nerve = build_nerve(CoxeterSpec(["1", "2", "3"], {("1", "2"): 2, ("2", "3"): 2, ("1", "3"): 2}))
    monkeypatch.setattr(planarity, "build_nerve", None)
    message = (
        "cannot cone the lone 2-simplex ('1', '2', '3'): it bounds both faces, "
        "and a label-2 apex over it would span a spherical tetrahedron"
    )
    with pytest.raises(ValueError, match=re.escape(message)):
        cone_construction(nerve, {"1": ["2", "3"], "2": ["3", "1"], "3": ["1", "2"]})


def test_cone_rejects_disconnected():
    nerve = build_nerve(points_spec(2))
    with pytest.raises(ValueError):
        cone_construction(nerve, {"p0": [], "p1": []})


def test_cone_error_order_empty_then_connected_then_dimension():
    with pytest.raises(ValueError, match="cannot cone an empty complex"):
        cone_construction(build_nerve(CoxeterSpec([], {})), {})
    k4 = complete_graph_spec(4, 2)  # all labels 2: the 3-simplex
    beside_point = build_nerve(CoxeterSpec([*k4.vertices, "z"], {(u, v): m for u, v, m in k4.finite_edges()}))
    assert beside_point.dimension == 3
    with pytest.raises(ValueError, match="requires a connected complex"):
        cone_construction(beside_point, {})
    with pytest.raises(ValueError, match=re.escape("requires dimension <= 2")):
        cone_construction(build_nerve(k4), {})


def test_certify_k5():
    cert = certify_nonplanar(complete_graph_spec(5, 3))
    assert cert.verdict == "NotPlanar"
    assert cert.bound == Fraction(1, 6)
    assert cert.chain[-1].statement == "planar-vanishing"
    assert cert.chain[0].values["chi_orb"] == "1/6"


def test_certify_k33_via_join():
    spec = complete_bipartite_spec(3, 3)
    cert = certify_nonplanar(spec)
    assert cert.verdict == "NotPlanar"
    assert cert.bound == Fraction(1, 4)
    statements = [s.statement for s in cert.chain]
    assert "R-join" in statements
    assert statements[-1] == "planar-vanishing"
    vector = betti(build_nerve(spec))  # the second and third steps cite entries 0 and 2 as the engine set them
    assert cert.chain[1:3] == (vector.step(0), vector.step(2))
    assert cert.chain[2].values == {"beta_2": "1/4"}


def test_certify_a_join_with_beta_2_zero_cites_the_atiyah_bound():
    # R-join sets beta_2 = 0 here; a zero entry is no bound, so the Euler bound is cited
    spec = join_spec(CoxeterSpec(["a"], {}), points_spec(2))
    assert betti(build_nerve(spec)).step(2).statement == "R-join"
    cert = certify_nonplanar(spec)
    assert (cert.verdict, cert.bound, cert.reason) == ("Inconclusive", Fraction(0), "ObstructionSilent")
    assert [s.statement for s in cert.chain] == ["chi-orb", "R-b0", "atiyah-bound"]
    assert cert.chain[2].values == {"beta_2_lower_bound": "0/1"}


def test_certify_hexagon_inconclusive():
    cert = certify_nonplanar(cycle_spec(6, 2))
    assert cert.verdict == "Inconclusive"
    assert cert.reason == "ObstructionSilent"
    assert cert.bound == 0


def test_certify_finite_group():
    cert = certify_nonplanar(path_spec_with_two_vertices())
    assert cert.verdict == "Inconclusive"
    assert cert.reason == "FiniteGroup"


def path_spec_with_two_vertices():
    return CoxeterSpec(["a", "b"], {("a", "b"): 3})


def test_certify_dimension_too_high():
    cert = certify_nonplanar(complete_graph_spec(4, 2))  # a 3-simplex
    assert cert.verdict == "Inconclusive"
    assert cert.reason == "DimensionTooHigh"


def test_certify_disconnected_with_nonplanar_component():
    k5 = complete_graph_spec(5, 3)
    doc = k5.to_document()
    doc["vertices"].append("lonely")
    cert = certify_nonplanar(CoxeterSpec(doc["vertices"], {
        (e["u"], e["v"]): e["m"] for e in doc["edges"]
    }))
    assert cert.verdict == "NotPlanar"
    assert cert.bound == Fraction(1, 6)
    assert any("component" in note for note in cert.notes)


def test_certify_disconnected_silent():
    cert = certify_nonplanar(points_spec(2))
    assert cert.verdict == "Inconclusive"
    assert len(cert.notes) >= 2


def test_certificate_chain_values_recomputable():
    cert = certify_nonplanar(complete_graph_spec(5, 3))
    nerve = build_nerve(cert.subject)
    num, den = cert.to_document()["bound"].split("/")
    assert Fraction(int(num), int(den)) == Fraction(1, 6)
    assert chi_orb(nerve) == Fraction(1, 6)


def test_trace_octahedron_poles():
    nerve = build_nerve(octahedron_spec())
    trace = trace_vanishing(nerve, ["x0", "x1", "y0", "y1"])
    assert [s.removed for s in trace.steps] == ["z0", "z1"]
    assert all(step["link_full"] is True for step in trace.to_document()["steps"])
    assert "i > 1" in trace.conclusion


def test_trace_whole_nerve_is_empty():
    nerve = build_nerve(octahedron_spec())
    trace = trace_vanishing(nerve, nerve.vertices)
    assert trace.steps == ()
    assert "sphere-vanishing" in trace.to_document()["base"]


def test_trace_coned_k4():
    nerve = build_nerve(complete_graph_spec(4, 3))
    sphere, _ = cone_construction(nerve, K4_ROT)
    trace = trace_vanishing(sphere, nerve.vertices)
    assert len(trace.steps) == 4  # one per cone vertex
    assert all(step["link_full"] is True for step in trace.to_document()["steps"])
    removed = {s.removed for s in trace.steps}
    assert removed == set(sphere.vertices) - set(nerve.vertices)


def test_trace_hypothesis_checks():
    hexn = build_nerve(cycle_spec(6, 2))
    with pytest.raises(HypothesisViolated):
        trace_vanishing(hexn, ["v0"])  # ambient is not a 2-sphere
    octa = build_nerve(octahedron_spec(labels={("x0", "y0"): 3}))
    assert recognize_sphere(octa) is SphereKind.TWO_SPHERE
    with pytest.raises(HypothesisViolated, match="right-angled complement"):
        # the 3-labelled edge has an endpoint outside the target
        trace_vanishing(octa, ["x0", "z0", "z1"])


def test_link_fullness_on_cone_outputs():
    # Lemma-style check over random planar inputs: links of removed
    # vertices stay full in the coned sphere for any full B containing A.
    rng = random.Random(59)
    checked = 0
    for _ in range(40):
        spec = random_planar_spec(rng, max_vertices=6)
        nerve = build_nerve(spec)
        if nerve.dimension > 2 or not nerve.is_connected():
            continue
        skel = skeleton_of(spec)
        try:
            sphere, witness = cone_construction(nerve, planar_rotation(skel))
        except (NotSpherical, NonSimpleFaceBoundary):
            continue
        checked += 1
        A = set(witness.vertex_set)
        extra = sorted(set(sphere.vertices) - A)
        mid = [v for v in extra if rng.random() < 0.5]
        B = sorted(A | set(mid))
        b_nerve, _ = full_subcomplex(sphere, B)
        for v in mid:
            assert is_full_subcomplex(sphere, link(b_nerve, v))
    assert checked >= 10


def test_contrapositive_soundness_sample():
    # planar inputs never trigger the obstruction (full run in acceptance)
    rng = random.Random(61)
    for _ in range(60):
        spec = random_planar_spec(rng)
        cert = certify_nonplanar(spec)
        assert cert.verdict != "NotPlanar"
        assert brute_force_planar(skeleton_of(spec))


def test_contrapositive_on_oracle_filtered_graphs():
    # The other sampling direction: arbitrary random systems whose
    # 1-skeleton the exhaustive oracle accepts (this includes trees, cut
    # vertices and disconnected graphs the constructive generator never
    # produces) must never be certified non-planar when connected, of
    # dimension <= 2, with W infinite.
    from conftest import random_spec
    from coxeter_l2.model import INFINITY
    from coxeter_l2.spherical import classify

    rng = random.Random(63)
    checked = 0
    for _ in range(300):
        spec = random_spec(rng, max_vertices=5, labels=(2, 3, 4, 5, 6, INFINITY))
        skel = skeleton_of(spec)
        nerve = build_nerve(spec)
        if (
            not nerve.vertices
            or not nerve.is_connected()
            or nerve.dimension > 2
            or classify(spec, spec.vertices).spherical
        ):
            continue
        if not brute_force_planar(skel):
            continue
        checked += 1
        assert certify_nonplanar(spec).verdict == "Inconclusive"
    assert checked >= 50
