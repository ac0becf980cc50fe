"""Acceptance suite: one test per release criterion, each printing a PASS line.

Exact-rational assertions carry zero tolerance; runtime limits are wall
clock.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines.
"""

import random
import time
from fractions import Fraction

from coxeter_l2.model import CoxeterSpec, INFINITY
from coxeter_l2.catalog import (
    K4_ROTATION,
    complete_bipartite_spec,
    complete_graph_spec,
    cycle_spec,
    icosahedron_spec,
    octahedron_spec,
    path_spec,
    points_spec,
)
from coxeter_l2.nerve import (
    SimplicialComplex,
    SphereKind,
    build_nerve,
    is_full_subcomplex,
    join2,
    recognize_sphere,
)
from coxeter_l2.invariants import (
    betti,
    chi_orb,
    chi_orb_chain_sum,
)
from coxeter_l2.planarity import (
    brute_force_planar,
    certify_nonplanar,
    cone_construction,
    trace_vanishing,
)
from coxeter_l2.spherical import classify
from coxeter_l2.enumeration import verify_classification

from conftest import random_planar_spec, random_spec


def skeleton_of(spec):
    return SimplicialComplex(spec.vertices, [(u, v) for u, v, _ in spec.finite_edges()])


def test_criterion_1_chi_k5():
    start = time.perf_counter()
    value = chi_orb(build_nerve(complete_graph_spec(5, 3)))
    elapsed = time.perf_counter() - start
    assert value == Fraction(1, 6)
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: chi_orb(K5@3) = {value} in {elapsed:.3f}s")


def test_criterion_2_certificates():
    start = time.perf_counter()
    k5 = certify_nonplanar(complete_graph_spec(5, 3))
    t_k5 = time.perf_counter() - start
    assert k5.verdict == "NotPlanar"
    assert k5.bound == Fraction(1, 6)
    assert k5.chain[-1].statement == "planar-vanishing"
    assert t_k5 < 1.0

    start = time.perf_counter()
    k33 = certify_nonplanar(complete_bipartite_spec(3, 3))
    t_k33 = time.perf_counter() - start
    assert k33.verdict == "NotPlanar"
    assert k33.bound == Fraction(1, 4)
    join_steps = [s for s in k33.chain if s.statement == "R-join"]
    assert join_steps and join_steps[0].values["beta_2"] == "1/4"
    assert k33.chain[-1].statement == "planar-vanishing"
    assert t_k33 < 1.0
    print(
        f"\nPASS criterion 2: K5 NotPlanar bound 1/6 ({t_k5:.3f}s), "
        f"K3,3 NotPlanar beta_2 = 1/4 via R-join ({t_k33:.3f}s)"
    )


def test_criterion_3_paper_betti_values():
    p3 = betti(build_nerve(points_spec(3)))
    assert tuple(p3.get(i) for i in range(3)) == (0, Fraction(1, 2), 0)
    point = betti(build_nerve(points_spec(1)))
    assert point.get(0) == Fraction(1, 2)
    assert point.get(1) == 0
    print("\nPASS criterion 3: betti(P3) = (0, 1/2, 0), betti(point) = (1/2)")


def _octahedron_variants():
    edges = [
        (u, v)
        for u, v, _ in octahedron_spec().finite_edges()
    ]
    variants = []
    for u, v in edges:
        for m in (3, 5):
            variants.append(octahedron_spec(labels={(u, v): m}))
    # a few multi-edge variants whose faces stay spherical
    variants.append(octahedron_spec(labels={("x0", "y0"): 3, ("x1", "y1"): 3}))
    variants.append(octahedron_spec(labels={("x0", "y0"): 3, ("x0", "z0"): 3}))
    variants.append(octahedron_spec(labels={("x0", "y0"): 4, ("x1", "z1"): 5}))
    return variants


def test_criterion_4_sphere_vanishing():
    start = time.perf_counter()
    spheres = [build_nerve(octahedron_spec()), build_nerve(icosahedron_spec())]
    variants = _octahedron_variants()
    assert len(variants) >= 20
    spheres.extend(build_nerve(spec) for spec in variants)
    for nerve in spheres:
        assert recognize_sphere(nerve) is SphereKind.TWO_SPHERE
        assert chi_orb(nerve) == 0
        vector = betti(nerve)
        assert vector.as_tuple() == (0, 0, 0, 0)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(
        f"\nPASS criterion 4: chi_orb = 0 and betti = (0,0,0,0) on "
        f"{len(spheres)} sphere nerves in {elapsed:.2f}s"
    )


def test_criterion_5_chain_oracle_equivalence():
    rng = random.Random(2025)
    mismatches = 0
    for _ in range(200):
        spec = random_spec(rng, max_vertices=6, labels=(2, 3, 4, 5, INFINITY))
        nerve = build_nerve(spec)
        if chi_orb(nerve) != chi_orb_chain_sum(nerve):
            mismatches += 1
    assert mismatches == 0
    print("\nPASS criterion 5: collapsed sum = chain sum on 200 random systems")


FINITE_TYPE_TABLE = [
    ("A1", points_spec(1), 2),
    ("A2", path_spec([3]), 6),
    ("A3", path_spec([3, 3]), 24),
    ("A4", path_spec([3, 3, 3]), 120),
    ("B2", path_spec([4]), 8),
    ("B3", path_spec([3, 4]), 48),
    ("B4", path_spec([3, 3, 4]), 384),
    (
        "D4",
        CoxeterSpec(
            ["c", "p", "q", "r"],
            {
                ("c", "p"): 3,
                ("c", "q"): 3,
                ("c", "r"): 3,
                ("p", "q"): 2,
                ("p", "r"): 2,
                ("q", "r"): 2,
            },
        ),
        192,
    ),
    ("I2(3)", path_spec([3], prefix="i"), 6),
    ("I2(4)", path_spec([4], prefix="i"), 8),
    ("I2(5)", path_spec([5], prefix="i"), 10),
    ("I2(6)", path_spec([6], prefix="i"), 12),
    ("I2(7)", path_spec([7], prefix="i"), 14),
    ("I2(8)", path_spec([8], prefix="i"), 16),
    ("H3", path_spec([3, 5]), 120),
    ("F4", path_spec([3, 4, 3]), 1152),
    ("H4", path_spec([3, 3, 5]), 14400),
]


def test_criterion_6_classifier_vs_enumeration():
    start = time.perf_counter()
    for name, spec, order in FINITE_TYPE_TABLE:
        verdict = classify(spec, spec.vertices)
        assert verdict.spherical and verdict.order == order, name
        assert verify_classification(spec, spec.vertices), name
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"\nPASS criterion 6: {len(FINITE_TYPE_TABLE)} finite types "
        f"(orders 2..14400) verified by enumeration in {elapsed:.2f}s"
    )


def test_criterion_7_contrapositive_soundness():
    rng = random.Random(777)
    start = time.perf_counter()
    fired = 0
    for _ in range(1000):
        spec = random_planar_spec(rng, max_vertices=8)
        cert = certify_nonplanar(spec)
        if cert.verdict == "NotPlanar":
            fired += 1
        assert brute_force_planar(skeleton_of(spec))
    elapsed = time.perf_counter() - start
    assert fired == 0
    print(
        f"\nPASS criterion 7: obstruction silent on 1000 planar systems, "
        f"all skeletons confirmed planar ({elapsed:.1f}s)"
    )


def test_criterion_8_cone_and_trace():
    hexn = build_nerve(cycle_spec(6, 2))
    hex_rot = {v: list(hexn.neighbors(v)) for v in hexn.vertices}
    k4 = build_nerve(complete_graph_spec(4, 3))
    for nerve, rot in ((hexn, hex_rot), (k4, K4_ROTATION)):
        sphere, witness = cone_construction(nerve, rot)
        assert recognize_sphere(sphere) is SphereKind.TWO_SPHERE
        assert is_full_subcomplex(sphere, nerve) and witness.right_angled_complement
        assert chi_orb(sphere) == 0
        cones = set(sphere.vertices) - set(nerve.vertices)
        trace = trace_vanishing(sphere, nerve.vertices)
        assert len(trace.steps) == len(cones)
        assert {s.removed for s in trace.steps} == cones
        assert all(step["link_full"] is True for step in trace.to_document()["steps"])
    print("\nPASS criterion 8: cone construction and vanishing traces on hexagon@2, K4@3")


def test_criterion_9_join_identities():
    rng = random.Random(99)
    for _ in range(100):
        a = build_nerve(random_spec(rng, max_vertices=4))
        b = build_nerve(random_spec(rng, max_vertices=4))
        assert chi_orb(join2(a, b)) == chi_orb(a) * chi_orb(b)
        assert chi_orb(join2(a, build_nerve(CoxeterSpec(["P"], {})))) == chi_orb(a) / 2

    k33 = build_nerve(complete_bipartite_spec(3, 3))
    detected = betti(k33)
    constructed = betti(
        join2(build_nerve(points_spec(3, prefix="a")), build_nerve(points_spec(3, prefix="b")))
    )
    assert detected.as_tuple() == constructed.as_tuple() == (0, 0, Fraction(1, 4))
    print(
        "\nPASS criterion 9: join/cone chi identities on 100 pairs; "
        "K3,3 Betti agrees as detected and as constructed"
    )
