import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from coxeter_l2 import invariants
from coxeter_l2.model import CoxeterSpec, INFINITY
from coxeter_l2.catalog import (
    complete_bipartite_spec,
    complete_graph_spec,
    cycle_spec,
    icosahedron_spec,
    octahedron_spec,
    points_spec,
)
from coxeter_l2.nerve import CapExceeded, SubcomplexWitness, build_nerve, full_subcomplex, join2, join_spec
from coxeter_l2.invariants import (
    UNKNOWN,
    BettiVector,
    CitedStep,
    ContradictoryRules,
    InvalidWitness,
    RuleContext,
    betti,
    chi_orb,
    chi_orb_chain_sum,
)
from coxeter_l2.planarity import cone_construction
from coxeter_l2.spherical import classify

from conftest import random_spec


def hand_chain_sum(spec):
    """Tiny independent chain enumerator: all chains of spherical subsets."""
    subsets = [
        frozenset(c)
        for k in range(len(spec.vertices) + 1)
        for c in combinations(spec.vertices, k)
        if classify(spec, c).spherical
    ]
    orders = {s: classify(spec, s).order for s in subsets}
    total = Fraction(0)
    count = 0

    def grow(chain):
        nonlocal total, count
        count += 1
        total += Fraction((-1) ** (len(chain) - 1), orders[chain[0]])
        for s in subsets:
            if chain[-1] < s:
                grow(chain + [s])

    for s in subsets:
        grow([s])
    return total, count


def test_chi_k5_is_one_sixth():
    nerve = build_nerve(complete_graph_spec(5, 3))
    assert chi_orb(nerve) == Fraction(1, 6)  # 1 - 5/2 + 10/6


def test_chi_single_vertex():
    nerve = build_nerve(points_spec(1))
    assert chi_orb(nerve) == Fraction(1, 2)


def test_chi_points_and_k33():
    assert chi_orb(build_nerve(points_spec(3))) == Fraction(-1, 2)
    assert chi_orb(build_nerve(complete_bipartite_spec(3, 3))) == Fraction(1, 4)


def test_chi_octahedron_vanishes():
    assert chi_orb(build_nerve(octahedron_spec())) == 0  # 1 - 3 + 3 - 1


def test_chi_empty_spec():
    assert chi_orb(build_nerve(CoxeterSpec([], {}))) == 1


def test_chain_sum_single_vertex():
    # three chains by hand: {}, {s}, {} < {s} giving 1 + 1/2 - 1
    nerve = build_nerve(points_spec(1))
    assert chi_orb_chain_sum(nerve) == Fraction(1, 2)
    total, count = hand_chain_sum(nerve.spec)
    assert (total, count) == (Fraction(1, 2), 3)


def test_chain_sum_three_points():
    # seven chains by hand: 1 + 3*(1/2) - 3
    nerve = build_nerve(points_spec(3))
    assert chi_orb_chain_sum(nerve) == Fraction(-1, 2)
    total, count = hand_chain_sum(nerve.spec)
    assert (total, count) == (Fraction(-1, 2), 7)


def test_chain_sum_k5():
    nerve = build_nerve(complete_graph_spec(5, 3))
    assert chi_orb_chain_sum(nerve) == chi_orb(nerve) == Fraction(1, 6)


def test_chain_sum_cap(monkeypatch):
    from coxeter_l2.nerve import CapExceeded

    nerve = build_nerve(complete_graph_spec(5, 3))
    monkeypatch.setattr(invariants, "_CHAIN_CAP", 10)
    with pytest.raises(CapExceeded):
        chi_orb_chain_sum(nerve)


def test_chain_cap_bounds_the_work(monkeypatch):
    # The suspension of C2000 has 12,002 simplices; comparing every pair of them took seconds.
    nerve = build_nerve(join_spec(cycle_spec(2000, 2, prefix="c"), CoxeterSpec(["n", "s"], {})))
    monkeypatch.setattr(invariants, "_CHAIN_CAP", 1000)
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="^chain enumeration exceeds 1000 chains$"):
        chi_orb_chain_sum(nerve)
    assert time.perf_counter() - start < 1


def test_chain_oracle_agrees_randomized():
    rng = random.Random(41)
    for _ in range(60):
        spec = random_spec(rng, max_vertices=7)
        nerve = build_nerve(spec)
        assert chi_orb(nerve) == chi_orb_chain_sum(nerve)


def test_chi_join_multiplicative_and_cone_halving():
    rng = random.Random(43)
    for _ in range(40):
        a = build_nerve(random_spec(rng, max_vertices=4))
        b = build_nerve(random_spec(rng, max_vertices=4))
        assert chi_orb(join2(a, b)) == chi_orb(a) * chi_orb(b)
        assert chi_orb(join2(a, build_nerve(CoxeterSpec(["P"], {})))) == chi_orb(a) / 2


def test_betti_three_points():
    vector = betti(build_nerve(points_spec(3)))
    assert tuple(vector.get(i) for i in range(3)) == (0, Fraction(1, 2), 0)
    assert vector.fully_known
    assert vector.step(0).statement == "R-b0"
    assert vector.step(1).statement == "R-atiyah"


def test_betti_single_point_finite_group():
    vector = betti(build_nerve(points_spec(1)))
    assert vector.get(0) == Fraction(1, 2)
    assert vector.get(1) == 0
    assert vector.step(0).statement == "R-fin"


def test_betti_empty_nerve():
    vector = betti(build_nerve(CoxeterSpec([], {})))
    assert vector.as_tuple() == (1,)


def test_betti_k33_via_join():
    vector = betti(build_nerve(complete_bipartite_spec(3, 3)))
    assert vector.as_tuple() == (0, 0, Fraction(1, 4))
    assert vector.step(2) == CitedStep("R-join", "{a0,a1,a2} * {b0,b1,b2}", {"beta_2": "1/4"})
    assert vector.provenance_for(2) == "R-join: {a0,a1,a2} * {b0,b1,b2}"


def test_betti_readers_refuse_negative_dimensions_on_k33():
    vector = betti(build_nerve(complete_bipartite_spec(3, 3)))
    for reader in (vector.get, vector.step, vector.provenance_for):
        with pytest.raises(IndexError, match="negative dimension"):
            reader(-1)
        assert reader(vector.top + 1) in (0, None, "beyond the top dimension: no chains")


def test_betti_two_sphere_vanishes():
    for spec in (octahedron_spec(), icosahedron_spec()):
        vector = betti(build_nerve(spec))
        assert vector.as_tuple() == (0, 0, 0, 0)
        assert vector.step(3).statement == "R-S2"


def test_betti_circle():
    vector = betti(build_nerve(cycle_spec(6, 2)))
    assert vector.as_tuple() == (0, Fraction(1, 2), 0)
    assert vector.step(2).statement == "R-S0/S1"


def test_betti_two_points_is_s0():
    vector = betti(build_nerve(points_spec(2)))
    assert vector.as_tuple() == (0, 0)
    assert vector.step(1).statement == "R-S0/S1"


def test_betti_k5_partially_unknown():
    vector = betti(build_nerve(complete_graph_spec(5, 3)))
    assert vector.get(0) == 0
    assert vector.get(1) is UNKNOWN
    assert vector.get(2) is UNKNOWN
    assert not vector.fully_known
    assert vector.get(5) == 0  # beyond the top dimension: no chains


def test_betti_sub1_arc_of_hexagon():
    # An arc of three consecutive hexagon vertices: full subcomplex of a
    # circle nerve, so entries above 1 vanish and the rest completes.
    hexn = build_nerve(cycle_spec(6, 2))
    arc, witness = full_subcomplex(hexn, ["v0", "v1", "v2"])
    vector = betti(arc, RuleContext(witness=witness))
    assert vector.step(2).statement == "R-sub1"
    assert vector.as_tuple() == (0, 0, 0)


def test_betti_sub2_three_points_in_bipyramid():
    # Complete the hexagon to a bipyramid; alternate hexagon vertices form
    # a full subcomplex with right-angled complement, pinning its vector.
    hexn = build_nerve(cycle_spec(6, 2))
    rot = {v: list(hexn.neighbors(v)) for v in hexn.vertices}
    sphere, _ = cone_construction(hexn, rot)
    target, witness = full_subcomplex(sphere, ["v0", "v2", "v4"])
    vector = betti(target, RuleContext(witness=witness))
    assert tuple(vector.get(i) for i in range(3)) == (0, Fraction(1, 2), 0)


def test_betti_planar_witness_on_k4():
    spec = complete_graph_spec(4, 3, prefix="")
    nerve = build_nerve(spec)
    rot = {"0": ["1", "3", "2"], "1": ["0", "2", "3"], "2": ["0", "3", "1"], "3": ["0", "1", "2"]}
    vector = betti(nerve, RuleContext(embedding=rot))
    assert vector.step(2).statement == "R-planar"
    assert vector.as_tuple() == (0, 0, 0)  # chi_orb(K4@3) = 1 - 2 + 1 = 0


def test_betti_planar_witness_on_points():
    nerve = build_nerve(points_spec(3))
    vector = betti(nerve, RuleContext(embedding={"p0": [], "p1": [], "p2": []}))
    assert tuple(vector.get(i) for i in range(3)) == (0, Fraction(1, 2), 0)


def test_invalid_witness_rejected():
    k5 = build_nerve(complete_graph_spec(5, 3))
    octa = build_nerve(octahedron_spec())
    _, witness = full_subcomplex(octa, ["x0", "x1"])
    with pytest.raises(InvalidWitness):
        betti(k5, RuleContext(witness=witness))
    with pytest.raises(InvalidWitness):
        betti(k5, RuleContext(embedding={v: [] for v in k5.vertices}))


def test_witness_on_a_target_with_other_labels_is_rejected():
    _, witness = full_subcomplex(build_nerve(cycle_spec(6, 2)), ["v0", "v1", "v2"])
    target = build_nerve(CoxeterSpec(["v0", "v1", "v2"], {("v0", "v1"): 3, ("v1", "v2"): 2}))
    with pytest.raises(InvalidWitness, match="^target is not the induced subsystem of the witness ambient$"):
        betti(target, RuleContext(witness=witness))


@pytest.mark.parametrize("order", [["y0", "x0", "x1", "y1"], ["y1", "y0", "x1", "x0"]])
def test_witness_accepts_a_target_listing_its_vertices_in_another_order(order):
    octa = octahedron_spec()
    square = [(u, v, m) for u, v, m in octa.finite_edges() if "z" not in u + v]
    _, witness = full_subcomplex(build_nerve(octa), order)
    vectors = [
        betti(build_nerve(CoxeterSpec(vertices, {(u, v): m for u, v, m in square})), RuleContext(witness=witness))
        for vertices in (["x0", "x1", "y0", "y1"], order)
    ]
    assert vectors[0].as_tuple() == (0, 0, 0)
    assert vectors[1].to_document() == vectors[0].to_document()


def test_witness_with_a_forged_right_angled_flag_is_rejected():
    # x0 has the label-3 neighbor y0, so the complement of the other five vertices is not right-angled
    ambient = build_nerve(octahedron_spec({("x0", "y0"): 3}))
    target, witness = full_subcomplex(ambient, ["x1", "y0", "y1", "z0", "z1"])
    assert not witness.right_angled_complement
    assert betti(target, RuleContext(witness=witness)).step(2).statement != "R-sub2"
    forged = SubcomplexWitness(ambient, witness.vertex_set, True)
    with pytest.raises(InvalidWitness, match="^witness right-angled flag does not match the ambient labels$"):
        betti(target, RuleContext(witness=forged))


def test_join_factor_grouping_agreement():
    # octahedron as a triple join: the two association orders agree
    a = build_nerve(points_spec(2, prefix="a"))
    b = build_nerve(points_spec(2, prefix="b"))
    c = build_nerve(points_spec(2, prefix="c"))
    left = betti(join2(join2(a, b), c))
    right = betti(join2(a, join2(b, c)))
    assert left.as_tuple() == right.as_tuple() == (0, 0, 0, 0)


def alternating_sum(vector):
    return sum(((-1) ** i * vector.get(i) for i in range(vector.top + 1)), Fraction(0))


def test_fully_known_vector_must_sum_to_chi_orb():
    k33 = build_nerve(complete_bipartite_spec(3, 3))
    assert betti(k33).as_tuple() == (0, 0, Fraction(1, 4))
    k33._chi = Fraction(0)  # a wrong held value: the Kunneth vector no longer sums to it
    with pytest.raises(ContradictoryRules, match="alternating sum 1/4 != chi_orb = 0"):
        betti(k33)


def test_fully_known_vectors_satisfy_atiyah_randomized():
    rng = random.Random(47)
    seen = 0
    for _ in range(80):
        nerve = build_nerve(random_spec(rng, max_vertices=6))
        vector = betti(nerve)
        if vector.fully_known:
            seen += 1
            assert alternating_sum(vector) == chi_orb(nerve)
    assert seen > 30


def test_all_entries_exact_rationals():
    vector = betti(build_nerve(complete_bipartite_spec(3, 3)))
    for i in range(vector.top + 1):
        assert isinstance(vector.get(i), Fraction)
    assert isinstance(chi_orb(build_nerve(octahedron_spec())), Fraction)


def test_kunneth_matches_manual_convolution():
    # The engine factorizes as finely as it can; whatever grouping it
    # picks, the result must equal the convolution of the two construction
    # factors whenever those are fully known.
    rng = random.Random(67)
    checked = 0
    for _ in range(60):
        a = build_nerve(random_spec(rng, max_vertices=3))
        b = build_nerve(random_spec(rng, max_vertices=3))
        va, vb = betti(a), betti(b)
        if not (va.fully_known and vb.fully_known):
            continue
        joined = betti(join2(a, b))
        if not joined.fully_known:
            continue
        checked += 1
        for k in range(joined.top + 1):
            manual = sum(
                (va.get(i) * vb.get(k - i) for i in range(k + 1)),
                Fraction(0),
            )
            assert joined.get(k) == manual
    assert checked > 20


def test_witness_vector_consistent_with_intrinsic():
    # For random planar systems completed to spheres, the vector computed
    # under the subcomplex witness must be fully known, satisfy the
    # alternating-sum identity, and agree with every intrinsically known
    # entry.
    import itertools

    from coxeter_l2.planarity import NonSimpleFaceBoundary
    from coxeter_l2.nerve import (
        NotSpherical,
        RotationSystem,
        SimplicialComplex,
        validate_embedding,
    )
    from conftest import random_planar_spec

    def planar_rotation(skel):
        options = []
        for v in skel.vertices:
            ns = skel.neighbors(v)
            options.append(
                [(ns[0], *p) for p in itertools.permutations(ns[1:])] if ns else [()]
            )
        for choice in itertools.product(*options):
            rot = RotationSystem(dict(zip(skel.vertices, choice)))
            try:
                validate_embedding(skel, rot)
                return rot
            except NotSpherical:
                continue
        return None

    rng = random.Random(71)
    checked = 0
    for _ in range(50):
        spec = random_planar_spec(rng, max_vertices=6)
        nerve = build_nerve(spec)
        if nerve.dimension > 2:
            continue
        skel = SimplicialComplex(spec.vertices, [(u, v) for u, v, _ in spec.finite_edges()])
        rot = planar_rotation(skel)
        if rot is None:
            continue
        try:
            sphere, witness = cone_construction(nerve, rot)
        except (NotSpherical, NonSimpleFaceBoundary):
            continue
        checked += 1
        intrinsic = betti(nerve)
        witnessed = betti(nerve, RuleContext(witness=witness))
        assert witnessed.fully_known
        assert alternating_sum(witnessed) == chi_orb(nerve)
        for i in range(intrinsic.top + 1):
            if intrinsic.get(i) is not UNKNOWN:
                assert intrinsic.get(i) == witnessed.get(i)
    assert checked >= 15


def test_conflicting_assignments_abort():
    vector = BettiVector(2, Fraction(0))
    vector._assign(1, Fraction(1, 2), "first", "a value")
    vector._assign(1, Fraction(1, 2), "repeat", "is fine")
    with pytest.raises(ContradictoryRules, match="'first: a value' gave 1/2"):
        vector._assign(1, Fraction(1, 3), "conflict", "another value")
    with pytest.raises(ContradictoryRules):
        vector._assign(2, Fraction(-1, 2), "negative", "a negative value")
    vector._assign(3, Fraction(0), "zero", "beyond the top is fine")
    with pytest.raises(ContradictoryRules, match="assigned 1/2 beyond the top dimension 2"):
        vector._assign(3, Fraction(1, 2), "beyond", "the top")
    assert vector.provenance_for(1) == "first: a value"

