import math
import random
import time
import types
from collections import Counter

import numpy as np
import pytest

from coxeter_l2 import enumeration
from coxeter_l2.model import CoxeterSpec
from coxeter_l2.catalog import complete_graph_spec, path_spec
from coxeter_l2.enumeration import NumericCollision, enumerate_order, verify_classification
from coxeter_l2.spherical import classify

from conftest import reflection_matrices


def test_dihedral_order_six():
    spec = path_spec([3])
    assert enumerate_order(spec, spec.vertices, cap=20) == 6


def test_b3_enumerates_to_48():
    spec = path_spec([3, 4])
    assert enumerate_order(spec, spec.vertices, cap=100) == 48


def test_h3_enumerates_to_120():
    spec = path_spec([3, 5])
    assert enumerate_order(spec, spec.vertices, cap=300) == 120


def test_euclidean_triangle_exceeds_cap():
    spec = complete_graph_spec(3, 3)
    assert enumerate_order(spec, spec.vertices, cap=3000) is None


def test_infinite_label_short_circuits():
    spec = CoxeterSpec(["a", "b"], {})
    assert enumerate_order(spec, ["a", "b"], cap=5) is None


def test_empty_subset_is_trivial_group():
    spec = path_spec([3])
    assert enumerate_order(spec, [], cap=5) == 1


def test_generators_are_involutions_with_braid_orders():
    spec = path_spec([3, 4, 3])
    T, gens = reflection_matrices(spec)
    eye = np.eye(len(T))
    for g in gens:
        assert np.allclose(g @ g, eye, atol=1e-9)
    for i in range(len(T)):
        for j in range(i + 1, len(T)):
            m = int(spec.label(T[i], T[j]))
            assert np.allclose(
                np.linalg.matrix_power(gens[i] @ gens[j], m), eye, atol=1e-6
            )


def test_generators_skip_the_braid_check_of_an_infinite_pair():
    spec = CoxeterSpec(["a", "b", "c"], {("a", "b"): 3})  # (a,c) and (b,c) are infinite
    T, gens = reflection_matrices(spec)
    assert T == ("a", "b", "c")
    eye = np.eye(3)
    assert all(np.allclose(g @ g, eye, atol=1e-9) for g in gens)
    assert np.allclose(np.linalg.matrix_power(gens[0] @ gens[1], 3), eye, atol=1e-6)
    for i in (0, 1):  # an infinite pair's product has no finite order
        product = gens[i] @ gens[2]
        assert not any(np.allclose(np.linalg.matrix_power(product, k), eye, atol=1e-6) for k in range(1, 13))


def test_result_independent_of_vertex_listing():
    # the same system presented with permuted vertex order enumerates equally
    spec1 = CoxeterSpec(["a", "b", "c"], {("a", "b"): 3, ("b", "c"): 4, ("a", "c"): 2})
    spec2 = CoxeterSpec(["c", "a", "b"], {("a", "b"): 3, ("b", "c"): 4, ("a", "c"): 2})
    assert (
        enumerate_order(spec1, spec1.vertices, cap=100)
        == enumerate_order(spec2, spec2.vertices, cap=100)
        == 48
    )


def test_preconditions():
    big = complete_graph_spec(9, 2)
    with pytest.raises(ValueError):
        enumerate_order(big, big.vertices, cap=10)
    small = path_spec([3])
    with pytest.raises(ValueError):
        enumerate_order(small, small.vertices, cap=10 ** 6 + 1)


def test_verify_k5_edges_dihedral():
    k5 = complete_graph_spec(5, 3)
    for i in range(5):
        for j in range(i + 1, 5):
            pair = (f"v{i}", f"v{j}")
            assert classify(k5, pair).order == 6
            assert verify_classification(k5, pair)


def test_verify_commuting_triple():
    spec = complete_graph_spec(3, 2)
    assert enumerate_order(spec, spec.vertices, cap=20) == 8
    assert verify_classification(spec, spec.vertices)


def test_verify_f4():
    spec = path_spec([3, 4, 3])
    assert enumerate_order(spec, spec.vertices, cap=2400) == 1152
    assert verify_classification(spec, spec.vertices)


def test_verify_e6_and_h4():
    vertices = [f"v{i}" for i in range(6)]
    bonds = {("v0", "v1"), ("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v2", "v5")}
    e6 = CoxeterSpec(vertices, {
        (u, v): 3 if (u, v) in bonds else 2 for i, u in enumerate(vertices) for v in vertices[i + 1:]
    })
    h4 = path_spec([5, 3, 3])
    assert [classify(spec, spec.vertices).order for spec in (e6, h4)] == [51840, 14400]
    assert verify_classification(e6, e6.vertices)
    assert verify_classification(h4, h4.vertices)


def test_affine_triangle_exceeds_the_default_cap():
    spec = complete_graph_spec(3, 3)
    assert enumerate_order(spec, spec.vertices) is None


def test_verify_non_spherical():
    spec = complete_graph_spec(3, 3)
    assert verify_classification(spec, spec.vertices)


def test_verify_random_subsets():
    rng = random.Random(53)
    k5 = complete_graph_spec(5, 3)
    for _ in range(10):
        size = rng.randint(0, 3)
        subset = rng.sample(list(k5.vertices), size)
        assert verify_classification(k5, subset)


def test_verify_refuses_a_cap_past_the_budget_without_enumerating(monkeypatch):
    # |H4 x B3| = 691,200 is below 10^6, but the cap of twice the order is not
    labels = {("h0", "h1"): 5, ("h1", "h2"): 3, ("h2", "h3"): 3, ("b0", "b1"): 4, ("b1", "b2"): 3}
    vertices = ["h0", "h1", "h2", "h3", "b0", "b1", "b2"]
    spec = CoxeterSpec(
        vertices,
        {(u, v): labels.get((u, v), 2) for i, u in enumerate(vertices) for v in vertices[i + 1:]},
    )
    assert classify(spec, vertices).order == 691200

    def enumerates(*args, **kwargs):
        raise AssertionError("the oracle ran")

    monkeypatch.setattr(enumeration, "enumerate_order", enumerates)
    with pytest.raises(ValueError, match="claimed order 691200 exceeds the oracle budget"):
        verify_classification(spec, vertices)


def test_a_pairing_below_the_margin_raises_numeric_collision():
    # a generator whose row is (-0.3,) sends e_0 to a coordinate in the [1/4, 1/2) band,
    # which is neither an exact 0 nor a root coefficient of magnitude at least 1
    with pytest.raises(
        NumericCollision, match=r"^root coefficient -0\.3 is neither within 0\.25 of 0 nor in \[0\.5, 1073741824\]$"
    ):
        enumeration._order(((-0.3,),), 10)
    # below 1/4 the coordinate reads as exactly 0: e_0 is fixed and its orbit is one point
    assert enumeration._order(((-0.2,),), 10) == 1


def test_a_pairing_past_the_size_bound_raises_numeric_collision():
    with pytest.raises(NumericCollision, match=r"^root coefficient -2\.14748e\+09 is neither"):
        enumeration._order(((-2.0 ** 31,),), 10)


def test_every_computed_coordinate_is_checked():
    # the band is caught on a neighbour coordinate and on a generator entry, not only on y_s:
    # e_1 g_1 = (1, -1), and then (1, -1) g_0 = (-1, -1 + 1.3)
    with pytest.raises(NumericCollision, match=r"^root coefficient 0\.3 "):
        enumeration._order(((-1.0, 1.3), (1.0, -1.0)), 10)
    with pytest.raises(NumericCollision, match=r"^root coefficient 0\.3 "):
        enumeration._order(((-1.0, 0.3), (0.0, -1.0)), 10)


def _dynkin(rank, bonds):
    """A system on v0..v{rank-1}: label 3 on each bond unless given, 2 elsewhere."""
    vertices = [f"v{i}" for i in range(rank)]
    labels = {(f"v{i}", f"v{j}"): 2 for i in range(rank) for j in range(i + 1, rank)}
    for bond in bonds:
        i, j, m = bond if len(bond) == 3 else (*bond, 3)
        labels[(f"v{min(i, j)}", f"v{max(i, j)}")] = m
    return CoxeterSpec(vertices, labels)


A8 = _dynkin(8, [(i, i + 1) for i in range(7)])
B7 = _dynkin(7, [(i, i + 1) for i in range(5)] + [(5, 6, 4)])
B8 = _dynkin(8, [(i, i + 1) for i in range(6)] + [(6, 7, 4)])
D8 = _dynkin(8, [(i, i + 1) for i in range(6)] + [(5, 7)])
E6 = _dynkin(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])
E8 = _dynkin(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7)])


def test_a8_and_b7_enumerate_to_their_orders():
    assert [classify(spec, spec.vertices).order for spec in (A8, B7)] == [362880, 645120]
    assert enumerate_order(A8, A8.vertices) == 362880
    assert enumerate_order(B7, B7.vertices) == 645120


def test_rank_eight_groups_past_the_default_cap():
    # |B8| = 10,321,920, |D8| = 5,160,960, |E8| = 696,729,600
    for spec in (B8, D8, E8):
        assert classify(spec, spec.vertices).order > 10 ** 6
        assert enumerate_order(spec, spec.vertices) is None


def test_verify_a8():
    assert verify_classification(A8, A8.vertices)


@pytest.mark.parametrize("spec", [E6, path_spec([3, 4, 3]), path_spec([3, 3, 5])], ids=["E6", "F4", "H4"])
def test_order_is_unchanged_under_renaming(spec):
    # a renaming reorders the sorted subset, and with it the chain of parabolic subgroups
    order = classify(spec, spec.vertices).order
    rng = random.Random(order)
    for _ in range(10):
        names = dict(zip(spec.vertices, (f"w{i}" for i in rng.sample(range(100), len(spec.vertices)))))
        renamed = CoxeterSpec(
            [names[v] for v in spec.vertices],
            {(names[u], names[v]): spec.label(u, v) for i, u in enumerate(spec.vertices) for v in spec.vertices[i + 1:]},
        )
        assert enumerate_order(renamed, renamed.vertices) == order


def test_construction_names_the_first_generator_that_is_not_an_involution(monkeypatch):
    original = CoxeterSpec.label

    def skewed(self, u, v):  # the diagonal of the cosine form drifts from 1 at v2 and v3
        return 1.01 if u == v and u in ("v2", "v3") else original(self, u, v)

    monkeypatch.setattr(CoxeterSpec, "label", skewed)
    spec = path_spec([3, 4, 3])
    with pytest.raises(ArithmeticError, match="^generator v2 is not an involution$"):
        enumerate_order(spec, spec.vertices)


@pytest.mark.parametrize("m, first", [(3, "v0, v1"), (4, "v1, v2"), (2, "v0, v2")])
def test_construction_names_the_first_pair_of_wrong_order(monkeypatch, m, first):
    # F4's pairs with label m fail once cos(pi / m) is off: (v0,v1) and (v2,v3)
    # for 3, (v1,v2) alone for 4, and (v0,v2), (v0,v3), (v1,v3) for 2
    def cos(x):
        return math.cos(x) + (1e-3 if x == math.pi / m else 0.0)

    monkeypatch.setattr(enumeration, "math", types.SimpleNamespace(pi=math.pi, cos=cos))
    spec = path_spec([3, 4, 3])
    with pytest.raises(ArithmeticError, match=f"^product of {first} does not have order {m}$"):
        enumerate_order(spec, spec.vertices)


def test_a_dihedral_pair_past_the_cap_returns_none_at_once():
    # a pair with label m generates I2(m), of order 2m, so 2m past the cap decides without a braid check
    spec = path_spec([10 ** 9])
    start = time.perf_counter()
    assert enumerate_order(spec, spec.vertices) is None
    assert time.perf_counter() - start < 0.1
    dihedral = path_spec([3000])
    assert enumerate_order(dihedral, dihedral.vertices) == 6000


def test_enumeration_reads_each_label_once(monkeypatch):
    calls = Counter()
    original = CoxeterSpec.label

    def counting(self, u, v):
        calls[(u, v)] += 1
        return original(self, u, v)

    monkeypatch.setattr(CoxeterSpec, "label", counting)
    spec = path_spec([3, 4, 3])
    assert enumerate_order(spec, spec.vertices) == 1152
    assert sum(calls.values()) == 16 and set(calls.values()) == {1}  # one read per ordered pair
