import random
from itertools import combinations

import pytest

from coxeter_l2.model import INFINITY, CoxeterSpec
from coxeter_l2.catalog import (
    complete_bipartite_spec,
    complete_graph_spec,
    path_spec,
)
from coxeter_l2.spherical import classify, diagram_components

from conftest import IndeterminateCosine, check_classify_by_cosine, random_spec, reference_cosine_matrix_test


def test_components_complete_graph_of_threes():
    k5 = complete_graph_spec(5, 3)
    assert diagram_components(k5, k5.vertices) == [tuple(sorted(k5.vertices))]


def test_components_right_angled_bipartite():
    # Cross pairs are labelled 2 and disconnect; the unlabelled (infinite)
    # pairs inside each side are diagram edges, so each side is one
    # component.  Six singletons would misclassify the group as finite.
    k33 = complete_bipartite_spec(3, 3)
    assert diagram_components(k33, k33.vertices) == [
        ("a0", "a1", "a2"),
        ("b0", "b1", "b2"),
    ]


def test_components_infinite_label_connects():
    spec = CoxeterSpec(["a", "b", "c"], {("a", "b"): 3, ("b", "c"): 2})
    # m(a,c) is infinite: a diagram edge, so everything is one component.
    assert diagram_components(spec, ["a", "b", "c"]) == [("a", "b", "c")]


def test_components_all_commuting():
    spec = CoxeterSpec(["a", "b", "c"], {("a", "b"): 2, ("b", "c"): 2, ("a", "c"): 2})
    assert diagram_components(spec, spec.vertices) == [("a",), ("b",), ("c",)]


def test_classify_singleton():
    spec = CoxeterSpec(["s"], {})
    verdict = classify(spec, ["s"])
    assert verdict.spherical and verdict.order == 2
    assert [c.name for c in verdict.components] == ["A1"]


def test_classify_empty_subset():
    spec = complete_graph_spec(3, 3)
    verdict = classify(spec, [])
    assert verdict.spherical and verdict.order == 1 and verdict.components == ()


def test_classify_triangle_of_threes_not_spherical():
    spec = complete_graph_spec(3, 3)
    assert not classify(spec, spec.vertices).spherical


def test_classify_dihedral():
    spec = path_spec([3])
    verdict = classify(spec, spec.vertices)
    assert verdict.order == 6
    assert verdict.components[0].name == "A2"


def test_classify_b3_path():
    # Order 48 frozen from the independent matrix enumeration (see
    # test_enumeration) and the classification table.
    spec = path_spec([3, 4])
    verdict = classify(spec, spec.vertices)
    assert verdict.spherical and verdict.order == 48
    assert verdict.components[0].name == "B3"


def test_classify_product_triangle():
    spec = CoxeterSpec(["r", "s", "t"], {("r", "s"): 2, ("r", "t"): 2, ("s", "t"): 3})
    verdict = classify(spec, spec.vertices)
    assert verdict.spherical and verdict.order == 12
    assert sorted(c.name for c in verdict.components) == ["A1", "A2"]


@pytest.mark.parametrize(
    "labels,name,order",
    [
        ([3], "A2", 6),
        ([4], "B2", 8),
        ([5], "I2(5)", 10),
        ([7], "I2(7)", 14),
        ([3, 3], "A3", 24),
        ([3, 3, 3], "A4", 120),
        ([3, 4], "B3", 48),
        ([3, 3, 4], "B4", 384),
        ([3, 4, 3], "F4", 1152),
        ([3, 5], "H3", 120),
        ([3, 3, 5], "H4", 14400),
    ],
)
def test_classify_linear_diagrams(labels, name, order):
    spec = path_spec(labels)
    verdict = classify(spec, spec.vertices)
    assert verdict.spherical
    assert verdict.components[0].name == name
    assert verdict.order == order


@pytest.mark.parametrize(
    "labels",
    [[3, 6], [4, 4], [3, 3, 3, 4, 3], [5, 3, 5], [3, 4, 3, 3], [2, 2]],
)
def test_classify_infinite_linear_diagrams(labels):
    # (3,6), (4,4) and friends are affine or worse; (2,2) appears here as
    # two commuting dihedral factors of the path helper, which IS finite,
    # so skip that case explicitly.
    spec = path_spec(labels)
    verdict = classify(spec, spec.vertices)
    if labels == [2, 2]:
        assert verdict.spherical and verdict.order == 8
    else:
        assert not verdict.spherical


def _star(center_label_pairs):
    vertices = ["c"] + [f"p{i}" for i in range(len(center_label_pairs))]
    labels = {("c", f"p{i}"): m for i, m in enumerate(center_label_pairs)}
    for i in range(len(center_label_pairs)):
        for j in range(i + 1, len(center_label_pairs)):
            labels[(f"p{i}", f"p{j}")] = 2
    return CoxeterSpec(vertices, labels)


def test_classify_branched_diagrams():
    d4 = _star([3, 3, 3])
    verdict = classify(d4, d4.vertices)
    assert verdict.spherical and verdict.order == 192
    assert verdict.components[0].name == "D4"

    affine_star = _star([3, 3, 3, 3])  # degree-4 branch point: not finite
    assert not classify(affine_star, affine_star.vertices).spherical

    labelled_branch = _star([3, 3, 4])  # a 4 on a branched diagram: not finite
    assert not classify(labelled_branch, labelled_branch.vertices).spherical


def _e_spec(n):
    # Path v0..v(n-2) of 3-labelled edges with one extra vertex at v2.
    labels = [3] * (n - 2)
    spec = path_spec(labels)
    vertices = list(spec.vertices) + ["w"]
    edge_labels = {(u, v): m for u, v, m in spec.finite_edges()}
    for v in spec.vertices:
        edge_labels[(v, "w")] = 3 if v == "v2" else 2
    return CoxeterSpec(vertices, edge_labels)


@pytest.mark.parametrize("n,order", [(6, 51840), (7, 2903040), (8, 696729600)])
def test_classify_e_series(n, order):
    spec = _e_spec(n)
    verdict = classify(spec, spec.vertices)
    assert verdict.spherical and verdict.order == order
    assert verdict.components[0].name == f"E{n}"


def test_classify_e9_is_infinite():
    spec = _e_spec(9)
    assert not classify(spec, spec.vertices).spherical


def test_infinite_label_in_subset_never_spherical():
    spec = CoxeterSpec(["a", "b"], {})
    assert not classify(spec, ["a", "b"]).spherical


def test_cosine_infinite_pair_indeterminate_then_false():
    spec = CoxeterSpec(["a", "b"], {})
    with pytest.raises(IndeterminateCosine):
        reference_cosine_matrix_test(spec, ["a", "b"])
    assert check_classify_by_cosine(spec, ["a", "b"]) is None


def test_cosine_euclidean_triangle_resolved_false():
    # The (3,3,3) cosine matrix has zero determinant exactly; the numeric
    # test flags it, and classify must call it non-spherical.
    spec = complete_graph_spec(3, 3)
    with pytest.raises(IndeterminateCosine):
        reference_cosine_matrix_test(spec, spec.vertices)
    assert check_classify_by_cosine(spec, spec.vertices) is None


def test_classify_agrees_with_cosine_oracle():
    rng = random.Random(7)
    for _ in range(300):
        spec = random_spec(rng, max_vertices=6, labels=(2, 3, 4, 5, 6, INFINITY))
        check_classify_by_cosine(spec, spec.vertices)


def _path(n, last=3):
    """The bonds of a path on diagram vertices 0..n-1, the last one labelled last."""
    return [(i, i + 1) for i in range(n - 2)] + [(n - 2, n - 1, last)]


# Irreducible finite types as (rank, diagram bonds, label 3 unless given), and one product of rank 12.
MARGIN_TYPES = {
    "A12": (12, _path(12)),
    "B12": (12, _path(12, 4)),
    "D12": (12, _path(11) + [(9, 11)]),
    "E6": (6, _path(5) + [(2, 5)]),
    "E7": (7, _path(6) + [(2, 6)]),
    "E8": (8, _path(7) + [(2, 7)]),
    "F4": (4, [(0, 1), (1, 2, 4), (2, 3)]),
    "H3": (3, [(0, 1, 5), (1, 2)]),
    "H4": (4, [(0, 1, 5), (1, 2), (2, 3)]),
    "I2(12)": (2, [(0, 1, 12)]),
    "E8xH4": (12, _path(7) + [(2, 7), (8, 9, 5), (9, 10), (10, 11)]),
}


@pytest.mark.parametrize("name", sorted(MARGIN_TYPES))
def test_cosine_margin_holds_on_finite_types(name):
    # The leading minors follow the sorted vertex names, and the random suites,
    # mostly label 2, rarely draw these diagrams: each must stay determinate and
    # positive with its names in diagram order and under renamings.
    rank, bonds = MARGIN_TYPES[name]
    rng = random.Random(name)
    namings = [[f"v{i:02d}" for i in range(rank)]]
    namings += [[f"w{i:02d}" for i in rng.sample(range(100), rank)] for _ in range(5)]
    for names in namings:
        labels = dict.fromkeys(combinations(names, 2), 2)
        labels.update({(names[bond[0]], names[bond[1]]): bond[2] if len(bond) == 3 else 3 for bond in bonds})
        spec = CoxeterSpec(names, labels)
        assert check_classify_by_cosine(spec, spec.vertices) is True


def test_order_multiplicative_over_components():
    rng = random.Random(11)
    seen = 0
    for _ in range(300):
        spec = random_spec(rng, max_vertices=6)
        verdict = classify(spec, spec.vertices)
        if verdict.spherical and verdict.components:
            seen += 1
            product = 1
            for c in verdict.components:
                product *= c.order
            assert product == verdict.order
            covered = sorted(v for c in verdict.components for v in c.vertices)
            assert covered == sorted(spec.vertices)
    assert seen > 20


def test_spherical_monotone_under_subsets():
    rng = random.Random(13)
    for _ in range(200):
        spec = random_spec(rng, max_vertices=6)
        if not classify(spec, spec.vertices).spherical:
            continue
        for k in range(len(spec.vertices)):
            for sub in combinations(spec.vertices, k):
                assert classify(spec, sub).spherical
