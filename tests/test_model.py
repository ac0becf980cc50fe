import json
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

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
from coxeter_l2.catalog import complete_bipartite_spec, complete_graph_spec

from conftest import random_spec


def k5_document():
    vertices = [f"v{i}" for i in range(5)]
    edges = [
        {"u": vertices[i], "v": vertices[j], "m": 3}
        for i in range(5)
        for j in range(i + 1, 5)
    ]
    return {"vertices": vertices, "edges": edges}


def test_parse_k5_all_threes():
    spec = parse_spec(k5_document())
    assert len(spec.vertices) == 5
    assert len(spec.finite_edges()) == 10
    assert all(m == 3 for _, _, m in spec.finite_edges())
    assert spec == complete_graph_spec(5, 3)


def test_label_below_two_rejected():
    doc = {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "m": 1}]}
    with pytest.raises(LabelOutOfRange):
        parse_spec(doc)


def test_empty_spec_is_legal():
    spec = parse_spec({"vertices": [], "edges": []})
    assert spec.vertices == ()
    assert spec.finite_edges() == []


def test_absent_pair_is_infinite():
    spec = parse_spec({"vertices": ["a", "b", "c"], "edges": [{"u": "a", "v": "b", "m": 3}]})
    assert spec.label("a", "c") == INFINITY
    assert spec.label("b", "a") == 3
    assert spec.label("a", "a") == 1


def test_inf_edge_equivalent_to_omission():
    with_inf = parse_spec(
        {"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "m": "inf"}]}
    )
    without = parse_spec({"vertices": ["a", "b"], "edges": []})
    assert with_inf == without


# Invalid documents with the error parse_spec reports first.  Several carry
# more than one fault: edge records are checked in order before the vertex
# list is checked for empty names and duplicates.
INVALID_DOCUMENTS = [
    ("not json {", MalformedDocument),
    ({"edges": []}, MalformedDocument),
    ({"vertices": ["a", "a"]}, DuplicateVertex),
    ({"vertices": [3]}, MalformedDocument),
    ({"vertices": ["a"], "edges": [{"u": "a", "v": "a", "m": 2}]}, MalformedDocument),
    ({"vertices": ["a"], "edges": [{"u": "a", "v": "b", "m": 2}]}, UnknownVertex),
    ({"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "m": 2.5}]}, LabelOutOfRange),
    ({"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "m": "four"}]}, LabelOutOfRange),
    (
        {
            "vertices": ["a", "b"],
            "edges": [{"u": "a", "v": "b", "m": 2}, {"u": "b", "v": "a", "m": 3}],
        },
        ConflictingLabel,
    ),
    (
        {
            "vertices": ["a", "b"],
            "edges": [{"u": "a", "v": "b", "m": 2}, {"u": "b", "v": "a", "m": "inf"}],
        },
        ConflictingLabel,
    ),
    (
        {
            "vertices": ["a", "b"],
            "edges": [{"u": "a", "v": "b", "m": "inf"}, {"u": "b", "v": "a", "m": 3}],
        },
        ConflictingLabel,
    ),
    (["a"], MalformedDocument),
    ({"vertices": "ab"}, MalformedDocument),
    ({"vertices": ["a"], "edges": {}}, MalformedDocument),
    ({"vertices": ["", "b"]}, MalformedDocument),
    ({"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "m": True}]}, LabelOutOfRange),
    ({"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "m": -1}]}, LabelOutOfRange),
    ({"vertices": ["a", "b"], "edges": ["ab"]}, MalformedDocument),
    ({"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b"}]}, MalformedDocument),
    ({"vertices": ["a", "b"], "edges": [{"u": "a", "v": 1, "m": 2}]}, MalformedDocument),
    # more than one fault
    ({"vertices": ["a", "a", "b"], "edges": [{"u": "a", "v": "b", "m": 1}]}, LabelOutOfRange),
    ({"vertices": ["a", "a"], "edges": [{"u": "a", "v": "c", "m": 2}]}, UnknownVertex),
    ({"vertices": ["", "b"], "edges": [{"u": "", "v": "b", "m": "x"}]}, LabelOutOfRange),
    ({"vertices": ["a", 3, "a"], "edges": [{"u": "a", "v": "a", "m": 2}]}, MalformedDocument),
    ({"vertices": ["b", "a", "b"], "edges": [{"u": "a", "v": "b", "m": 2}, {"u": "a"}]}, MalformedDocument),
    (
        {"vertices": ["a", "b", "c"], "edges": [{"u": "a", "v": "b", "m": 0}, {"u": "b"}]},
        LabelOutOfRange,
    ),
    (
        {
            "vertices": ["a", "b", "a"],
            "edges": [
                {"u": "b", "v": "a", "m": 3},
                {"u": "a", "v": "b", "m": "inf"},
                {"u": "a", "v": "z", "m": 2},
            ],
        },
        ConflictingLabel,
    ),
    # a JSON number that overflows to infinity, and the non-standard token, are no "inf"
    ('{"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "m": 1e400}]}', LabelOutOfRange),
    ('{"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "m": Infinity}]}', LabelOutOfRange),
]


@pytest.mark.parametrize("doc,error", INVALID_DOCUMENTS)
def test_invalid_documents_rejected(doc, error):
    with pytest.raises(error):
        parse_spec(doc)


@pytest.mark.parametrize("number", ["1e400", "Infinity"])
def test_an_infinite_json_number_is_named_as_one(number):
    # json.loads reads both as the float inf; the message says so instead of printing "inf".
    doc = '{"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "m": %s}]}' % number
    message = "label m(a,b) is an infinite JSON number, not an integer; an infinite label is written 'inf'"
    with pytest.raises(LabelOutOfRange) as raised:
        parse_spec(doc)
    assert str(raised.value) == message
    assert CoxeterSpec(["a", "b"], {("a", "b"): INFINITY}).label("a", "b") == INFINITY  # the constructor takes it


def test_undecodable_bytes_are_malformed():
    with pytest.raises(MalformedDocument, match="^not valid JSON: 'utf-8' codec can't decode byte 0xff"):
        parse_spec(b'{"vertices": ["\xff"]}')


def test_duplicate_edge_with_same_label_tolerated():
    doc = {
        "vertices": ["a", "b"],
        "edges": [{"u": "a", "v": "b", "m": 3}, {"u": "b", "v": "a", "m": 3}],
    }
    assert parse_spec(doc).label("a", "b") == 3


def test_labels_symmetric():
    spec = parse_spec({"vertices": ["b", "a"], "edges": [{"u": "b", "v": "a", "m": 7}]})
    assert spec.label("a", "b") == spec.label("b", "a") == 7


def test_serialization_sorts_edges():
    spec = parse_spec(
        {
            "vertices": ["z", "m", "a"],
            "edges": [{"u": "z", "v": "m", "m": 4}, {"u": "z", "v": "a", "m": 3}],
        }
    )
    doc = spec.to_document()
    assert doc["vertices"] == ["z", "m", "a"]  # vertex order preserved
    assert doc["edges"] == [{"u": "a", "v": "z", "m": 3}, {"u": "m", "v": "z", "m": 4}]


@st.composite
def spec_documents(draw):
    n = draw(st.integers(0, 6))
    vertices = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            m = draw(st.sampled_from([None, 2, 3, 4, 5, 17]))
            if m is not None:
                if draw(st.booleans()):
                    edges.append({"u": vertices[i], "v": vertices[j], "m": m})
                else:
                    edges.append({"u": vertices[j], "v": vertices[i], "m": m})
    return {"vertices": vertices, "edges": edges}


@given(spec_documents())
@settings(max_examples=120)
def test_round_trip(doc):
    spec = parse_spec(doc)
    again = parse_spec(json.dumps(spec.to_document()))
    assert again == spec
    assert again.vertices == spec.vertices


@given(spec_documents(), st.randoms())
@settings(max_examples=120)
def test_induced_idempotent_and_monotone(doc, rng):
    spec = parse_spec(doc)
    subset = [v for v in spec.vertices if rng.random() < 0.6]
    smaller = [v for v in subset if rng.random() < 0.6]
    once = induced_subspec(spec, smaller)
    twice = induced_subspec(induced_subspec(spec, subset), smaller)
    assert once == twice
    assert induced_subspec(once, smaller) == once


def test_induced_examples():
    k5 = complete_graph_spec(5, 3)
    tri = induced_subspec(k5, ["v0", "v2", "v4"])
    assert len(tri.vertices) == 3
    assert all(m == 3 for _, _, m in tri.finite_edges())
    assert len(tri.finite_edges()) == 3

    assert induced_subspec(k5, k5.vertices) == k5

    k33 = complete_bipartite_spec(3, 3)
    side = induced_subspec(k33, ["a0", "a1", "a2"])
    assert side.finite_edges() == []  # three disjoint points
    assert len(side.vertices) == 3

    with pytest.raises(UnknownVertex):
        induced_subspec(k5, ["v0", "nope"])


@pytest.mark.parametrize("u, v", [("v0", "nope"), ("nope", "v0"), ("nope", "nope")])
def test_label_of_an_unknown_vertex_raises(u, v):
    with pytest.raises(UnknownVertex, match="is not a vertex pair of this system"):
        complete_graph_spec(5, 3).label(u, v)


def test_random_corruption_rejected_or_roundtrips():
    # Documents mutated at random either parse to a consistent spec or
    # raise a SpecError subclass; nothing else leaks through.
    rng = random.Random(20)
    for _ in range(200):
        spec = random_spec(rng, max_vertices=5)
        doc = spec.to_document()
        mutation = rng.choice(["dup_vertex", "bad_label", "ghost_edge", "conflict"])
        if mutation == "dup_vertex" and doc["vertices"]:
            doc["vertices"].append(doc["vertices"][0])
            expected = DuplicateVertex
        elif mutation == "bad_label" and doc["edges"]:
            doc["edges"][0]["m"] = rng.choice([0, 1, -3, "x", 2.5])
            expected = LabelOutOfRange
        elif mutation == "ghost_edge":
            doc["edges"].append({"u": "ghost", "v": "ghost2", "m": 2})
            expected = UnknownVertex
        elif mutation == "conflict" and doc["edges"]:
            bad = dict(doc["edges"][0])
            bad["m"] = bad["m"] + 1
            doc["edges"].append(bad)
            expected = ConflictingLabel
        else:
            continue
        with pytest.raises(expected):
            parse_spec(doc)


@pytest.mark.parametrize("first,second", [(2, INFINITY), (INFINITY, 2), (3, 4)])
def test_conflicting_labels_rejected_by_both_entry_points(first, second):
    # parse_spec and the constructor share one label validator
    with pytest.raises(ConflictingLabel):
        CoxeterSpec(["a", "b"], {("a", "b"): first, ("b", "a"): second})
    doc = {
        "vertices": ["a", "b"],
        "edges": [
            {"u": "a", "v": "b", "m": "inf" if first == INFINITY else first},
            {"u": "b", "v": "a", "m": "inf" if second == INFINITY else second},
        ],
    }
    with pytest.raises(ConflictingLabel):
        parse_spec(doc)


def test_constructor_checks_labels_as_documents_are_checked():
    assert CoxeterSpec(["a", "b"], {("a", "b"): INFINITY, ("b", "a"): "inf"}).finite_edges() == []
    assert CoxeterSpec(["a", "b"], {("a", "b"): 3, ("b", "a"): 3}).label("a", "b") == 3
    for labels, error in [
        ({("a", "a"): 2}, MalformedDocument),
        ({("a", "z"): 2}, UnknownVertex),
        ({("a", "b"): 1}, LabelOutOfRange),
        ({("a", "b"): 2.0}, LabelOutOfRange),
        ({("a", "b"): True}, LabelOutOfRange),
    ]:
        with pytest.raises(error):
            CoxeterSpec(["a", "b"], labels)
    for vertices, error in [(["a", "a"], DuplicateVertex), (["a", ""], MalformedDocument), (["a", 3], MalformedDocument)]:
        with pytest.raises(error):
            CoxeterSpec(vertices, {})


def set_components(vertices, adjacent) -> list[tuple[str, ...]]:
    """Components by their set definition: each vertex's is grown until no vertex adjacent to it is left out."""
    vertices = set(vertices)
    found = set()
    for v in vertices:
        comp, more = set(), {v}
        while more:
            comp |= more
            more = {w for w in vertices - comp if any(adjacent(u, w) for u in comp)}
        found.add(tuple(sorted(comp)))
    return sorted(found)  # disjoint sorted tuples, so by least vertex


@st.composite
def graphs_with_input(draw):
    """A random graph's neighbor sets, and some of its vertices in a random order.

    The neighbor sets reach outside the chosen vertices, as a commuting set reaches outside a subset.
    """
    names = [f"v{i}" for i in range(draw(st.integers(0, 9)))]
    near = {v: set() for v in names}
    for u, w in combinations(names, 2):
        if draw(st.booleans()):
            near[u].add(w)
            near[w].add(u)
    return near, draw(st.permutations(names))[:draw(st.integers(0, len(names)))]


@settings(max_examples=300)
@given(graphs_with_input(), st.booleans())
def test_components_equal_their_set_definition(case, complement):
    near, given = case

    def adjacent(u, w):
        return (u != w and w not in near[u]) if complement else w in near[u]

    found = components(given, near.__getitem__, complement=complement)
    assert found == set_components(given, adjacent)
    if len(found) == 1:  # the input, sorted once
        assert found == [tuple(sorted(given))]
