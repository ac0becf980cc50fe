"""Metamorphic property: answers do not depend on what the vertices are called.

Three kinds of system are drawn: small random systems, disjoint unions of
one with one or two planted components (K5@3 or a right-angled K3,3), and
right-angled joins of two.
Each is renamed by a random bijection onto fresh names, listed in a random
order, and chi_orb, the Betti tuple and the certificate must not change.
Nor may the steps: each Betti entry's rule and values, and, per component,
each certificate step's statement and values and the reason.  What a step
was applied to names vertices, so it is left out.

Cones are renamed too: a random 2-connected planar graph with the rotation
read off its faces is renamed together with that rotation, and neither the
cone's shape and witness nor the planarity oracle's verdict may change.
"""

from __future__ import annotations

import json
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from coxeter_l2.catalog import complete_bipartite_spec, complete_graph_spec
from coxeter_l2.invariants import CitedStep, betti, chi_orb
from coxeter_l2.model import INFINITY, CoxeterSpec, induced_subspec
from coxeter_l2.nerve import SimplicialComplex, build_nerve, join_spec, validate_embedding
from coxeter_l2.planarity import certify_nonplanar, cone_construction, planar_rotation

from conftest import random_planar_graph

LABELS = (2, 3, 4, 5, 6, INFINITY)


@st.composite
def systems(draw, max_vertices: int = 7, prefix: str = "v") -> CoxeterSpec:
    n = draw(st.integers(0, max_vertices))
    vertices = [f"{prefix}{i}" for i in range(n)]
    labels = {}
    for i, u in enumerate(vertices):
        for v in vertices[i + 1:]:
            m = draw(st.sampled_from(LABELS))
            if m != INFINITY:
                labels[(u, v)] = m
    return CoxeterSpec(vertices, labels)


def side_by_side(a: CoxeterSpec, b: CoxeterSpec) -> CoxeterSpec:
    """Two systems on disjoint names, with no finite label between them."""
    labels = {(u, v): m for u, v, m in (*a.finite_edges(), *b.finite_edges())}
    return CoxeterSpec((*a.vertices, *b.vertices), labels)


PLANTED = (complete_graph_spec(5, 3, prefix="p"), complete_graph_spec(5, 3, prefix="q"), complete_bipartite_spec(3, 3))


@st.composite
def planted_unions(draw) -> CoxeterSpec:
    """A random system beside one or two distinct planted components, each a K5@3 or a right-angled K3,3.

    With two certifying components, a certificate that picked its witness
    by name order would change under renaming.
    """
    spec = draw(systems())
    for planted in draw(st.lists(st.sampled_from(PLANTED), min_size=1, max_size=2, unique=True)):
        spec = side_by_side(spec, planted)
    return spec


@st.composite
def right_angled_joins(draw) -> CoxeterSpec:
    return join_spec(draw(systems(max_vertices=4)), draw(systems(max_vertices=4, prefix="w")))


@st.composite
def renamed(draw, spec: CoxeterSpec) -> tuple[CoxeterSpec, dict[str, str]]:
    """The system under a random bijection onto fresh names, its vertices in a random order."""
    n = len(spec.vertices)
    names = draw(st.lists(st.text(min_size=1, max_size=3), min_size=n, max_size=n, unique=True))
    name = dict(zip(spec.vertices, names))
    order = draw(st.permutations(spec.vertices))
    labels = {(name[u], name[v]): m for u, v, m in spec.finite_edges()}
    return CoxeterSpec([name[v] for v in order], labels), name


@st.composite
def renamed_systems(draw):
    spec = draw(st.one_of(systems(), planted_unions(), right_angled_joins()))
    return (spec, *draw(renamed(spec)))


def cited(step) -> tuple | None:
    """A step without the vertices it names: its statement and values."""
    return step and (step.statement, step.values)


def answers(spec: CoxeterSpec) -> tuple:
    nerve = build_nerve(spec)
    vector = betti(nerve)
    cert = certify_nonplanar(spec)
    steps = [cited(vector.step(i)) for i in range(vector.top + 1)]
    return chi_orb(nerve), vector.as_tuple(), steps, cert.verdict, cert.bound, cert.reason


def certificate_steps(spec: CoxeterSpec) -> tuple:
    cert = certify_nonplanar(spec)
    return cert.verdict, cert.bound, cert.reason, [cited(step) for step in cert.chain]


@settings(max_examples=150, deadline=None)
@given(renamed_systems())
def test_answers_survive_renaming(case):
    spec, other, name = case
    assert answers(spec) == answers(other)

    # Per component, on its induced subsystem, the whole certificate survives.
    for comp in build_nerve(spec).skeleton_components():
        other_comp = [name[v] for v in comp]
        assert certificate_steps(induced_subspec(spec, comp)) == certificate_steps(induced_subspec(other, other_comp))


@settings(max_examples=150, deadline=None)
@given(renamed_systems())
def test_a_certificate_cites_the_engine_steps_as_they_are(case):
    spec, _, _ = case
    nerve = build_nerve(spec)
    for comp in nerve.skeleton_components():
        sub = induced_subspec(spec, comp)
        cert, vector = certify_nonplanar(sub), betti(build_nerve(sub))
        if cert.chain:  # W is infinite: chi_orb, then entry 0, then entry 2 or the Euler bound
            assert cert.chain[1] == vector.step(0)
            if cert.chain[2].statement != "atiyah-bound":
                assert cert.chain[2] == vector.step(2)
        for step in (*cert.chain, *filter(None, map(vector.step, range(vector.top + 1)))):
            document = json.loads(json.dumps(step.to_document()))
            assert CitedStep(**document) == step


def test_k5_beside_k33_cites_k5_under_either_name_order():
    # Both certify (1/6 and 1/4); K5@3 has fewer vertices, so it is cited whichever names sort first.
    k33 = complete_bipartite_spec(3, 3)  # vertices a0..a2, b0..b2
    for prefix in ("K", "k"):  # before and after the K3,3 names
        k5 = complete_graph_spec(5, 3, prefix=prefix)
        cert = certify_nonplanar(side_by_side(k5, k33))
        assert (cert.verdict, cert.bound) == ("NotPlanar", Fraction(1, 6))
        assert cert.notes[-1] == f"witnessing component: {{{','.join(k5.vertices)}}}"


@st.composite
def embedded_planar_systems(draw) -> tuple[CoxeterSpec, dict[str, list[str]]]:
    """A random 2-connected planar graph with labels drawn from 2, 2, 3, 4, 5, and the rotation read off its faces.

    A face walk through u, v, w turns from u to w at v, so w follows u in the rotation at v.
    """
    vertices, edges, faces = random_planar_graph(draw(st.randoms(use_true_random=False)), max_vertices=9)
    labels = {(vertices[a], vertices[b]): draw(st.sampled_from([2, 2, 3, 4, 5])) for a, b in edges}
    follows = {(v, face[i - 1]): face[(i + 1) % len(face)] for face in faces for i, v in enumerate(face)}
    rotation = {}
    for v, name in enumerate(vertices):
        first = next(u for x, u in follows if x == v)
        order, u = [first], follows[v, first]
        while u != first:
            order.append(u)
            u = follows[v, u]
        rotation[name] = [vertices[u] for u in order]
    skeleton = SimplicialComplex(vertices, [(vertices[a], vertices[b]) for a, b in edges])
    validate_embedding(skeleton, rotation)  # the rotation embeds the graph, whatever its labels fill
    return CoxeterSpec(vertices, labels), rotation


def cone_answers(spec: CoxeterSpec, rotation: dict[str, list[str]]) -> tuple:
    """The cone's apex count, counts, right-angled flag and number of notes, or the error's type."""
    nerve = build_nerve(spec)
    verdict = planar_rotation(nerve) is not None
    try:
        coned, witness = cone_construction(nerve, rotation)
    except ValueError as exc:  # a chord, or a filled 3-cycle that bounds no face
        return verdict, type(exc)
    apexes = len(coned.vertices) - len(nerve.vertices)
    return verdict, apexes, coned.counts(), witness.right_angled_complement, len(witness.notes)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cones_survive_renaming(data):
    spec, rotation = data.draw(embedded_planar_systems())
    other, name = data.draw(renamed(spec))
    other_rotation = {name[v]: [name[u] for u in ns] for v, ns in rotation.items()}
    assert cone_answers(spec, rotation) == cone_answers(other, other_rotation)
