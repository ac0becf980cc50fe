"""Metamorphic property: answers do not depend on what the vertices are called.

Three kinds of system are drawn: small random systems, disjoint unions of
one with a planted K5@3 or right-angled K3,3, and right-angled joins of two.
Each is renamed by a random bijection onto fresh names, listed in a random
order, and chi_orb, the Betti tuple and the certificate must not change.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from coxeter_l2.catalog import complete_bipartite_spec, complete_graph_spec
from coxeter_l2.invariants import betti, chi_orb
from coxeter_l2.model import INFINITY, CoxeterSpec, induced_subspec
from coxeter_l2.nerve import build_nerve, join_spec
from coxeter_l2.planarity import certify_nonplanar

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


@st.composite
def planted_unions(draw) -> CoxeterSpec:
    """A random system beside a K5@3 or a right-angled K3,3, with no finite label between them."""
    base = draw(systems())
    planted = draw(st.sampled_from([complete_graph_spec(5, 3, prefix="p"), complete_bipartite_spec(3, 3)]))
    labels = {(u, v): m for u, v, m in (*base.finite_edges(), *planted.finite_edges())}
    return CoxeterSpec((*base.vertices, *planted.vertices), labels)


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


def answers(spec: CoxeterSpec) -> tuple:
    nerve = build_nerve(spec)
    cert = certify_nonplanar(spec)
    return chi_orb(nerve), betti(nerve).as_tuple(), cert.verdict, cert.bound


@settings(max_examples=150, deadline=None)
@given(renamed_systems())
def test_answers_survive_renaming(case):
    spec, other, name = case
    chi, vector, verdict, bound = answers(spec)
    other_chi, other_vector, other_verdict, other_bound = answers(other)
    assert (chi, vector, verdict) == (other_chi, other_vector, other_verdict)

    # Per component, on its induced subsystem, the whole certificate survives.
    certifying = 0
    for comp in build_nerve(spec).skeleton_components():
        cert = certify_nonplanar(induced_subspec(spec, comp))
        other_cert = certify_nonplanar(induced_subspec(other, [name[v] for v in comp]))
        assert (cert.verdict, cert.bound) == (other_cert.verdict, other_cert.bound)
        certifying += cert.verdict == "NotPlanar"
    # With two certifying components the bound cited is the first one's, so it
    # depends on which names sort first; with at most one it is that component's.
    if certifying <= 1:
        assert bound == other_bound
