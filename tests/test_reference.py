"""The indexed core against the direct constructions it replaces.

Each test keeps the old, slower path as a reference: rebuilding a nerve
from the induced subsystem, pairwise-label component finding, straddling
pairs by enumerating every vertex pair, and the per-simplex Euler sum.
"""

import gc
import weakref
from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings, strategies as st

from coxeter_l2.catalog import complete_graph_spec, cycle_spec, icosahedron_spec, octahedron_spec
from coxeter_l2.invariants import chi_orb, chi_orb_chain_sum
from coxeter_l2.model import INFINITY, CoxeterSpec, components, induced_subspec
from coxeter_l2.nerve import (
    build_nerve,
    detect_join2,
    full_subcomplex,
    induced_nerve,
    infinite_pairs_outside,
    join_spec,
    link,
)
from coxeter_l2.planarity import trace_vanishing
from coxeter_l2.spherical import classify, diagram_components

LABELS = st.sampled_from([2, 3, 4, 5, 6, INFINITY])


@st.composite
def specs(draw, max_vertices=7):
    n = draw(st.integers(0, max_vertices))
    vertices = draw(st.permutations([f"v{i}" for i in range(n)]))
    labels = {}
    for u, v in combinations(vertices, 2):
        m = draw(LABELS)
        if m != INFINITY:
            labels[(u, v)] = m
    return CoxeterSpec(vertices, labels)


@st.composite
def specs_with_subset(draw, max_vertices=7):
    spec = draw(specs(max_vertices))
    subset = draw(st.lists(st.sampled_from(spec.vertices), unique=True)) if spec.vertices else []
    return spec, subset


def reference_components(vertices, adjacent) -> list[tuple[str, ...]]:
    """Components by merging groups over every adjacent pair."""
    group = {v: {v} for v in vertices}
    for u, v in combinations(vertices, 2):
        if adjacent(u, v) and group[u] is not group[v]:
            merged = group[u] | group[v]
            for w in merged:
                group[w] = merged
    return sorted({tuple(sorted(g)) for g in group.values()})


@settings(max_examples=150)
@given(specs_with_subset())
def test_induced_nerve_equals_rebuilt_nerve(case):
    spec, subset = case
    sub = induced_nerve(build_nerve(spec), subset)
    ref = build_nerve(induced_subspec(spec, subset))
    assert sub.spec == ref.spec and sub.spec.vertices == ref.spec.vertices
    assert sub.simplices() == ref.simplices()
    assert [sub.order(s) for s in sub.simplices()] == [ref.order(s) for s in ref.simplices()]


@settings(max_examples=150)
@given(specs_with_subset())
def test_full_subcomplex_notes_match_pairwise_enumeration(case):
    spec, subset = case
    nerve = build_nerve(spec)
    A = set(subset)
    pairs = [
        (u, v) for u, v in combinations(sorted(spec.vertices), 2)
        if spec.label(u, v) == INFINITY and not (u in A and v in A)
    ]
    assert infinite_pairs_outside(nerve, subset) == pairs
    _, witness = full_subcomplex(nerve, subset)
    if not pairs:
        assert witness.notes == ()
    else:
        (note,) = witness.notes
        shown = ", ".join(f"({u},{v})" for u, v in pairs[:4])
        assert note.startswith(f"{len(pairs)} infinite-label pair(s) not contained in the subcomplex: {shown}")
        assert ("more" in note) == (len(pairs) > 4)


@settings(max_examples=150)
@given(specs_with_subset())
def test_component_helpers_equal_pairwise_reference(case):
    spec, subset = case
    assert diagram_components(spec, subset) == reference_components(
        sorted(subset), lambda u, v: spec.label(u, v) != 2
    )
    nerve = build_nerve(spec)
    factors = reference_components(sorted(spec.vertices), lambda u, v: spec.label(u, v) != 2)
    assert detect_join2(nerve) == (factors if len(factors) >= 2 else None)
    skeleton = reference_components(list(spec.vertices), lambda u, v: nerve.has_simplex((u, v)))
    assert nerve.skeleton_components() == skeleton
    assert nerve.is_connected() == (len(skeleton) <= 1)


@given(st.integers(0, 9), st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9))), st.booleans())
def test_components_helper_on_graphs_and_complements(n, pairs, complement):
    vertices = [f"x{i}" for i in range(n)]
    edges = {frozenset((f"x{a}", f"x{b}")) for a, b in pairs if a != b and max(a, b) < n}
    adjacent = {v: {w for e in edges if v in e for w in e if w != v} for v in vertices}
    expected = reference_components(
        vertices, lambda u, v: (frozenset((u, v)) in edges) != complement
    )
    assert components(vertices, adjacent.__getitem__, complement=complement) == expected


@settings(max_examples=100, deadline=None)
@given(specs(max_vertices=6))
def test_chi_orb_equals_per_simplex_and_chain_sums(spec):
    nerve = build_nerve(spec)
    per_simplex = Fraction(1) + sum(
        (Fraction((-1) ** len(s), nerve.order(s)) for s in nerve.simplices()), Fraction(0)
    )
    assert chi_orb(nerve) == per_simplex == chi_orb_chain_sum(nerve)


def test_trace_links_equal_links_in_rebuilt_nerves():
    suspension = join_spec(cycle_spec(7, 2, prefix="c"), CoxeterSpec(["n", "s"], {}))
    cases = [
        (octahedron_spec(), ["x0", "x1", "y0", "y1"]),
        (icosahedron_spec(), ["t", "u0", "u1", "l0"]),
        (suspension, ["n", "c0", "c1", "c2"]),
    ]
    for spec, target in cases:
        trace = trace_vanishing(build_nerve(spec), target)
        assert len(trace.steps) == len(spec.vertices) - len(target)
        for step in trace.steps:
            rebuilt = build_nerve(induced_subspec(spec, step.before))
            assert step.link_vertices == link(rebuilt, step.removed).vertices
            assert step.after == tuple(v for v in step.before if v != step.removed)


def test_classified_spec_is_not_kept_alive():
    spec = complete_graph_spec(6, 3)
    for k in range(1, 4):
        for subset in combinations(spec.vertices, k):
            classify(spec, subset)
    build_nerve(spec)
    ref = weakref.ref(spec)
    del spec
    gc.collect()
    assert ref() is None
