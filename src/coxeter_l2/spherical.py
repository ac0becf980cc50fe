"""Finite-type recognition for Coxeter subsystems.

A vertex subset is spherical when the subgroup it generates is finite.
Finiteness is decided exactly by matching each connected component of the
Coxeter diagram (edges are pairs with label >= 3 or infinity; label-2
pairs commute and disconnect the diagram) against the classification of
irreducible finite reflection groups, in exact integer arithmetic.  The
package's one numeric cross-check, enumeration of the reflection
representation, lives in coxeter_l2.enumeration; the test suite also
checks every verdict it draws against positive definiteness of the cosine
matrix.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from coxeter_l2.model import INFINITY, CoxeterSpec, VertexSubset, components

_E_ORDERS = {6: 51840, 7: 2903040, 8: 696729600}
_RANK_3 = {(2, 3, 3): ("A", 3, 24, None), (2, 3, 4): ("B", 3, 48, None), (2, 3, 5): ("H3", 3, 120, None)}


class FiniteTypeComponent(NamedTuple):
    """One irreducible factor of a finite subsystem.

    kind is one of "A", "B", "D", "E6", "E7", "E8", "F4", "H3", "H4",
    "I2"; low-rank coincidences are reported under the canonical name
    (I2(3) as A2, I2(4) as B2, H2 as I2(5)).
    """

    kind: str
    rank: int
    order: int
    vertices: VertexSubset
    m: int | None = None  # dihedral edge label, only for kind "I2"

    @property
    def name(self) -> str:
        if self.kind == "I2":
            return f"I2({self.m})"
        if self.kind in ("A", "B", "D"):
            return f"{self.kind}{self.rank}"
        return self.kind  # E6/E7/E8/F4/H3/H4 carry their rank already


class SphericalVerdict(NamedTuple):
    spherical: bool
    components: tuple[FiniteTypeComponent, ...]
    order: int  # product of component orders; 1 for the empty subset

    def __bool__(self) -> bool:
        return self.spherical


def diagram_components(spec: CoxeterSpec, subset) -> list[VertexSubset]:
    """Partition a subset into Coxeter-diagram components.

    Two vertices are diagram-adjacent when their label is >= 3 or infinity
    (label 2 means the generators commute).  Components are canonically
    ordered and sorted by least vertex.
    """
    return components(spec.check_subset(subset), spec.commuting, complement=True)


def _match_component(spec: CoxeterSpec, comp: VertexSubset) -> tuple | None:
    """Match one diagram-connected component, a sorted tuple, against the finite-type templates.

    Returns the (kind, rank, order, m) fields of its FiniteTypeComponent, m
    being the dihedral label for kind "I2" and None otherwise, or None when
    the component is infinite.  Labels are read from the spec's validated
    label dict: a sorted pair has a finite label exactly when it is stored.
    Rank 3 is read from the three labels alone: a connected triple is
    spherical exactly when one pair commutes and the other two labels are
    {3, 3}, {3, 4} or {3, 5} (A3, B3, H3); every other triple, one with an
    infinite pair or with no commuting pair included, is infinite.  Higher
    ranks walk the diagram tree.
    """
    n = len(comp)
    labels = spec._labels
    if n == 1:
        return ("A", 1, 2, None)
    if n == 2:  # diagram-connected, so the label is not 2
        m = labels.get(comp)
        if m is None:
            return None  # an infinite pair
        return ("A", 2, 6, None) if m == 3 else ("B", 2, 8, None) if m == 4 else ("I2", 2, 2 * m, m)
    if n == 3:
        u, v, w = comp
        triple = sorted((labels.get((u, v), INFINITY), labels.get((u, w), INFINITY), labels.get((v, w), INFINITY)))
        return _RANK_3.get(tuple(triple))

    # Rank >= 4: the diagram must be a tree with no infinite pair, and the
    # tree must be a path or have a single 3-valent branch; anything else is
    # infinite.
    members = set(comp)
    commuting_pairs = sum(len(spec.commuting(u) & members) for u in comp) // 2
    if n * (n - 1) // 2 - commuting_pairs != n - 1:
        return None  # the diagram (infinite pairs included) is not a tree
    pairs = [(u, v, labels.get((u, v))) for i, u in enumerate(comp) for v in comp[i + 1:]]
    edges = [(u, v, m) for u, v, m in pairs if m != 2]  # an infinite label reads as None
    if any(m is None for _, _, m in edges):
        return None
    adj: dict[str, list[tuple[str, int]]] = {v: [] for v in comp}
    for u, v, m in edges:
        adj[u].append((v, m))
        adj[v].append((u, m))
    degrees = {v: len(nb) for v, nb in adj.items()}
    if max(degrees.values()) > 3 or sum(1 for d in degrees.values() if d == 3) > 1:
        return None

    branch = [v for v, d in degrees.items() if d == 3]
    if branch:
        if any(m != 3 for _, _, m in edges):
            return None
        # Arm lengths from the branch vertex determine D vs E.
        b = branch[0]
        arms = []
        for first, _ in adj[b]:
            length, prev, cur = 1, b, first
            while degrees[cur] == 2:
                nxt = [w for w, _ in adj[cur] if w != prev][0]
                prev, cur = cur, nxt
                length += 1
            arms.append(length)
        arms.sort()
        if arms[:2] == [1, 1]:
            return ("D", n, 2 ** (n - 1) * math.factorial(n), None)
        if arms[:2] == [1, 2] and arms[2] <= 4:  # arms 1, 2 and 2, 3 or 4: E6, E7, E8
            return (f"E{n}", n, _E_ORDERS[n], None)
        return None

    # A path: read its label sequence from one endpoint.
    ends = [v for v, d in degrees.items() if d == 1]
    start = min(ends)
    seq, prev, cur = [], None, start
    while True:
        nxt = [(w, m) for w, m in adj[cur] if w != prev]
        if not nxt:
            break
        (w, m) = nxt[0]
        seq.append(m)
        prev, cur = cur, w
    big = [m for m in seq if m >= 4]
    if not big:
        return ("A", n, math.factorial(n + 1), None)
    if len(big) > 1:
        return None
    m, pos = big[0], seq.index(big[0])
    at_end = pos in (0, len(seq) - 1)
    if m == 4:
        if at_end:
            return ("B", n, 2 ** n * math.factorial(n), None)
        if n == 4 and pos == 1:
            return ("F4", 4, 1152, None)
        return None
    if m == 5 and at_end and n == 4:
        return ("H4", 4, 14400, None)
    return None


def classify(spec: CoxeterSpec, subset) -> SphericalVerdict:
    """Decide whether a subset is spherical and compute the subgroup order.

    The empty subset is spherical with order 1.  A non-spherical verdict
    carries no finite-type components and order 0.  The nerve path reads
    finiteness and orders off the nerve and never calls this.
    """
    comps = []
    order = 1
    for comp in diagram_components(spec, subset):
        match = _match_component(spec, comp)
        if match is None:
            return SphericalVerdict(False, (), 0)
        kind, rank, comp_order, m = match
        comps.append(FiniteTypeComponent(kind, rank, comp_order, comp, m))
        order *= comp_order
    return SphericalVerdict(True, tuple(comps), order)
