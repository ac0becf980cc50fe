"""Planarity pipeline: face coning, certificates, proof traces, the planarity oracle.

Embeddings are witnessed by rotation systems and checked by face tracing
(see coxeter_l2.nerve).  The non-planarity certificate derives a
positive lower bound for the dimension-2 l2-Betti entry of a labelled
complex and cites the vanishing statement it contradicts.  The left-right
planarity test (de Fraysseix and Rosenstiehl, as written up by Brandes)
acts as an independent planarity oracle for cross-validation; it returns a
rotation system checked by face tracing, and a Kuratowski subgraph can be
extracted for the non-planar answer.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from coxeter_l2.model import CoxeterSpec, VertexSubset
from coxeter_l2.nerve import (
    Nerve,
    NotSpherical,
    RotationSystem,
    SimplicialComplex,
    SphereKind,
    SubcomplexWitness,
    _disjoint_rename,
    _is_full,
    _traced_faces,
    _witness,
    build_nerve,
    induced_nerve,
    recognize_sphere,
    validate_embedding,
)
from coxeter_l2.invariants import _rational, betti

# Stable statement identifiers cited by certificates and proof traces.
STMT_CHI = "chi-orb"
STMT_B0 = "R-b0"
STMT_ATIYAH_BOUND = "atiyah-bound"
STMT_JOIN = "R-join"
STMT_PLANAR_VANISHING = "planar-vanishing"
STMT_SPHERE_VANISHING = "sphere-vanishing"
STMT_CIRCLE_SUBCOMPLEX = "circle-subcomplex-vanishing"
STMT_LINK_FULL = "link-full"
STMT_MAYER_VIETORIS = "mayer-vietoris"

CONE_PREFIX = "c"  # fresh cone vertices are c0, c1, ..., primed on a name clash


class NonSimpleFaceBoundary(ValueError):
    """A face boundary walk repeats a vertex; coning it is refused."""


class HypothesisViolated(RuntimeError):
    """A vanishing-trace hypothesis failed."""


def cone_construction(
    nerve: Nerve, rot: RotationSystem | Mapping
) -> tuple[Nerve, SubcomplexWitness]:
    """Complete an embedded complex to a 2-sphere nerve by coning each region.

    One fresh vertex is introduced per complementary region that is not
    already a 2-simplex, joined by label-2 edges to the region's boundary
    walk; empty 3-cycles (triangles of the skeleton that are not
    simplices) count as regions and are coned.  The input complex becomes
    a full subcomplex with right-angled complement of the resulting
    2-sphere nerve.  That nerve is built by build_nerve from the coned spec,
    which extends the input's checked labels by the apex labels, all 2,
    without validating them again.  Every label at an apex is 2, so the
    build reads the apex simplices' orders off the labels.  The input is a
    full subcomplex of the result because sphericity depends only on the
    induced labels; the result is still checked to be a 2-sphere whose
    complement of the input is right-angled.  The input's components are
    searched once: the connectivity check holds them on the nerve for the
    face tracer.
    """
    if not nerve.vertices:
        raise ValueError("cannot cone an empty complex")
    if not nerve.is_connected():
        raise ValueError("cone construction requires a connected complex")
    if nerve.dimension > 2:
        raise ValueError("cone construction requires dimension <= 2")
    ((_, faces),) = validate_embedding(nerve, rot)

    boundaries = [tuple(u for u, _ in face) for face in faces]
    for boundary in boundaries:
        if len(set(boundary)) != len(boundary):
            raise NonSimpleFaceBoundary(f"face walk {list(boundary)} repeats a vertex")

    to_cone = [b for b in boundaries if not (len(b) == 3 and nerve.has_simplex(b))]
    taken = set(nerve.spec.vertices)
    apexes: dict[str, tuple[str, ...]] = {}
    for i, boundary in enumerate(to_cone):
        name = _disjoint_rename(taken, f"{CONE_PREFIX}{i}")
        taken.add(name)
        apexes[name] = boundary
    coned = build_nerve(nerve.spec._coned(apexes))

    if recognize_sphere(coned) is not SphereKind.TWO_SPHERE:
        raise NotSpherical(
            "coning did not yield a 2-sphere triangulation "
            "(a face boundary likely has a chord)"
        )
    witness = _witness(coned, tuple(sorted(nerve.vertices)))
    if not witness.right_angled_complement:
        raise NotSpherical("coned complex does not contain the input as expected")
    return coned, witness


@dataclass(frozen=True)
class CitedStep:
    statement: str
    applied_to: str
    values: dict

    def to_document(self) -> dict:
        return {"statement": self.statement, "applied_to": self.applied_to, "values": self.values}


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable non-planarity deduction for a labelled complex."""

    verdict: str  # "NotPlanar" | "Inconclusive"
    subject: CoxeterSpec
    bound: Fraction
    chain: tuple[CitedStep, ...]
    reason: str | None = None
    notes: tuple[str, ...] = field(default_factory=tuple)

    def to_document(self) -> dict:
        doc = {
            "verdict": self.verdict,
            "subject": self.subject.to_document(),
            "bound": _rational(self.bound),
            "chain": [step.to_document() for step in self.chain],
            "notes": list(self.notes),
        }
        if self.reason is not None:
            doc["reason"] = self.reason
        return doc


def _certify_connected(nerve: Nerve) -> Certificate:
    """Certify a connected nerve of dimension <= 2 from its Betti vector (W finite: inconclusive).

    With beta_0 = 0 and no chains above dimension 3, the alternating-sum
    identity gives chi_orb <= beta_2, so max(chi_orb, 0) bounds beta_2.  An
    R-join entry is exact on a fully known vector, so it is at least chi_orb
    and is cited in place of that bound.  Without a rule context no other
    rule sets a positive entry 2: it is 0 (R-S0/S1, R-S2) or Unknown.
    """
    vector = betti(nerve)
    if vector.rule_for(0) == "R-fin":
        return Certificate("Inconclusive", nerve.spec, Fraction(0), (), reason="FiniteGroup")
    chi = vector.chi
    chain = [
        CitedStep(
            STMT_CHI,
            f"nerve on {len(nerve.vertices)} vertices",
            {"chi_orb": _rational(chi)},
        ),
        CitedStep(STMT_B0, "W infinite", {"beta_0": "0/1"}),
    ]
    if vector.rule_for(2) == "R-join":
        bound = vector.get(2)
        chain.append(CitedStep(STMT_JOIN, vector.detail_for(2), {"beta_2": _rational(bound)}))
    else:
        bound = max(chi, Fraction(0))
        chain.append(
            CitedStep(
                STMT_ATIYAH_BOUND,
                "alternating Betti sum equals chi_orb; dimension <= 2",
                {"beta_2_lower_bound": _rational(bound)},
            )
        )
    if bound > 0:
        chain.append(
            CitedStep(
                STMT_PLANAR_VANISHING,
                "a complex of dimension <= 2 embeddable in the 2-sphere has beta_2 = 0",
                {"contradiction": f"beta_2 >= {_rational(bound)} > 0"},
            )
        )
        return Certificate("NotPlanar", nerve.spec, bound, tuple(chain))
    return Certificate(
        "Inconclusive", nerve.spec, Fraction(0), tuple(chain), reason="ObstructionSilent"
    )


def certify_nonplanar(spec: CoxeterSpec) -> Certificate:
    """Attempt to certify that a labelled complex cannot embed in the 2-sphere.

    The verdict is one-directional: NotPlanar when a positive lower bound
    for the dimension-2 Betti entry is derived, Inconclusive otherwise
    (never "Planar").  Disconnected subjects are certified per component,
    each on its sub-nerve filtered from the subject's nerve; one non-planar
    component suffices.  While the caller holds the nerve of this spec,
    build_nerve hands it back, so nothing is built again.  Each component
    goes straight to the connected path, without being split again.
    """
    nerve = build_nerve(spec)
    if nerve.dimension > 2:
        return Certificate(
            "Inconclusive", spec, Fraction(0), (), reason="DimensionTooHigh"
        )

    # Vertices in different components span an infinite pair, so a
    # disconnected subject never has W finite.
    components = nerve.skeleton_components()
    if len(components) > 1:
        notes = [
            f"subject has {len(components)} components; certified per component, "
            "a non-planar component makes the whole non-planar"
        ]
        for comp in components:
            sub_cert = _certify_connected(induced_nerve(nerve, comp))
            if sub_cert.verdict == "NotPlanar":
                return Certificate(
                    "NotPlanar",
                    spec,
                    sub_cert.bound,
                    sub_cert.chain,
                    notes=tuple(notes + [f"witnessing component: {{{','.join(comp)}}}"]),
                )
            notes.append(
                f"component {{{','.join(comp)}}}: {sub_cert.reason or 'ObstructionSilent'}"
            )
        return Certificate(
            "Inconclusive",
            spec,
            Fraction(0),
            (),
            reason="ObstructionSilent",
            notes=tuple(notes),
        )
    return _certify_connected(nerve)


@dataclass(frozen=True)
class TraceStep:
    removed: str
    before: VertexSubset
    after: VertexSubset
    link_vertices: VertexSubset
    justification: str

    def to_document(self) -> dict:
        return {
            "removed": self.removed,
            "before": list(self.before),
            "after": list(self.after),
            "link": list(self.link_vertices),
            "link_full": True,  # a step is only recorded once its link is full
            "justification": self.justification,
        }


@dataclass(frozen=True)
class ProofTrace:
    """Vertex-removal induction transferring sphere vanishing to a subcomplex."""

    ambient: Nerve
    target: VertexSubset
    steps: tuple[TraceStep, ...]
    conclusion: str
    notes: tuple[str, ...] = field(default_factory=tuple)

    def to_document(self) -> dict:
        return {
            "ambient": self.ambient.spec.to_document(),
            "target": list(self.target),
            "base": STMT_SPHERE_VANISHING,
            "steps": [s.to_document() for s in self.steps],
            "conclusion": self.conclusion,
            "notes": list(self.notes),
        }


def trace_vanishing(ambient: Nerve, target) -> ProofTrace:
    """Emit the vertex-removal induction showing h_i = 0 for i > 1 on the target.

    The ambient nerve must be a 2-sphere triangulation and the target a
    full subcomplex with right-angled complement.  Vertices outside the
    target are removed in lexicographic order; each step records the link
    of the removed vertex, its fullness in the ambient nerve, and the
    decomposition justifying the transfer of vanishing.  Only the witness
    is needed of the target, so its induced nerve is never built.  Each
    link is one pass over the removed vertex's star in the remaining
    vertices, checked full against the ambient stars of its vertices, so
    no complex is built.
    """
    A = ambient.spec.check_subset(target)
    if recognize_sphere(ambient) is not SphereKind.TWO_SPHERE:
        raise HypothesisViolated("ambient nerve is not a 2-sphere triangulation")
    witness = _witness(ambient, A)
    if not witness.right_angled_complement:
        raise HypothesisViolated("target does not have a right-angled complement")

    removal = sorted(set(ambient.vertices) - set(A))
    removed: set[str] = set()
    after = tuple(sorted(ambient.vertices))
    steps = []
    for v in removal:
        before = after
        # The star lists the edges at v first, in order, so the link vertices come out sorted.
        faces = [tuple(x for x in s if x != v) for s in ambient._star[v] if len(s) > 1 and removed.isdisjoint(s)]
        near = tuple(f[0] for f in faces if len(f) == 1)
        if not _is_full(ambient, near, set(faces)):
            raise HypothesisViolated(
                f"link of {v} is not a full subcomplex of the ambient nerve"
            )
        removed.add(v)
        i = bisect.bisect_left(before, v)
        after = before[:i] + before[i + 1:]
        steps.append(
            TraceStep(
                removed=v,
                before=before,
                after=after,
                link_vertices=near,
                justification=(
                    f"{STMT_MAYER_VIETORIS}: B = B' (cup) C2(B_v) along B_v; "
                    f"{STMT_LINK_FULL} by the right-angled complement; "
                    f"{STMT_CIRCLE_SUBCOMPLEX} kills h_i(B_v) for i > 1 since B_v is "
                    f"full in the link of {v}, a circle; the cone halves Betti "
                    "entries, so exactness transfers vanishing from B to B'"
                ),
            )
        )
    conclusion = (
        f"h_i vanishes for i > 1 on the full subcomplex spanned by "
        f"{{{','.join(A)}}}; base case {STMT_SPHERE_VANISHING} on the ambient "
        "2-sphere nerve"
    )
    return ProofTrace(ambient, A, tuple(steps), conclusion, witness.notes)


def _by_depth(n: int, src: list[int], depth: list[int]) -> list[list[int]]:
    """Each vertex's out-edges in order of nesting depth, by one counting sort."""
    low = min(depth, default=0)
    buckets: list[list[int]] = [[] for _ in range(max(depth, default=0) - low + 1)]
    for e, d in enumerate(depth):
        buckets[d - low].append(e)
    ordered: list[list[int]] = [[] for _ in range(n)]
    for bucket in buckets:
        for e in bucket:
            ordered[src[e]].append(e)
    return ordered


def _lr_rotation(vertices: tuple[str, ...], neighbors) -> dict[str, list[str]] | None:
    """The left-right planarity test on one connected graph, with its embedding phase.

    Follows U. Brandes, "The Left-Right Planarity Test" (2009).  An
    orientation DFS gives heights, lowpoints and nesting depths; a testing
    DFS merges the return edges below each tree edge into conflict pairs of
    left and right intervals and fails when two intervals must share a side;
    the embedding phase resolves each edge's side and places every back edge
    beside the tree edge it returns through.  All three run on explicit
    stacks in time linear in the edges.  Returns the cyclic neighbor order at
    each vertex, or None when the graph is not planar.
    """
    index = {v: i for i, v in enumerate(vertices)}
    adj = [[index[u] for u in neighbors(v)] for v in vertices]
    n = len(vertices)
    height = [-1] * n
    parent_edge = [-1] * n  # the tree edge into each vertex; -1 at the root
    # Oriented edges by id: tree edges point away from the root, back edges towards it.
    src: list[int] = []
    dst: list[int] = []
    lowpt: list[int] = []
    lowpt2: list[int] = []

    def orient(v: int, w: int, low: int) -> int:
        src.append(v)
        dst.append(w)
        lowpt.append(low)
        lowpt2.append(height[v])
        return len(src) - 1

    def settle(e: int) -> None:
        # e's lowpoints are final: pass them up to the tree edge above it.
        p = parent_edge[src[e]]
        if p < 0:
            return
        if lowpt[e] < lowpt[p]:
            lowpt2[p] = min(lowpt[p], lowpt2[e])
            lowpt[p] = lowpt[e]
        elif lowpt[e] > lowpt[p]:
            lowpt2[p] = min(lowpt2[p], lowpt[e])
        else:
            lowpt2[p] = min(lowpt2[p], lowpt2[e])

    # Phase 1: orientation.
    height[0] = 0
    stack = [0]
    nxt = [0] * n
    while stack:
        v = stack[-1]
        if nxt[v] == len(adj[v]):
            stack.pop()
            if parent_edge[v] >= 0:
                settle(parent_edge[v])
            continue
        w = adj[v][nxt[v]]
        nxt[v] += 1
        if height[w] < 0:
            parent_edge[w] = orient(v, w, height[v])
            height[w] = height[v] + 1
            stack.append(w)
        elif height[w] < height[v] and src[parent_edge[v]] != w:  # never at the root
            settle(orient(v, w, height[w]))
    m = len(src)
    depth = [2 * lowpt[e] + (lowpt2[e] < height[src[e]]) for e in range(m)]
    ordered = _by_depth(n, src, depth)

    # Phase 2: testing.  A conflict pair is [L.low, L.high, R.low, R.high]: two
    # intervals of return edges, each given by its lowest and highest edge and
    # chained through ref, that must lie on different sides.
    ref: list[int | None] = [None] * m
    side = [1] * m
    lowpt_edge: list[int | None] = [None] * m
    bottom: list[list | None] = [None] * m  # the top of S when each edge was reached
    S: list[list] = []

    def conflicting(high: int | None, b: int) -> bool:
        return high is not None and lowpt[high] > lowpt[b]

    def lowest(P: list) -> int:
        if P[0] is None and P[1] is None:
            return lowpt[P[2]]
        if P[2] is None and P[3] is None:
            return lowpt[P[0]]
        return min(lowpt[P[0]], lowpt[P[2]])

    def add_constraints(ei: int, e: int) -> bool:
        P: list = [None, None, None, None]
        while True:  # merge the return edges of ei into P.R
            Q = S.pop()
            if Q[0] is not None or Q[1] is not None:
                Q[:] = Q[2:] + Q[:2]
            if Q[0] is not None or Q[1] is not None:
                return False
            if lowpt[Q[2]] > lowpt[e]:
                if P[2] is None and P[3] is None:
                    P[3] = Q[3]
                else:
                    ref[P[2]] = Q[3]
                P[2] = Q[2]
            else:
                ref[Q[2]] = lowpt_edge[e]
            if (S[-1] if S else None) is bottom[ei]:
                break
        # merge the return edges of earlier siblings that conflict with ei into P.L
        while S and (conflicting(S[-1][1], ei) or conflicting(S[-1][3], ei)):
            Q = S.pop()
            if conflicting(Q[3], ei):
                Q[:] = Q[2:] + Q[:2]
            if conflicting(Q[3], ei):
                return False
            if P[2] is not None:
                ref[P[2]] = Q[3]
            if Q[2] is not None:
                P[2] = Q[2]
            if P[0] is None and P[1] is None:
                P[1] = Q[1]
            else:
                ref[P[0]] = Q[1]
            P[0] = Q[0]
        if any(x is not None for x in P):
            S.append(P)
        return True

    def remove_back_edges(e: int) -> None:
        u = src[e]
        while S and lowest(S[-1]) == height[u]:  # pairs returning only to u
            P = S.pop()
            if P[0] is not None:
                side[P[0]] = -1
        if S:  # trim the back edges ending at u off the next pair
            P = S[-1]
            while P[1] is not None and dst[P[1]] == u:
                P[1] = ref[P[1]]
            if P[1] is None and P[0] is not None:
                ref[P[0]] = P[2]
                side[P[0]] = -1
                P[0] = None
            while P[3] is not None and dst[P[3]] == u:
                P[3] = ref[P[3]]
            if P[3] is None and P[2] is not None:
                ref[P[2]] = P[0]
                side[P[2]] = -1
                P[2] = None
        if lowpt[e] < height[u]:  # e takes the side of its highest return edge
            hl, hr = S[-1][1], S[-1][3]
            ref[e] = hl if hl is not None and (hr is None or lowpt[hl] > lowpt[hr]) else hr

    nxt = [0] * n
    stack = [0]
    while stack:
        v = stack[-1]
        if nxt[v] < len(ordered[v]):
            ei = ordered[v][nxt[v]]
            bottom[ei] = S[-1] if S else None
            if parent_edge[dst[ei]] == ei:
                stack.append(dst[ei])
                continue
            lowpt_edge[ei] = ei
            S.append([None, None, ei, ei])
        else:
            stack.pop()
            ei = parent_edge[v]
            if ei < 0:
                continue
            remove_back_edges(ei)
            v = src[ei]
        if lowpt[ei] < height[v]:  # ei has return edges: constrain them at v
            if ei == ordered[v][0]:
                lowpt_edge[parent_edge[v]] = lowpt_edge[ei]
            elif not add_constraints(ei, parent_edge[v]):
                return None
        nxt[v] += 1

    # Phase 3: embedding.  Resolve each side along its ref chain, then reorder.
    for e in range(m):
        chain = []
        while ref[e] is not None:
            chain.append(e)
            e = ref[e]
        for f in reversed(chain):
            side[f] *= side[ref[f]]
            ref[f] = None
    ordered = _by_depth(n, src, [side[e] * depth[e] for e in range(m)])
    # The rotation at w is its parent, then its out-edges in that order; a back
    # edge returning to w through the child edge c sits beside c, before it
    # when on the left and after it when on the right, the later found nearer.
    left: list[list[int]] = [[] for _ in range(m)]
    right: list[list[int]] = [[] for _ in range(m)]
    through = [-1] * n  # the child edge of each vertex the DFS is below
    nxt = [0] * n
    stack = [0]
    while stack:
        v = stack[-1]
        if nxt[v] == len(ordered[v]):
            stack.pop()
            continue
        ei = ordered[v][nxt[v]]
        nxt[v] += 1
        if parent_edge[dst[ei]] == ei:
            through[v] = ei
            stack.append(dst[ei])
        else:
            (right if side[ei] == 1 else left)[through[dst[ei]]].append(v)
    rotation = {}
    for v in range(n):
        order = [] if parent_edge[v] < 0 else [src[parent_edge[v]]]
        for e in ordered[v]:
            order += left[e][::-1] + [dst[e]] + right[e][::-1]
        rotation[vertices[v]] = [vertices[x] for x in order]
    return rotation


def planar_rotation(graph: SimplicialComplex) -> RotationSystem | None:
    """A rotation system embedding the 1-skeleton in the 2-sphere, or None if it is not planar.

    Runs the left-right test on each connected component after the
    3V - 6 edge bound.  Face tracing must accept every component's rotation
    (V - E + F = 2) before it is returned, so a faulty embedding raises
    NotSpherical and never passes as planar.  The components are searched
    once and held on the graph, so the tracer reuses them.
    """
    V = len(graph.vertices)
    if V >= 3 and len(graph.edges) > 3 * V - 6:
        return None
    components = graph.skeleton_components()
    rotations: dict[str, list[str]] = {}
    for comp in components:
        order = _lr_rotation(comp, graph.neighbors)
        if order is None:
            return None
        rotations.update(order)
    rot = RotationSystem(rotations)
    for _ in _traced_faces(graph, rot):
        pass
    return rot


def brute_force_planar(graph: SimplicialComplex) -> bool:
    """Planarity of the 1-skeleton by the left-right test (see planar_rotation).

    The name is kept from the exhaustive rotation search this replaced only
    because the benchmark imports it; the library calls planar_rotation.
    """
    return planar_rotation(graph) is not None


def kuratowski_subgraph(graph: SimplicialComplex) -> SimplicialComplex | None:
    """A minimal non-planar subgraph of the 1-skeleton, or None when it is planar.

    Each edge in turn is deleted when the graph without it is still
    non-planar.  Every proper subgraph of what remains is planar, so by
    Kuratowski's theorem it subdivides K5 or K3,3 (see kuratowski_type).
    Costs one left-right test per edge.
    """
    if planar_rotation(graph) is not None:
        return None
    edges = list(graph.edges)
    kept: list[tuple[str, ...]] = []
    for i, e in enumerate(edges):
        if planar_rotation(SimplicialComplex(graph.vertices, kept + edges[i + 1:])) is not None:
            kept.append(e)
    vertices = sorted({v for e in kept for v in e})
    return SimplicialComplex(vertices, [(v,) for v in vertices] + kept)


def kuratowski_type(graph: SimplicialComplex) -> str | None:
    """Which of K5 and K3,3 the graph subdivides, isolated vertices aside; None if neither.

    Smoothing replaces each path through degree-2 vertices by one edge
    between its end vertices; the smoothed graph must be simple and equal
    to K5 or K3,3.
    """
    degree = {v: len(graph.neighbors(v)) for v in graph.vertices if graph.neighbors(v)}
    branch = [v for v, d in degree.items() if d != 2]
    smoothed = set()
    walked = 0
    for b in branch:
        for step in graph.neighbors(b):
            prev, cur = b, step
            walked += 1
            while degree[cur] == 2:
                prev, cur = cur, next(x for x in graph.neighbors(cur) if x != prev)
                walked += 1
            if cur == b:
                return None
            smoothed.add(frozenset((b, cur)))
    # Each path is walked once from each end: no parallel paths, and no cycle
    # of degree-2 vertices left untouched.
    if 2 * len(smoothed) != sum(degree[b] for b in branch) or walked != 2 * len(graph.edges):
        return None
    if len(branch) == 5 and len(smoothed) == 10:
        return "K5"
    if len(branch) == 6 and len(smoothed) == 9 and all(degree[b] == 3 for b in branch):
        near = {v for e in smoothed if branch[0] in e for v in e} - {branch[0]}
        if all(len(e & near) == 1 for e in smoothed):
            return "K3,3"
    return None
