"""Planarity pipeline: face coning, certificates, proof traces, the planarity oracle.

Embeddings are witnessed by rotation systems and checked by face tracing
(see coxeter_l2.nerve).  The non-planarity certificate reads a lower
bound for the dimension-2 l2-Betti entry of a labelled complex off its
Betti vector, citing the engine's step for each entry as it is, and cites
the vanishing statement a positive bound contradicts.  The left-right
planarity test (de Fraysseix and Rosenstiehl, as written up by Brandes)
acts as an independent planarity oracle for cross-validation; it returns a
rotation system checked by face tracing.
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from typing import Mapping, NamedTuple

from coxeter_l2.model import CoxeterSpec, VertexSubset
from coxeter_l2.nerve import (
    Nerve,
    NotSpherical,
    RotationSystem,
    SimplicialComplex,
    SphereKind,
    SubcomplexWitness,
    _component_nerve,
    _disjoint_rename,
    _traced_faces,
    _witness,
    build_nerve,
    recognize_sphere,
    validate_embedding,
)
from coxeter_l2.invariants import UNKNOWN, CitedStep, _rational, betti

# Stable statement identifiers cited by certificates and proof traces.
STMT_CHI = "chi-orb"
STMT_ATIYAH_BOUND = "atiyah-bound"
STMT_PLANAR_VANISHING = "planar-vanishing"
STMT_SPHERE_VANISHING = "sphere-vanishing"
STMT_CIRCLE_SUBCOMPLEX = "circle-subcomplex-vanishing"
STMT_LINK_FULL = "link-full"
STMT_MAYER_VIETORIS = "mayer-vietoris"

CONE_PREFIX = "c"  # fresh cone vertices are c0, c1, ..., primed on a name clash


class NonSimpleFaceBoundary(ValueError):
    """A face boundary walk is no simple cycle (fewer than 3 vertices, or a repeat); coning it is refused."""


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
    face tracer.  A lone 2-simplex is refused: both its faces are filled,
    and an apex on either side would span a spherical tetrahedron.
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
        if len(boundary) < 3:
            raise NonSimpleFaceBoundary(f"face walk {list(boundary)} has fewer than 3 vertices")
        if len(set(boundary)) != len(boundary):
            raise NonSimpleFaceBoundary(f"face walk {list(boundary)} repeats a vertex")

    to_cone = [b for b in boundaries if not (len(b) == 3 and nerve.has_simplex(b))]
    if not to_cone and len(boundaries) == 2:  # both sides of one filled triangle
        raise ValueError(f"cannot cone the lone 2-simplex {nerve.triangles[0]}: it bounds both faces, "
                         "and a label-2 apex over it would span a spherical tetrahedron")
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


class Certificate(NamedTuple):
    """Machine-checkable non-planarity deduction for a labelled complex."""

    verdict: str  # "NotPlanar" | "Inconclusive"
    subject: CoxeterSpec
    bound: Fraction
    chain: tuple[CitedStep, ...]
    reason: str | None = None
    notes: tuple[str, ...] = ()

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
    """Certify a connected nerve of dimension <= 2 by reading its Betti vector.

    beta_0 = 1/|W| is positive exactly when W is finite (the empty system
    too): inconclusive.  Otherwise the chain cites the engine's steps for
    entries 0 and 2 unchanged.  The bound is an exact positive beta_2, else
    max(chi_orb, 0): with beta_0 = 0 and no chains above dimension 3, the
    alternating-sum identity gives chi_orb <= beta_2, exact or not.
    """
    vector = betti(nerve)
    if vector.get(0) > 0:
        return Certificate("Inconclusive", nerve.spec, Fraction(0), (), reason="FiniteGroup")
    chain = [
        CitedStep(STMT_CHI, f"nerve on {len(nerve.vertices)} vertices", {"chi_orb": _rational(vector.chi)}),
        vector.step(0),
    ]
    bound = vector.get(2)
    if bound is not UNKNOWN and bound > 0:
        chain.append(vector.step(2))
    else:
        bound = max(vector.chi, Fraction(0))
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
    each on its sub-nerve filtered from the subject's nerve, which shares
    the subject's neighbor tuples and commuting sets and holds its
    component, so it is neither checked nor searched again; one non-planar
    component suffices.  Components are certified smallest first, and the
    first size that certifies cites its largest bound (the first such
    component on a tie), so the bound does not depend on vertex names.
    While the caller holds the nerve of this spec, build_nerve hands it
    back, so nothing is built again.  Each component goes straight to the
    connected path, without being split again.
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
        witness = None
        for comp in sorted(components, key=len):  # stable: component order within a size
            if witness is not None and len(comp) > len(witness[0]):
                break
            sub_cert = _certify_connected(_component_nerve(nerve, comp))
            if sub_cert.verdict != "NotPlanar":
                notes.append(f"component {{{','.join(comp)}}}: {sub_cert.reason or 'ObstructionSilent'}")
            elif witness is None or sub_cert.bound > witness[1].bound:
                witness = (comp, sub_cert)
        if witness is None:
            return Certificate(
                "Inconclusive", spec, Fraction(0), (), reason="ObstructionSilent", notes=tuple(notes)
            )
        comp, sub_cert = witness
        notes.append(f"witnessing component: {{{','.join(comp)}}}")
        return Certificate("NotPlanar", spec, sub_cert.bound, sub_cert.chain, notes=tuple(notes))
    return _certify_connected(nerve)


class TraceStep(NamedTuple):
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
            # Every label at the removed vertex v is 2, so T + {v} is spherical exactly when
            # T is spherical and lies among v's neighbors: W of T + {v} is W_T x Z/2.
            "link_full": True,
            "justification": self.justification,
        }


class ProofTrace(NamedTuple):
    """Vertex-removal induction transferring sphere vanishing to a subcomplex."""

    ambient: Nerve
    target: VertexSubset
    steps: tuple[TraceStep, ...]
    conclusion: str
    notes: tuple[str, ...] = ()

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
    of the removed vertex, its neighbors not yet removed, and the
    decomposition justifying the transfer of vanishing.  Only the witness
    is needed of the target, so its induced nerve is never built and no
    level is read.  The witness makes each link full in the ambient nerve:
    every label at a removed vertex v is 2, so for T among v's neighbors,
    W of T + {v} is W_T x Z/2, and T + {v} is spherical exactly when T is.
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
        near = tuple(u for u in ambient.neighbors(v) if u not in removed)  # sorted, as the neighbors are
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


def _lr_rotation(vertices: tuple[str, ...], neighbors) -> dict[str, list[str]] | None:
    """The left-right planarity test on one connected graph, with its embedding phase.

    Follows U. Brandes, "The Left-Right Planarity Test" (2009).  An
    orientation DFS gives heights, lowpoints and nesting depths; a testing
    DFS merges the return edges below each tree edge into conflict pairs of
    left and right intervals and fails when two intervals must share a side;
    the embedding phase resolves each edge's side and places every back edge
    beside the tree edge it returns through.  All three run on explicit
    stacks.  Each vertex's out-edges are sorted by nesting depth for the
    testing DFS, and by signed depth for the embedding phase, so the whole
    costs O(E log D) for the greatest degree D.  Returns the cyclic neighbor
    order at each vertex, or None when the graph is not planar.
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
    ordered: list[list[int]] = [[] for _ in range(n)]
    for e, v in enumerate(src):  # in id order, which the stable sorts keep among ties
        ordered[v].append(e)
    for out in ordered:
        out.sort(key=depth.__getitem__)

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
    signed = [side[e] * depth[e] for e in range(m)]
    for out in ordered:  # edges of equal signed depth have equal depth, so they stay in id order
        out.sort(key=signed.__getitem__)
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
    for _ in _traced_faces(graph, rot, ()):  # the 1-skeleton only: no 2-simplex is checked
        pass
    return rot


def brute_force_planar(graph: SimplicialComplex) -> bool:
    """Planarity of the 1-skeleton by the left-right test (see planar_rotation).

    The name is kept from the exhaustive rotation search this replaced only
    because the benchmark imports it; the library calls planar_rotation.
    """
    return planar_rotation(graph) is not None

