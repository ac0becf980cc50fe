"""Planarity pipeline: embeddings, face coning, certificates, proof traces.

Embeddings are witnessed combinatorially by rotation systems (a cyclic
neighbor order at each vertex) and certified by face tracing plus Euler's
formula; no coordinates anywhere.  The non-planarity certificate derives a
positive lower bound for the dimension-2 l2-Betti entry of a labelled
complex and cites the vanishing statement it contradicts.  A classical
exhaustive rotation-system search acts as an independent planarity oracle
for cross-validation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from coxeter_l2.model import CoxeterSpec, VertexSubset
from coxeter_l2.nerve import (
    Nerve,
    SimplicialComplex,
    SphereKind,
    SubcomplexWitness,
    _disjoint_rename,
    build_nerve,
    full_subcomplex,
    has_right_angled_complement,
    induced_nerve,
    is_full_subcomplex,
    link,
    recognize_sphere,
)
from coxeter_l2.invariants import Beta2Bound, _rational, betti_lower_bound_dim2, chi_orb
from coxeter_l2.spherical import classify

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


class NotSpherical(ValueError):
    """The rotation system does not describe an embedding in the 2-sphere."""


class NonSimpleFaceBoundary(ValueError):
    """A face boundary walk repeats a vertex; coning it is refused."""


class HypothesisViolated(RuntimeError):
    """A vanishing-trace hypothesis failed."""


class TooLarge(ValueError):
    """Input beyond the exhaustive oracle's desk scale."""


class RotationSystem:
    """Cyclic neighbor orders at each vertex, the witness of an embedding."""

    def __init__(self, rotations: Mapping[str, Iterable[str]]):
        self._rot = {v: tuple(ns) for v, ns in rotations.items()}
        for v, ns in self._rot.items():
            if len(set(ns)) != len(ns) or v in ns:
                raise ValueError(f"rotation at {v!r} must list distinct neighbors, not {ns}")
        self._index = {
            v: {u: i for i, u in enumerate(ns)} for v, ns in self._rot.items()
        }

    @property
    def vertices(self) -> tuple[str, ...]:
        return tuple(sorted(self._rot))

    def rotation(self, v: str) -> tuple[str, ...]:
        return self._rot[v]

    def next_after(self, v: str, u: str) -> str:
        """The neighbor following u in the cyclic order at v."""
        ns = self._rot[v]
        return ns[(self._index[v][u] + 1) % len(ns)]

    def check_against(self, skeleton: SimplicialComplex) -> None:
        """Require the rotations to cover exactly the skeleton's edge set."""
        verts = set(skeleton.vertices)
        if set(self._rot) != verts:
            raise ValueError("rotation system must list every vertex exactly once")
        declared = {
            (v, u) for v, ns in self._rot.items() for u in ns
        }
        expected = set()
        for a, b in skeleton.edges:
            expected.add((a, b))
            expected.add((b, a))
        if declared != expected:
            raise ValueError("rotations do not match the edge set of the complex")

    def restrict(self, vertices: Iterable[str]) -> "RotationSystem":
        keep = set(vertices)
        return RotationSystem(
            {v: [u for u in self._rot[v] if u in keep] for v in keep if v in self._rot}
        )

    @classmethod
    def from_document(cls, document: Mapping) -> "RotationSystem":
        if not isinstance(document, Mapping) or not all(
            isinstance(ns, (list, tuple)) for ns in document.values()
        ):
            raise ValueError("rotation document must map vertex -> cyclic neighbor list")
        return cls({str(v): [str(u) for u in ns] for v, ns in document.items()})

    def to_document(self) -> dict:
        return {v: list(self._rot[v]) for v in sorted(self._rot)}


Walk = tuple[tuple[str, str], ...]


def _canonical_walk(walk: Walk) -> Walk:
    rotations = [walk[i:] + walk[:i] for i in range(len(walk))]
    return min(rotations)


@dataclass(frozen=True)
class FaceSet:
    """Closed walks bounding the complementary regions of an embedding."""

    faces: tuple[Walk, ...]

    def vertex_walks(self) -> tuple[tuple[str, ...], ...]:
        return tuple(tuple(u for u, _ in face) for face in self.faces)

    def __len__(self) -> int:
        return len(self.faces)


def faces_from_rotation(skeleton: SimplicialComplex, rot: RotationSystem) -> FaceSet:
    """Trace the faces of a rotation system on a connected 1-skeleton.

    From the directed edge (u, v) the walk continues along (v, w) where w
    follows u in the rotation at v; the walks partition the directed edge
    set.  Raises NotSpherical unless V - E + F = 2.
    """
    if not skeleton.is_connected():
        raise ValueError("face tracing requires a connected skeleton")
    rot.check_against(skeleton)
    if not skeleton.edges:
        if len(skeleton.vertices) != 1:
            raise ValueError("edgeless skeleton with several vertices is disconnected")
        return FaceSet(((),))  # a lone vertex bounds the single spherical region
    remaining = set()
    for a, b in skeleton.edges:
        remaining.add((a, b))
        remaining.add((b, a))
    E = len(skeleton.edges)
    V = len(skeleton.vertices)
    faces = []
    while remaining:
        start = min(remaining)
        walk = []
        cur = start
        while True:
            walk.append(cur)
            remaining.discard(cur)
            u, v = cur
            cur = (v, rot.next_after(v, u))
            if cur == start:
                break
        faces.append(_canonical_walk(tuple(walk)))
    faces.sort()
    if V - E + len(faces) != 2:
        raise NotSpherical(
            f"V - E + F = {V} - {E} + {len(faces)} != 2: rotation has positive genus"
        )
    return FaceSet(tuple(faces))


def _is_simple(walk: Walk) -> bool:
    heads = [u for u, _ in walk]
    return len(set(heads)) == len(heads)


def _triangle_faces(faceset: FaceSet) -> set[frozenset[str]]:
    return {
        frozenset(u for u, _ in face) for face in faceset.faces
        if len(face) == 3 and _is_simple(face)
    }


def validate_embedding(
    complex_: SimplicialComplex, rot: RotationSystem | Mapping
) -> list[tuple[tuple[str, ...], FaceSet]]:
    """Check that a rotation system embeds a complex of dim <= 2 in the sphere.

    Each connected component is traced separately (disjoint pieces embed in
    disjoint disks); every 2-simplex must appear among its component's
    triangular faces.  Returns the per-component face sets.
    """
    if not isinstance(rot, RotationSystem):
        rot = RotationSystem.from_document(rot)
    if complex_.dimension > 2:
        raise ValueError("embedding witnesses only apply to complexes of dimension <= 2")
    rot.check_against(complex_)
    out = []
    for comp in complex_.skeleton_components():
        sub = SimplicialComplex(comp, complex_.simplices_within(set(comp)))
        faceset = faces_from_rotation(sub, rot.restrict(comp))
        triangles = _triangle_faces(faceset)
        for t in sub.triangles:
            if frozenset(t) not in triangles:
                raise NotSpherical(
                    f"2-simplex {t} is not a face of the embedding"
                )
        out.append((comp, faceset))
    return out


def cone_construction(
    nerve: Nerve, rot: RotationSystem | Mapping, *, cone_prefix: str = "c"
) -> tuple[Nerve, SubcomplexWitness]:
    """Complete an embedded complex to a 2-sphere nerve by coning each region.

    One fresh vertex is introduced per complementary region that is not
    already a 2-simplex, joined by label-2 edges to the region's boundary
    walk; empty 3-cycles (triangles of the skeleton that are not
    simplices) count as regions and are coned.  The input complex becomes
    a full subcomplex with right-angled complement of the resulting
    2-sphere nerve.
    """
    if not isinstance(rot, RotationSystem):
        rot = RotationSystem.from_document(rot)
    if not nerve.vertices:
        raise ValueError("cannot cone an empty complex")
    if not nerve.is_connected():
        raise ValueError("cone construction requires a connected complex")
    if nerve.dimension > 2:
        raise ValueError("cone construction requires dimension <= 2")
    ((_, faceset),) = validate_embedding(nerve, rot)

    for face in faceset.faces:
        if not _is_simple(face):
            raise NonSimpleFaceBoundary(
                f"face walk {[u for u, _ in face]} repeats a vertex"
            )

    to_cone = [
        face for face in faceset.faces
        if not (len(face) == 3 and nerve.has_simplex([u for u, _ in face]))
    ]
    taken = set(nerve.spec.vertices)
    vertices = list(nerve.spec.vertices)
    labels = {(u, v): m for u, v, m in nerve.spec.finite_edges()}
    for i, face in enumerate(to_cone):
        name = _disjoint_rename(taken, f"{cone_prefix}{i}")
        taken.add(name)
        vertices.append(name)
        for u, _ in face:
            labels[(name, u)] = 2
    coned = build_nerve(CoxeterSpec(vertices, labels))

    if recognize_sphere(coned) is not SphereKind.TWO_SPHERE:
        raise NotSpherical(
            "coning did not yield a 2-sphere triangulation "
            "(a face boundary likely has a chord)"
        )
    sub, witness = full_subcomplex(coned, nerve.vertices)
    if sub != nerve or not witness.right_angled_complement:
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


def _certify_connected(spec: CoxeterSpec, nerve: Nerve) -> Certificate:
    chi = chi_orb(nerve)
    chain = [
        CitedStep(
            STMT_CHI,
            f"nerve on {len(nerve.vertices)} vertices",
            {"chi_orb": _rational(chi)},
        ),
        CitedStep(STMT_B0, "W infinite", {"beta_0": "0/1"}),
    ]
    bound: Beta2Bound = betti_lower_bound_dim2(nerve)
    if bound.provenance.startswith("exact entry") and "R-join" in bound.provenance:
        factors = bound.vector.provenance_for(2).removeprefix("R-join: ")
        chain.append(
            CitedStep(STMT_JOIN, factors, {"beta_2": _rational(bound.value)})
        )
    else:
        chain.append(
            CitedStep(
                STMT_ATIYAH_BOUND,
                "alternating Betti sum equals chi_orb; dimension <= 2",
                {"beta_2_lower_bound": _rational(max(bound.value, Fraction(0)))},
            )
        )
    if bound.value > 0:
        chain.append(
            CitedStep(
                STMT_PLANAR_VANISHING,
                "a complex of dimension <= 2 embeddable in the 2-sphere has beta_2 = 0",
                {"contradiction": f"beta_2 >= {_rational(bound.value)} > 0"},
            )
        )
        return Certificate("NotPlanar", spec, bound.value, tuple(chain))
    return Certificate(
        "Inconclusive", spec, Fraction(0), tuple(chain), reason="ObstructionSilent"
    )


def certify_nonplanar(spec: CoxeterSpec) -> Certificate:
    """Attempt to certify that a labelled complex cannot embed in the 2-sphere.

    The verdict is one-directional: NotPlanar when a positive lower bound
    for the dimension-2 Betti entry is derived, Inconclusive otherwise
    (never "Planar").  Disconnected subjects are certified per component,
    each on its sub-nerve filtered from the subject's nerve; one non-planar
    component suffices.
    """
    return _certify(build_nerve(spec))


def _certify(nerve: Nerve) -> Certificate:
    spec = nerve.spec
    if nerve.dimension > 2:
        return Certificate(
            "Inconclusive", spec, Fraction(0), (), reason="DimensionTooHigh"
        )
    if classify(spec, spec.vertices).spherical:
        return Certificate("Inconclusive", spec, Fraction(0), (), reason="FiniteGroup")

    components = nerve.skeleton_components()
    if len(components) > 1:
        notes = [
            f"subject has {len(components)} components; certified per component, "
            "a non-planar component makes the whole non-planar"
        ]
        for comp in components:
            sub_cert = _certify(induced_nerve(nerve, comp))
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
    return _certify_connected(spec, nerve)


@dataclass(frozen=True)
class TraceStep:
    removed: str
    before: VertexSubset
    after: VertexSubset
    link_vertices: VertexSubset
    link_full: bool
    justification: str

    def to_document(self) -> dict:
        return {
            "removed": self.removed,
            "before": list(self.before),
            "after": list(self.after),
            "link": list(self.link_vertices),
            "link_full": self.link_full,
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
    decomposition justifying the transfer of vanishing.
    """
    A = ambient.spec.check_subset(target)
    if recognize_sphere(ambient) is not SphereKind.TWO_SPHERE:
        raise HypothesisViolated("ambient nerve is not a 2-sphere triangulation")
    if not has_right_angled_complement(ambient, A):
        raise HypothesisViolated("target does not have a right-angled complement")

    _, witness = full_subcomplex(ambient, A)
    removal = sorted(set(ambient.vertices) - set(A))
    current = set(ambient.vertices)
    steps = []
    for v in removal:
        before = tuple(sorted(current))
        # Only the closed star of v in B matters for its link, so the
        # induced sub-nerve on v and its remaining neighbors suffices.
        near = [u for u in ambient.neighbors(v) if u in current]
        for u in near:
            if ambient.spec.label(v, u) != 2:  # infinite pairs are not edges
                raise HypothesisViolated(
                    f"removed vertex {v} has a non-commuting edge to {u}"
                )
        b_v = link(induced_nerve(ambient, [v, *near]), v)
        if not is_full_subcomplex(ambient, b_v):
            raise HypothesisViolated(
                f"link of {v} is not a full subcomplex of the ambient nerve"
            )
        current.discard(v)
        after = tuple(sorted(current))
        steps.append(
            TraceStep(
                removed=v,
                before=before,
                after=after,
                link_vertices=tuple(b_v.vertices),
                link_full=True,
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


def _rotation_options(neighbors: tuple[str, ...]):
    """All cyclic orders of a neighbor set, first element pinned."""
    if len(neighbors) <= 2:
        return [tuple(neighbors)]
    first, rest = neighbors[0], neighbors[1:]
    return [(first, *perm) for perm in itertools.permutations(rest)]


def _count_systems(skeleton: SimplicialComplex) -> int:
    total = 1
    for v in skeleton.vertices:
        d = len(skeleton.neighbors(v))
        for k in range(2, d):
            total *= k
    return total


def brute_force_planar(
    graph: SimplicialComplex, *, max_systems: int = 10 ** 6
) -> bool:
    """Exhaustive planarity oracle for 1-complexes at desk scale.

    True iff some rotation system of each connected component passes the
    spherical Euler check.  Graphs over 10 vertices, or whose rotation
    search space exceeds ``max_systems``, are refused with TooLarge; graphs
    beyond the planar edge bound are rejected immediately.
    """
    V = len(graph.vertices)
    if V > 10:
        raise TooLarge(f"{V} vertices exceeds the oracle bound of 10")
    if V >= 3 and len(graph.edges) > 3 * V - 6:
        return False
    for comp in graph.skeleton_components():
        sub = SimplicialComplex(comp, [e for e in graph.edges if set(e) <= set(comp)])
        if len(sub.vertices) == 1:
            continue
        if _count_systems(sub) > max_systems:
            raise TooLarge(
                f"component {comp} has more than {max_systems} rotation systems"
            )
        options = [
            _rotation_options(sub.neighbors(v)) for v in sub.vertices
        ]
        found = False
        for choice in itertools.product(*options):
            rot = RotationSystem(dict(zip(sub.vertices, choice)))
            try:
                faces_from_rotation(sub, rot)
            except NotSpherical:
                continue
            found = True
            break
        if not found:
            return False
    return True
