"""Nerve construction and the subcomplex calculus.

The nerve of a Coxeter system is the abstract simplicial complex on the
vertex set whose simplices are exactly the nonempty spherical subsets; it
is metric flag by construction.  The piecewise-spherical metric is kept
only as edge labels, never as geometry.  This module also provides full
subcomplexes with their fullness witnesses, vertex links, right-angled
joins, and combinatorial sphere recognition.

Sphere embeddings of complexes of dimension <= 2 live here too: they are
witnessed by rotation systems (a cyclic neighbor order at each vertex) and
checked by face tracing plus Euler's formula, with no coordinates anywhere.
"""

from __future__ import annotations

import bisect
import enum
import itertools
import weakref
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from coxeter_l2.model import INFINITY, CoxeterSpec, VertexSubset, components
from coxeter_l2.spherical import _match_component

Simplex = tuple[str, ...]


class CapExceeded(RuntimeError):
    """Enumeration grew past its configured cap."""


class SimplicialComplex:
    """Abstract simplicial complex: a vertex tuple plus simplices by dimension.

    Simplices are stored as sorted vertex tuples, listed in canonical
    (dimension, lexicographic) order so iteration is deterministic.  The
    complex is indexed once: a neighbor map (the 1-skeleton adjacency) and a
    star map (the simplices containing each vertex, in that order), so
    neighbors, links, connectivity and restrictions to a vertex subset cost
    time proportional to the simplices they touch, not to the whole complex.
    Every constructor hands _index both maps: __init__, the one constructor
    that takes unsorted simplices, builds them from the simplices; a full
    subcomplex is a view filtered in order from the ambient maps (_view);
    and build_nerve fills a nerve's maps as it enumerates.  All of them list
    simplices in canonical order, so equality and hashing read _by_dim, and
    membership reads the stars.
    """

    def __init__(self, vertices: Iterable[str], simplices: Iterable[Simplex]):
        vertices = tuple(vertices)
        index: dict[int, list[Simplex]] = {}
        star: dict[str, list[Simplex]] = {v: [] for v in vertices}
        for s in sorted({tuple(sorted(s)) for s in simplices} - {()}, key=lambda s: (len(s), s)):
            index.setdefault(len(s) - 1, []).append(s)
            for v in s:
                star.setdefault(v, []).append(s)
        # The edges at v come in lexicographic order, so its neighbors come out sorted.
        near = {v: tuple(x for e in ss if len(e) == 2 for x in e if x != v) for v, ss in star.items()}
        self._index(vertices, {d: tuple(index[d]) for d in sorted(index)}, (star, near))

    @classmethod
    def _presorted(cls, vertices: tuple[str, ...], by_dim: dict, maps):
        """The private constructor: simplices distinct, sorted, and lexicographic per dimension."""
        complex_ = cls.__new__(cls)
        complex_._index(vertices, by_dim, maps)
        return complex_

    def _index(self, vertices, by_dim, maps) -> None:
        """Store the simplices and the given star and neighbor maps."""
        self.vertices: tuple[str, ...] = vertices
        self._by_dim: dict[int, tuple[Simplex, ...]] = by_dim
        self._star, self._neighbors = maps
        self._sphere = self._components = None  # held by recognize_sphere and skeleton_components

    def _view(self, vertices: tuple[str, ...], cls: type | None = None):
        """The full subcomplex on some vertices, its maps filtered in order from their stars."""
        keep = set(vertices)
        star = {v: [s for s in self._star[v] if keep.issuperset(s)] for v in vertices}
        by_dim: dict[int, list[Simplex]] = {}
        for v in sorted(keep):  # a simplex is listed once, at its least vertex
            for s in star[v]:
                if s[0] == v:
                    by_dim.setdefault(len(s) - 1, []).append(s)
        neighbors = {v: tuple(u for u in self._neighbors[v] if u in keep) for v in vertices}
        by_dim = {d: tuple(by_dim[d]) for d in sorted(by_dim)}
        return (cls or SimplicialComplex)._presorted(vertices, by_dim, (star, neighbors))

    @property
    def dimension(self) -> int:
        """Max simplex dimension; -1 for the empty complex."""
        return max(self._by_dim) if self._by_dim else -1

    def simplices(self, dim: int | None = None) -> tuple[Simplex, ...]:
        if dim is not None:
            return self._by_dim.get(dim, ())
        return tuple(s for group in self._by_dim.values() for s in group)  # dimensions ascend

    def has_simplex(self, s: Iterable[str]) -> bool:
        """Is s a nonempty simplex?  It is looked for in the shortest star of its vertices."""
        s = tuple(sorted(s))
        return bool(s) and s in min((self._star.get(v, ()) for v in s), key=len)

    @property
    def edges(self) -> tuple[Simplex, ...]:
        return self._by_dim.get(1, ())

    @property
    def triangles(self) -> tuple[Simplex, ...]:
        return self._by_dim.get(2, ())

    def neighbors(self, v: str) -> tuple[str, ...]:
        return self._neighbors.get(v, ())

    def is_connected(self) -> bool:
        """Connectivity of the 1-skeleton (a complex with one vertex is connected)."""
        return len(self.skeleton_components()) <= 1

    def skeleton_components(self) -> tuple[tuple[str, ...], ...]:
        """Components of the 1-skeleton, listed by least vertex; searched once and held."""
        if self._components is None:
            self._components = tuple(components(self.vertices, self.neighbors))
        return self._components

    def counts(self) -> tuple[int, ...]:
        """Number of simplices per dimension 0..dim."""
        return tuple(len(self._by_dim.get(d, ())) for d in range(self.dimension + 1))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.vertices == other.vertices and self._by_dim == other._by_dim

    def __hash__(self) -> int:
        return hash((self.vertices, tuple(self._by_dim.items())))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(V={len(self.vertices)}, counts={self.counts()})"


class Nerve(SimplicialComplex):
    """The nerve of a Coxeter system, with subgroup orders per simplex."""

    _chi = _verdict = None  # held on the object by invariants.chi_orb and invariants.betti

    @classmethod
    def _assembled(cls, spec: CoxeterSpec, by_dim: dict, orders: dict[Simplex, int], maps) -> "Nerve":
        """The nerve build_nerve enumerated, with its orders and both maps; the spec holds it weakly."""
        nerve = cls._presorted(spec.vertices, by_dim, maps)
        nerve.spec, nerve._orders = spec, orders
        spec._nerve = weakref.ref(nerve)
        return nerve

    def order(self, simplex: Iterable[str]) -> int:
        """|W_T| for a simplex T; the empty simplex has order 1."""
        s = tuple(sorted(simplex))
        return self._orders[s] if s else 1  # KeyError for a non-simplex

    def to_document(self) -> dict:
        return {
            "spec": self.spec.to_document(),
            "dimension": self.dimension,
            "simplices": {
                str(d): [list(s) for s in self.simplices(d)]
                for d in range(self.dimension + 1)
            },
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, Nerve):
            return NotImplemented
        return self.spec == other.spec and self._by_dim == other._by_dim

    def __hash__(self) -> int:
        return hash((self.spec, tuple(self._by_dim.items())))


class NotSpherical(ValueError):
    """The rotation system does not describe an embedding in the 2-sphere."""


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

    def next_after(self, v: str, u: str) -> str:
        """The neighbor following u in the cyclic order at v."""
        ns = self._rot[v]
        return ns[(self._index[v][u] + 1) % len(ns)]

    def check_against(self, skeleton: SimplicialComplex) -> None:
        """Require the rotations to cover exactly the skeleton's edge set."""
        verts = set(skeleton.vertices)
        if set(self._rot) != verts:
            raise ValueError("rotation system must list every vertex exactly once")
        declared = {(v, u) for v, ns in self._rot.items() for u in ns}
        if declared != {(v, u) for v in skeleton.vertices for u in skeleton.neighbors(v)}:
            raise ValueError("rotations do not match the edge set of the complex")

    @classmethod
    def from_document(cls, document: Mapping) -> "RotationSystem":
        if not isinstance(document, Mapping) or not all(
            isinstance(ns, (list, tuple)) for ns in document.values()
        ):
            raise ValueError("rotation document must map vertex -> cyclic neighbor list")
        return cls({str(v): [str(u) for u in ns] for v, ns in document.items()})


Walk = tuple[tuple[str, str], ...]


def _traced_faces(complex_: SimplicialComplex, rot: RotationSystem):
    """Yield (component, its face walks) per component of the 1-skeleton, least vertex first.

    From the directed edge (u, v) a walk continues along (v, w) where w
    follows u in the rotation at v; the walks partition the directed edge
    set, and each is filed under the component of its first vertex.  Every
    walk starts at the least directed edge not yet used, which is the least
    edge of its walk, so walks come out rotated to their minimum and in
    sorted order.  A lone vertex bounds one region, the empty walk.  Each
    component is yielded once it has V - E + F = 2, so the first component
    that fails raises NotSpherical before any later one is looked at.
    """
    rot.check_against(complex_)
    comps = complex_.skeleton_components()
    where = {v: i for i, comp in enumerate(comps) for v in comp}
    walks: list[list[Walk]] = [[] for _ in comps]
    used = set()
    for start in sorted((a, b) for a in complex_.vertices for b in complex_.neighbors(a)):
        if start in used:
            continue
        walk = []
        cur = start
        while True:
            walk.append(cur)
            used.add(cur)
            u, v = cur
            cur = (v, rot.next_after(v, u))
            if cur == start:
                break
        walks[where[start[0]]].append(tuple(walk))
    for comp, faces in zip(comps, walks):
        faces = tuple(faces) or ((),)
        V, E, F = len(comp), sum(map(len, faces)) // 2, len(faces)
        if V - E + F != 2:
            raise NotSpherical(f"V - E + F = {V} - {E} + {F} != 2: rotation has positive genus")
        yield comp, faces


def validate_embedding(
    complex_: SimplicialComplex, rot: RotationSystem | Mapping
) -> list[tuple[tuple[str, ...], tuple[Walk, ...]]]:
    """Check that a rotation system embeds a complex of dim <= 2 in the sphere.

    This is the one face-tracing entry point; a 1-skeleton has no 2-simplices
    to check, so on it this is the bare trace.  Each connected component is
    traced separately (disjoint pieces embed in disjoint disks); every
    2-simplex must appear among its component's triangular faces.  Returns
    each component with its face walks.
    """
    if not isinstance(rot, RotationSystem):
        rot = RotationSystem.from_document(rot)
    if complex_.dimension > 2:
        raise ValueError("embedding witnesses only apply to complexes of dimension <= 2")
    out = []
    for comp, faces in _traced_faces(complex_, rot):
        # A 3-walk has three distinct vertices (there are no loops), so it bounds a triangle.
        triangles = {frozenset(u for u, _ in face) for face in faces if len(face) == 3}
        missing = [
            t for v in comp for t in complex_._star[v]
            if len(t) == 3 and t[0] == v and frozenset(t) not in triangles
        ]
        if missing:
            raise NotSpherical(f"2-simplex {min(missing)} is not a face of the embedding")
        out.append((comp, faces))
    return out


@dataclass(frozen=True)
class SubcomplexWitness:
    """Record that a vertex set spans a full subcomplex of an ambient nerve.

    The subcomplex is always full: it is the induced nerve on vertex_set.
    """

    ambient: Nerve
    vertex_set: VertexSubset
    right_angled_complement: bool
    notes: tuple[str, ...] = field(default_factory=tuple)


def build_nerve(spec: CoxeterSpec, *, simplex_cap: int = 10 ** 6) -> Nerve:
    """Enumerate all nonempty spherical subsets by incremental clique extension.

    The edges are the sorted finite labels themselves: m spans I2(m), of
    order 2m (A1 x A1 when m = 2), so no edge is classified.  Each larger
    spherical set s + w grows s by a common finite neighbor w above its
    maximum; since subsets of spherical sets are spherical, this pruning is
    exhaustive.  Each frontier set carries its diagram components with their
    orders, so s + w is classified by matching one component: w merged with
    the components of s it does not commute with (w alone doubles the
    order).  Only the order of the matcher's (kind, rank, order, m) fields
    is kept.  Simplices come out in canonical order, so each is appended to
    its vertices' stars as it is made, and the sorted labels list each
    vertex's neighbors in order: the nerve is indexed as it is enumerated.
    Raises CapExceeded past ``simplex_cap`` simplices.

    The spec keeps a weak reference to the nerve built last, so while a
    caller holds that nerve, building it again (as certify_nonplanar does)
    returns it instead, unless it has more than ``simplex_cap`` simplices.
    """
    held = spec._nerve and spec._nerve()
    if held is not None and len(held._orders) <= simplex_cap:
        return held
    labels = spec._labels
    star: dict[str, list[Simplex]] = {v: [(v,)] for v in spec.vertices}
    lower: dict[str, list[str]] = {v: [] for v in spec.vertices}
    upper: dict[str, list[str]] = {v: [] for v in spec.vertices}
    for e in labels:  # sorted pairs, so each vertex meets its lower and its upper neighbors in order
        u, w = e
        star[u].append(e)
        star[w].append(e)
        upper[u].append(w)
        lower[w].append(u)
    vertices = sorted(spec.vertices)
    orders = dict.fromkeys([(v,) for v in vertices], 2)
    levels = [tuple(orders), tuple(labels)]
    orders.update(zip(labels, [2 * m for m in labels.values()]))
    if len(orders) > simplex_cap:
        raise CapExceeded(f"nerve exceeds {simplex_cap} simplices")

    # A frontier entry: a simplex with candidates, its common finite neighbors
    # above its maximum (sorted), and its diagram components as (vertices, order).
    # A candidate x after w exceeds it, so (w, x) is finite when it is labelled.
    # An edge's candidates are read off the shorter of its ends' upper neighbor
    # lists: scanning u's alone costs a vertex of degree d about d^2 / 2 tests
    # when it sorts before most of its neighbors, as a pole can on a suspension.
    frontier = []
    for u in vertices:
        up = upper[u]
        for i, w in enumerate(up):
            if len(up) - i - 1 <= len(upper[w]):
                candidates = [x for x in up[i + 1:] if (w, x) in labels]
            else:
                candidates = [x for x in upper[w] if (u, x) in labels]
            if candidates:
                m = labels[(u, w)]
                comps = (((u,), 2), ((w,), 2)) if m == 2 else (((u, w), 2 * m),)
                frontier.append(((u, w), candidates, comps))
    while frontier:
        level, nxt = [], []
        for s, candidates, comps in frontier:
            for i, w in enumerate(candidates):
                commuting = spec.commuting(w)
                merged, kept, order = [w], [], 1
                for comp in comps:
                    if commuting.issuperset(comp[0]):
                        kept.append(comp)
                        order *= comp[1]
                    else:
                        merged += comp[0]
                if len(merged) == 1:
                    comp = ((w,), 2)
                else:
                    key = tuple(sorted(merged))
                    match = _match_component(spec, key)
                    if match is None:
                        continue
                    comp = (key, match[2])
                t = s + (w,)
                orders[t] = order * comp[1]
                if len(orders) > simplex_cap:
                    raise CapExceeded(f"nerve exceeds {simplex_cap} simplices")
                level.append(t)
                for x in t:
                    star[x].append(t)
                rest = [x for x in candidates[i + 1:] if (w, x) in labels]
                if rest:
                    nxt.append((t, rest, (*kept, comp)))
        levels.append(tuple(level))
        frontier = nxt
    by_dim = {d: level for d, level in enumerate(levels) if level}  # an empty level has none above it
    neighbors = {v: (*lower[v], *upper[v]) for v in spec.vertices}
    return Nerve._assembled(spec, by_dim, orders, (star, neighbors))


def _straddling_pairs(spec: CoxeterSpec, A: set[str]):
    """Yield the infinite pairs with an endpoint outside A, in lexicographic order.

    From each u the scan walks the later vertices (only those outside A when
    u is in A); every vertex passed over is a finite pair, so producing the
    first k pairs costs O(V log V + E + k).
    """
    verts = sorted(spec.vertices)
    outside = [v for v in verts if v not in A]
    for u in verts:
        pool = outside if u in A else verts
        for i in range(bisect.bisect_right(pool, u), len(pool)):
            if spec.label(u, pool[i]) == INFINITY:
                yield u, pool[i]


def _witness(nerve: Nerve, A: VertexSubset) -> SubcomplexWitness:
    """The fullness witness of a checked, sorted subset, read from the neighbors outside it.

    Every finite label is an edge of the nerve, so the complement is
    right-angled when each vertex outside A has only commuting neighbors;
    infinite pairs are not edges, so a straddling one does not disqualify
    and is only noted.  Straddling infinite pairs are counted in closed form
    (all pairs not inside A, minus the edges at vertices outside A), and
    only the first four are enumerated for the note.
    """
    keep = set(A)
    near = {u: nerve.neighbors(u) for u in set(nerve.vertices) - keep}
    edges = sum(map(len, near.values())) - sum(len(near.keys() & ns) for ns in near.values()) // 2
    n, a = len(nerve.vertices), len(A)
    count = n * (n - 1) // 2 - a * (a - 1) // 2 - edges
    notes = ()
    if count:
        shown = ", ".join(f"({u},{v})" for u, v in itertools.islice(_straddling_pairs(nerve.spec, keep), 4))
        more = "" if count <= 4 else f" and {count - 4} more"
        notes = (
            f"{count} infinite-label pair(s) not contained in the "
            f"subcomplex: {shown}{more} (permitted: infinite pairs are not edges)",
        )
    right_angled = all(len(nerve.spec.commuting(u)) == len(ns) for u, ns in near.items())
    return SubcomplexWitness(nerve, A, right_angled, notes)


def induced_nerve(nerve: Nerve, subset) -> Nerve:
    """The nerve of the induced subsystem, filtered from the ambient nerve.

    Sphericity depends only on the induced labels, so the ambient simplices
    and orders inside the subset are exactly those of
    build_nerve(induced_subspec(nerve.spec, subset)); nothing is classified
    again.  The result is a view, filtered in order from the ambient maps at
    the cost of the kept vertices' stars; every finite label is an edge of
    the nerve, so the restricted spec takes its labels from the kept edges.
    """
    keep = set(nerve.spec.check_subset(subset))
    vertices = tuple(v for v in nerve.vertices if v in keep)
    sub = nerve._view(vertices, Nerve)
    sub.spec = nerve.spec._restrict(vertices, keep, sub.edges)
    sub._orders = {s: nerve._orders[s] for s in sub.simplices()}
    return sub


def full_subcomplex(nerve: Nerve, subset) -> tuple[Nerve, SubcomplexWitness]:
    """The induced nerve on a vertex subset, with its fullness witness.

    The subcomplex is filtered from the ambient simplices and orders by
    induced_nerve, not rebuilt; it is automatically full because sphericity
    depends only on the induced labels.  The subset is checked once, by
    induced_nerve, and the witness comes from _witness.
    """
    sub = induced_nerve(nerve, subset)
    return sub, _witness(nerve, tuple(sorted(sub.vertices)))


def link(complex_: SimplicialComplex, v: str) -> SimplicialComplex:
    """The link of a vertex: all simplices T with v not in T and T + {v} a simplex."""
    if v not in complex_._star:
        raise KeyError(f"{v!r} is not a vertex")
    simplices = [tuple(x for x in s if x != v) for s in complex_._star[v] if len(s) > 1]
    return SimplicialComplex(complex_.neighbors(v), simplices)


def _is_full(ambient: SimplicialComplex, vertices, simplices) -> bool:
    """Are the given simplices (a set) exactly the ambient simplices spanned by the vertices?"""
    keep = set(vertices)  # each spanned simplex is read from the stars once, at its least vertex
    spanned = [s for v in keep for s in ambient._star[v] if s[0] == v and keep.issuperset(s)]
    return len(spanned) == len(simplices) and all(s in simplices for s in spanned)


def is_full_subcomplex(ambient: SimplicialComplex, sub: SimplicialComplex) -> bool:
    """Does the subcomplex contain every ambient simplex spanned by its vertices, and no other?"""
    known = all(v in ambient._star for v in sub.vertices)
    return known and _is_full(ambient, sub.vertices, set(sub.simplices()))


def _disjoint_rename(taken: set[str], name: str) -> str:
    while name in taken:
        name = name + "'"
    return name


def join_spec(s1: CoxeterSpec, s2: CoxeterSpec) -> CoxeterSpec:
    """Union of two systems with every cross pair labelled 2.

    Colliding vertex names in the second factor get a deterministic prime
    suffix.
    """
    taken = set(s1.vertices)
    rename: dict[str, str] = {}
    vertices = list(s1.vertices)
    for v in s2.vertices:
        nv = _disjoint_rename(taken, v)
        rename[v] = nv
        taken.add(nv)
        vertices.append(nv)
    labels: dict[tuple[str, str], int] = {}
    for u, v, m in s1.finite_edges():
        labels[(u, v)] = m
    for u, v, m in s2.finite_edges():
        labels[(rename[u], rename[v])] = m
    for u in s1.vertices:
        for v in s2.vertices:
            labels[(u, rename[v])] = 2
    return CoxeterSpec(vertices, labels)


def join2(n1: Nerve, n2: Nerve) -> Nerve:
    """Right-angled join: all cross pairs labelled 2.

    Simplices of the result are exactly the unions of a simplex-or-empty
    from each factor; this falls out of rebuilding the nerve since cross
    labels are 2.
    """
    return build_nerve(join_spec(n1.spec, n2.spec))


class SphereKind(enum.Enum):
    CIRCLE = "Circle"
    TWO_SPHERE = "TwoSphere"
    NEITHER = "Neither"


def recognize_sphere(complex_: SimplicialComplex) -> SphereKind:
    """Recognize combinatorial circles and 2-spheres.

    Circle: connected, pure 1-dimensional, every vertex of degree 2 (a
    single cycle).  TwoSphere: connected, pure 2-dimensional, every edge in
    exactly two triangles, every vertex link a circle, and V - E + F = 2.
    Once every edge lies in two triangles, each vertex link is a 2-regular
    graph, and it is a circle exactly when the walk round it from one
    neighbor takes as many steps as the vertex has neighbors; no link complex
    is built, and the two other corners of each star triangle are read by
    position.  Connectivity, the one check that searches the whole complex,
    runs only once the local checks pass.  The kind is held on the complex,
    so each is recognized once.
    """
    if complex_._sphere is None:
        complex_._sphere = _recognize_sphere(complex_)
    return complex_._sphere


def _recognize_sphere(complex_: SimplicialComplex) -> SphereKind:
    dim = complex_.dimension
    if dim == 1:
        degrees = [len(complex_.neighbors(v)) for v in complex_.vertices]
        circle = len(degrees) >= 3 and set(degrees) == {2} and complex_.is_connected()
        return SphereKind.CIRCLE if circle else SphereKind.NEITHER
    if dim == 2:
        V = len(complex_.vertices)
        E = len(complex_.edges)
        F = len(complex_.triangles)
        if V - E + F != 2:
            return SphereKind.NEITHER
        # The link of v: its neighbors, joined by the opposite edges of its star
        # triangles.  The edge from v to a lies in two triangles exactly when a
        # has two link neighbors; once all do, the link is 2-regular.
        for v in complex_.vertices:
            near = complex_.neighbors(v)
            opposite: dict[str, list[str]] = {}
            for s in complex_._star[v]:
                if len(s) == 3:
                    x, y, z = s
                    a, b = (y, z) if x == v else (x, z) if y == v else (x, y)
                    opposite.setdefault(a, []).append(b)
                    opposite.setdefault(b, []).append(a)
            if not near or len(opposite) != len(near) or any(len(o) != 2 for o in opposite.values()):
                return SphereKind.NEITHER
            prev, cur, steps = near[0], opposite[near[0]][0], 1
            while cur != near[0]:  # step on to the link neighbor of cur that is not prev
                prev, cur, steps = cur, opposite[cur][opposite[cur][0] == prev], steps + 1
            if steps != len(near):
                return SphereKind.NEITHER
        return SphereKind.TWO_SPHERE if complex_.is_connected() else SphereKind.NEITHER
    return SphereKind.NEITHER
