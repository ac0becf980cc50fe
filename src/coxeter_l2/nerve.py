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
import collections
import enum
import itertools
import weakref
from typing import Iterable, Mapping, NamedTuple

from coxeter_l2.model import INFINITY, CoxeterSpec, VertexSubset, components
from coxeter_l2.spherical import _match_component

Simplex = tuple[str, ...]

_SIMPLEX_CAP = 10 ** 6  # build_nerve and SimplicialComplex refuse a complex with more simplices than this


class CapExceeded(RuntimeError):
    """Enumeration grew past its configured cap."""


class SimplicialComplex:
    """Abstract simplicial complex: a vertex tuple plus simplices by dimension.

    A complex lists each of its vertices once and is closed under faces:
    __init__ refuses a repeated vertex, or a simplex on a vertex it does not
    list, with a ValueError that names the vertex, and adds every face of
    each given simplex and the 0-simplex of each vertex, so level 0 and the
    vertex tuple agree.  A simplex is a vertex set: a name it repeats counts
    once.  The closure counts toward _SIMPLEX_CAP, checked before the faces
    of each simplex are built.

    Simplices are stored as sorted vertex tuples, each dimension's level
    listed in lexicographic order, so iteration is deterministic, equality
    and hashing read the levels, and has_simplex bisects them.  Besides the
    levels a complex holds one map, the neighbor tuples (its 1-skeleton
    adjacency, each sorted), so neighbors and connectivity cost time
    proportional to the edges they touch.  Every constructor hands _index
    the levels and the neighbor map: __init__, the one constructor that
    takes unsorted simplices, sorts them and reads the neighbors off the
    edge level; a full subcomplex is a view (_view) that filters each
    ambient level in order and shares the neighbor tuple of each closed
    vertex, one whose neighbors are all kept; and build_nerve fills a
    nerve's levels and neighbors as it enumerates.  A level or neighbor
    tuple is never mutated once its complex is built, so views may share
    them.  The view is the one restriction to a vertex subset:
    is_full_subcomplex compares a subcomplex with the view on its vertices.
    """

    def __init__(self, vertices: Iterable[str], simplices: Iterable[Simplex]):
        vertices = tuple(vertices)
        listed = set(vertices)
        if len(listed) < len(vertices):
            repeated = next(v for v, n in collections.Counter(vertices).items() if n > 1)
            raise ValueError(f"vertex {repeated!r} is listed twice")
        given = set()
        for s in simplices:
            s = tuple(sorted(set(s)))
            if not listed.issuperset(s):
                raise ValueError(f"simplex {s} names {min(set(s) - listed)!r}, which is not a listed vertex")
            given.add(s)
        # Largest first, so a face of a simplex already closed adds nothing.  Both bounds
        # are lower bounds on the closure's size, so neither refuses a complex under the cap.
        closed = {(v,) for v in vertices}
        for s in sorted(given, key=len, reverse=True):
            if s not in closed:  # its 0-simplices are there already
                if max(len(closed), 2 ** len(s) - 1) > _SIMPLEX_CAP:
                    raise CapExceeded(f"complex exceeds {_SIMPLEX_CAP} simplices")
                closed.update(f for k in range(2, len(s) + 1) for f in itertools.combinations(s, k))
        if len(closed) > _SIMPLEX_CAP:
            raise CapExceeded(f"complex exceeds {_SIMPLEX_CAP} simplices")
        ordered = sorted(closed, key=lambda s: (len(s), s))
        by_dim = {n - 1: tuple(level) for n, level in itertools.groupby(ordered, len)}
        near: dict[str, list[str]] = {v: [] for v in vertices}
        for u, w in by_dim.get(1, ()):  # lexicographic, so each neighbor list comes out sorted
            near[u].append(w)
            near[w].append(u)
        self._index(vertices, by_dim, {v: tuple(ns) for v, ns in near.items()})

    @classmethod
    def _presorted(cls, vertices: tuple[str, ...], by_dim: dict, neighbors: dict):
        """The private constructor: simplices distinct, sorted, lexicographic per dimension and closed under faces."""
        complex_ = cls.__new__(cls)
        complex_._index(vertices, by_dim, neighbors)
        return complex_

    def _index(self, vertices, by_dim, neighbors) -> None:
        """Store the levels and the given neighbor map."""
        self.vertices: tuple[str, ...] = vertices
        self._by_dim: dict[int, tuple[Simplex, ...]] = by_dim
        self._neighbors: dict[str, tuple[str, ...]] = neighbors
        self._sphere = self._components = None  # held by recognize_sphere and skeleton_components

    def _view(self, vertices: tuple[str, ...], cls: type | None = None):
        """The full subcomplex on some vertices, its levels and neighbors filtered in order from the ambient.

        A closed vertex, one whose neighbors are all kept, shares its
        neighbor tuple; the levels are filtered by _filtered.
        """
        keep = set(vertices)
        neighbors = {}
        for v in vertices:
            near = self._neighbors[v]
            neighbors[v] = near if keep.issuperset(near) else tuple(filter(keep.__contains__, near))
        return self._filtered(vertices, keep, neighbors, cls or SimplicialComplex)

    def _filtered(self, vertices: tuple[str, ...], keep: set[str], neighbors: dict, cls: type):
        """The cls complex on vertices (the set keep) with the given neighbor map, each ambient level filtered in order.

        Filtering keeps each level lexicographic, so nothing is sorted again,
        and keeps the result closed under faces.  Each level is tested once,
        into a mask; a nerve (cls Nerve) filters the ambient's orders of
        that level by the same mask.
        """
        by_dim, masks = {}, {}
        for d, level in self._by_dim.items():
            mask = list(map(keep.issuperset, level))
            kept = tuple(itertools.compress(level, mask))
            if kept:
                by_dim[d], masks[d] = kept, mask
        sub = cls._presorted(vertices, by_dim, neighbors)
        if isinstance(sub, Nerve):
            sub._orders = {d: tuple(itertools.compress(self._orders[d], mask)) for d, mask in masks.items()}
        return sub

    @property
    def dimension(self) -> int:
        """Max simplex dimension; -1 for the empty complex."""
        return max(self._by_dim) if self._by_dim else -1

    def simplices(self, dim: int | None = None) -> tuple[Simplex, ...]:
        if dim is not None:
            return self._by_dim.get(dim, ())
        return tuple(s for group in self._by_dim.values() for s in group)  # dimensions ascend

    def _find(self, s: Simplex) -> int:
        """The index of a sorted tuple in the level of its dimension, bisected; -1 if it is no simplex."""
        level = self._by_dim.get(len(s) - 1, ())
        i = bisect.bisect_left(level, s)
        return i if i < len(level) and level[i] == s else -1

    def has_simplex(self, s: Iterable[str]) -> bool:
        """Is s a nonempty simplex?"""
        return self._find(tuple(sorted(s))) >= 0

    @property
    def edges(self) -> tuple[Simplex, ...]:
        return self._by_dim.get(1, ())

    @property
    def triangles(self) -> tuple[Simplex, ...]:
        return self._by_dim.get(2, ())

    def neighbors(self, v: str) -> tuple[str, ...]:
        return self._neighbors.get(v, ())

    def is_connected(self) -> bool:
        """Connectivity of the 1-skeleton (one vertex, or none, is connected)."""
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
    """The nerve of a Coxeter system, with subgroup orders per simplex.

    The orders are one tuple of ints per level, aligned index for index
    with it: _orders[d][i] is the order of _by_dim[d][i].  No map is keyed
    by simplex.
    """

    _chi = None  # held on the object by invariants.chi_orb

    @classmethod
    def _assembled(cls, spec: CoxeterSpec, by_dim: dict, orders: dict, neighbors: dict) -> "Nerve":
        """The nerve build_nerve enumerated, with its orders and neighbors; the spec holds it weakly."""
        nerve = cls._presorted(spec.vertices, by_dim, neighbors)
        nerve.spec, nerve._orders = spec, orders
        spec._nerve = weakref.ref(nerve)
        return nerve

    def order(self, simplex: Iterable[str]) -> int:
        """|W_T| for a simplex T, found as has_simplex finds it, else KeyError; the empty simplex has order 1."""
        s = tuple(sorted(simplex))
        if not s:
            return 1
        i = self._find(s)
        if i < 0:
            raise KeyError(s)
        return self._orders[len(s) - 1][i]

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

    __hash__ = SimplicialComplex.__hash__  # a nerve may equal a plain complex, so both hash the same fields


class NotSpherical(ValueError):
    """The rotation system does not describe an embedding in the 2-sphere."""


class RotationSystem:
    """Cyclic neighbor orders at each vertex, the witness of an embedding.

    It keeps one successor map, (v, u) -> w where w follows u at v: its keys
    are the declared directed edges, and it is what the face tracer walks.
    """

    def __init__(self, rotations: Mapping[str, Iterable[str]]):
        self._rot = {v: tuple(ns) for v, ns in rotations.items()}
        for v, ns in self._rot.items():
            if len(set(ns)) != len(ns) or v in ns:
                raise ValueError(f"rotation at {v!r} must list distinct neighbors, not {ns}")
        self._next = {(v, u): w for v, ns in self._rot.items() for u, w in zip(ns, ns[1:] + ns[:1])}

    def check_against(self, skeleton: SimplicialComplex) -> None:
        """Require the rotations to cover exactly the skeleton's edge set."""
        if set(self._rot) != set(skeleton.vertices):
            raise ValueError("rotation system must list every vertex exactly once")
        if self._next.keys() != {(v, u) for v in skeleton.vertices for u in skeleton.neighbors(v)}:
            raise ValueError("rotations do not match the edge set of the complex")

    @classmethod
    def from_document(cls, document: Mapping) -> "RotationSystem":
        if not isinstance(document, Mapping) or not all(isinstance(ns, (list, tuple)) for ns in document.values()):
            raise ValueError("rotation document must map vertex -> cyclic neighbor list")
        for v, ns in document.items():
            for name in (v, *ns):  # names are strings, as in a system document
                if not isinstance(name, str):
                    raise ValueError(f"rotation at {v!r} names {name!r}, which is not a vertex string")
        return cls(document)


Walk = tuple[tuple[str, str], ...]


def _traced_faces(complex_: SimplicialComplex, rot: RotationSystem, triangles: Iterable[Simplex]):
    """Yield (component, its face walks) per component of the 1-skeleton, least vertex first.

    The walks follow the rotation's successor map: from the directed edge
    (u, v) a walk continues along (v, w) where w follows u at v.  They
    partition the directed edges, and each is filed under the component of
    its first vertex, as is each given 2-simplex under that of its least
    vertex.  Every walk starts at the least key of the map not yet used,
    which is the least edge of its walk, so walks come out rotated to their
    minimum and in sorted order.  A lone vertex bounds one region, the
    empty walk.  Each component is yielded once it has V - E + F = 2 and
    each of its 2-simplices is a triangular face, so the first component
    that fails raises NotSpherical before any later one is looked at.
    """
    rot.check_against(complex_)
    comps = complex_.skeleton_components()
    where = {v: i for i, comp in enumerate(comps) for v in comp}
    walks: list[list[Walk]] = [[] for _ in comps]
    spanned: list[list[Simplex]] = [[] for _ in comps]
    for t in triangles:
        spanned[where[t[0]]].append(t)
    succ, used = rot._next, set()
    for start in sorted(succ):
        walk, cur = [], start
        while cur not in used:  # the walk is a cycle of the successor permutation
            walk.append(cur)
            used.add(cur)
            u, v = cur
            cur = (v, succ[v, u])
        if walk:
            walks[where[start[0]]].append(tuple(walk))
    for comp, faces, simplices in zip(comps, walks, spanned):
        faces = tuple(faces) or ((),)
        V, E, F = len(comp), sum(map(len, faces)) // 2, len(faces)
        if V - E + F != 2:
            raise NotSpherical(f"V - E + F = {V} - {E} + {F} != 2: rotation has positive genus")
        # A 3-walk has three distinct vertices (there are no loops), so it bounds a triangle.
        faced = {frozenset(u for u, _ in face) for face in faces if len(face) == 3} if simplices else ()
        for t in simplices:  # lexicographic, so the least missing one is named
            if frozenset(t) not in faced:
                raise NotSpherical(f"2-simplex {t} is not a face of the embedding")
        yield comp, faces


def validate_embedding(
    complex_: SimplicialComplex, rot: RotationSystem | Mapping
) -> list[tuple[tuple[str, ...], tuple[Walk, ...]]]:
    """Check that a rotation system embeds a complex of dim <= 2 in the sphere.

    This is the one face-tracing entry point; a 1-skeleton has no 2-simplices
    to check, so on it this is the bare trace.  Each connected component is
    traced separately (disjoint pieces embed in disjoint disks), and the
    tracer checks that every 2-simplex is among its component's triangular
    faces.  Returns each component with its face walks.
    """
    if not isinstance(rot, RotationSystem):
        rot = RotationSystem.from_document(rot)
    if complex_.dimension > 2:
        raise ValueError("embedding witnesses only apply to complexes of dimension <= 2")
    return list(_traced_faces(complex_, rot, complex_.triangles))


class SubcomplexWitness(NamedTuple):
    """Record that a vertex set spans a full subcomplex of an ambient nerve.

    The subcomplex is always full: it is the induced nerve on vertex_set.
    """

    ambient: Nerve
    vertex_set: VertexSubset
    right_angled_complement: bool
    notes: tuple[str, ...] = ()


def build_nerve(spec: CoxeterSpec) -> Nerve:
    """Enumerate all nonempty spherical subsets by incremental clique extension.

    The edges are the sorted finite labels themselves: m spans I2(m), of
    order 2m (A1 x A1 when m = 2), so no edge is classified.  Each larger
    spherical set s + w grows s by a common finite neighbor w above its
    maximum; since subsets of spherical sets are spherical, this pruning is
    exhaustive.  An edge's such neighbors are the intersection of the sets
    of finite neighbors above its two ends.  Each frontier set carries its
    order and its diagram components with their orders, so s + w is
    classified with one set test when w commutes with all of s (w is a
    component of its own, and the order doubles), and otherwise by
    matching one component: w merged with the components of s it does not
    commute with (w with one vertex v is I2(m(v, w)), of order 2m).  Only
    the order of the matcher's (kind, rank, order, m) fields is kept.
    Simplices come out in canonical order, so each level is lexicographic
    as it is made, its orders are appended alongside, and the sorted labels
    list each vertex's neighbors in order: the nerve is indexed as it is
    enumerated.  Raises CapExceeded past _SIMPLEX_CAP simplices, counted
    as they are made.

    The spec keeps a weak reference to the nerve built last, so while a
    caller holds that nerve, building it again (as certify_nonplanar does)
    returns it as it is: it was built under the same cap.
    """
    held = spec._nerve and spec._nerve()
    if held is not None:
        return held
    labels = spec._labels
    lower: dict[str, list[str]] = {v: [] for v in spec.vertices}
    upper: dict[str, list[str]] = {v: [] for v in spec.vertices}
    for e in labels:  # sorted pairs, so each vertex meets its lower and its upper neighbors in order
        u, w = e
        upper[u].append(w)
        lower[w].append(u)
    vertices = sorted(spec.vertices)
    levels = [  # (simplices, their orders) per dimension
        (tuple([(v,) for v in vertices]), (2,) * len(vertices)),
        (tuple(labels), tuple([2 * m for m in labels.values()])),
    ]
    count = len(vertices) + len(labels)
    if count > _SIMPLEX_CAP:
        raise CapExceeded(f"nerve exceeds {_SIMPLEX_CAP} simplices")

    # A frontier entry: a simplex with candidates, its common finite neighbors
    # above its maximum (sorted), its diagram components as (vertices, order),
    # and its order, their product.
    # An edge's candidates are the intersection of its ends' sets of finite
    # neighbors above them.  The intersection walks the smaller set, so a pole
    # that sorts before its d neighbors costs O(d), not d^2 / 2, over its edges.
    # Past the edges, a candidate x after w exceeds it, so (w, x) is finite when
    # it is labelled.
    above = {v: set(up) for v, up in upper.items() if up}
    frontier = []
    for u in vertices:
        up = upper[u]
        if len(up) < 2:  # a vertex with fewer than two upper neighbors starts no triangle
            continue
        mine = above[u]
        for w in up:
            common = mine.intersection(above.get(w, ()))
            if common:
                candidates = sorted(common)
                m = labels[(u, w)]
                comps = (((u,), 2), ((w,), 2)) if m == 2 else (((u, w), 2 * m),)
                frontier.append(((u, w), candidates, comps, 2 * m))
    while frontier:
        level, orders, nxt = [], [], []
        for s, candidates, comps, order in frontier:
            last = len(candidates) - 1
            for i, w in enumerate(candidates):
                commuting = spec.commuting(w)
                if commuting.issuperset(s):  # every component is kept, and w is one of its own
                    kept, kept_order, comp = comps, order, ((w,), 2)
                else:
                    merged, kept, kept_order = [w], [], 1
                    for comp in comps:
                        if commuting.issuperset(comp[0]):
                            kept.append(comp)
                            kept_order *= comp[1]
                        else:
                            merged += comp[0]
                    if len(merged) == 2:  # I2(m): the other vertex sorts before w, and their label is finite
                        key = (merged[1], w)
                        comp = (key, 2 * labels[key])
                    else:
                        key = tuple(sorted(merged))
                        match = _match_component(spec, key)
                        if match is None:
                            continue
                        comp = (key, match[2])
                t = s + (w,)
                count += 1
                if count > _SIMPLEX_CAP:
                    raise CapExceeded(f"nerve exceeds {_SIMPLEX_CAP} simplices")
                level.append(t)
                orders.append(kept_order * comp[1])
                if i < last:
                    rest = [x for x in candidates[i + 1:] if (w, x) in labels]
                    if rest:
                        nxt.append((t, rest, (*kept, comp), orders[-1]))
        levels.append((tuple(level), tuple(orders)))
        frontier = nxt
    by_dim = {d: level for d, (level, _) in enumerate(levels) if level}  # an empty level has none above it
    neighbors = {v: (*lower[v], *upper[v]) for v in spec.vertices}
    return Nerve._assembled(spec, by_dim, {d: levels[d][1] for d in by_dim}, neighbors)


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


def _right_angled_outside(nerve: Nerve, keep: set[str]) -> bool:
    """Does each vertex outside keep have only commuting neighbors, so its complement is right-angled?

    Every finite label is an edge of the nerve, so a vertex's commuting
    labels are all of its edges exactly when they are as many.
    """
    return all(len(nerve.spec.commuting(u)) == len(nerve.neighbors(u)) for u in nerve.vertices if u not in keep)


def _witness(nerve: Nerve, A: VertexSubset) -> SubcomplexWitness:
    """The fullness witness of a checked, sorted subset, read from the neighbors outside it.

    The complement is right-angled when each vertex outside A has only
    commuting neighbors; infinite pairs are not edges, so a straddling one
    does not disqualify and is only noted.  Straddling infinite pairs are
    counted in closed form (all pairs not inside A, minus the edges at
    vertices outside A), and only the first four, or all when fewer, are
    enumerated for the note.
    """
    keep = set(A)
    near = {u: nerve.neighbors(u) for u in set(nerve.vertices) - keep}
    edges = sum(map(len, near.values())) - sum(len(near.keys() & ns) for ns in near.values()) // 2
    n, a = len(nerve.vertices), len(A)
    count = n * (n - 1) // 2 - a * (a - 1) // 2 - edges
    notes = ()
    if count:
        pairs = itertools.islice(_straddling_pairs(nerve.spec, keep), min(count, 4))
        shown = ", ".join(f"({u},{v})" for u, v in pairs)
        more = "" if count <= 4 else f" and {count - 4} more"
        notes = (
            f"{count} infinite-label pair(s) not contained in the "
            f"subcomplex: {shown}{more} (permitted: infinite pairs are not edges)",
        )
    return SubcomplexWitness(nerve, A, _right_angled_outside(nerve, keep), notes)


def induced_nerve(nerve: Nerve, subset) -> Nerve:
    """The nerve of the induced subsystem, filtered from the ambient nerve.

    Sphericity depends only on the induced labels, so the ambient simplices
    and orders inside the subset are exactly those of
    build_nerve(induced_subspec(nerve.spec, subset)); nothing is classified
    again.  The result is a view of the ambient: each level and its orders
    are filtered in order by one mask, closed vertices share their neighbor
    tuples and the others' are filtered.  Every finite label is an edge of
    the nerve, so the restricted spec takes its labels from the kept edges.
    """
    keep = set(nerve.spec.check_subset(subset))
    vertices = tuple(v for v in nerve.vertices if v in keep)
    sub = nerve._view(vertices, Nerve)
    sub.spec = nerve.spec._restrict(vertices, keep, sub.edges)
    return sub


def _component_nerve(nerve: Nerve, comp: VertexSubset) -> Nerve:
    """induced_nerve on a component of the nerve's 1-skeleton, sharing the nerve's maps.

    A skeleton component is closed under adjacency, and each commuting pair
    is an edge, so every kept vertex keeps its whole neighbor tuple and
    commuting set: both are the nerve's own, not filtered copies.  The
    component needs no check_subset, the labels are read off the kept edge
    level, and the component is held as the result's one skeleton component.
    """
    keep = set(comp)
    vertices = tuple(filter(keep.__contains__, nerve.vertices))
    sub = nerve._filtered(vertices, keep, {v: nerve._neighbors[v] for v in vertices}, Nerve)
    spec, labels = nerve.spec, nerve.spec._labels
    commuting = {v: spec.commuting(v) for v in vertices}
    sub.spec = CoxeterSpec._trusted(vertices, {e: labels[e] for e in sub.edges}, commuting)
    sub._components = (comp,)
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
    """The link of a vertex: all simplices T with v not in T and T + {v} a simplex.

    The simplices containing v are found by scanning the levels.
    """
    if v not in complex_._neighbors:
        raise KeyError(f"{v!r} is not a vertex")
    star = [s for level in complex_._by_dim.values() for s in level if v in s]
    return SimplicialComplex(complex_.neighbors(v), [tuple(x for x in s if x != v) for s in star if len(s) > 1])


def is_full_subcomplex(ambient: SimplicialComplex, sub: SimplicialComplex) -> bool:
    """Does the subcomplex contain every ambient simplex spanned by its vertices, and no other?

    It is full exactly when it equals the ambient's view on its vertex tuple:
    _view is the one restriction of a complex to a vertex subset.
    """
    known = all(v in ambient._neighbors for v in sub.vertices)
    return known and ambient._view(sub.vertices) == sub


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
    No link complex is built: one pass over the triangle level maps each
    edge of a triangle to the triangle's third corner.  An edge lies in two
    triangles exactly when it has two entries, and once every edge does
    (the map's keys are edges, since a complex is closed under faces), the
    link of v is the 2-regular graph on its neighbors where a is joined to
    the entries of the edge va.  It is a circle exactly when the walk round
    it from one neighbor takes as many steps as v has neighbors.  Connectivity, the one check that searches
    the whole complex, runs only once the local checks pass.  The kind is
    held on the complex, so each is recognized once.
    """
    if complex_._sphere is None:
        complex_._sphere = _recognize_sphere(complex_)
    return complex_._sphere


def _recognize_sphere(complex_: SimplicialComplex) -> SphereKind:
    dim = complex_.dimension
    neighbors = complex_._neighbors  # keyed by the vertices
    if dim == 1:
        degrees = list(map(len, neighbors.values()))
        circle = len(degrees) >= 3 and set(degrees) == {2} and complex_.is_connected()
        return SphereKind.CIRCLE if circle else SphereKind.NEITHER
    if dim == 2:
        V = len(complex_.vertices)
        E = len(complex_.edges)
        F = len(complex_.triangles)
        if V - E + F != 2:
            return SphereKind.NEITHER
        opposite: dict[Simplex, list[str]] = collections.defaultdict(list)
        for x, y, z in complex_.triangles:
            opposite[x, y].append(z)
            opposite[x, z].append(y)
            opposite[y, z].append(x)
        # The keys, edges of triangles, are all E edges, and each has two entries.
        if len(opposite) != E or any(len(ends) != 2 for ends in opposite.values()):
            return SphereKind.NEITHER
        for v, near in neighbors.items():
            if not near:
                return SphereKind.NEITHER
            start = near[0]
            prev, cur, steps = start, opposite[(v, start) if v < start else (start, v)][0], 1
            while cur != start:  # step on to the link neighbor of cur that is not prev
                ends = opposite[(v, cur) if v < cur else (cur, v)]
                prev, cur, steps = cur, ends[ends[0] == prev], steps + 1
            if steps != len(near):
                return SphereKind.NEITHER
        return SphereKind.TWO_SPHERE if complex_.is_connected() else SphereKind.NEITHER
    return SphereKind.NEITHER
