"""Coxeter matrix data model and document parsing.

A system is described by a finite ordered vertex set and a symmetric label
map on unordered vertex pairs.  Labels are integers >= 2 or infinity; the
diagonal is implicitly 1 and never stored.  A pair without a stored label
means infinity (such pairs never span an edge of the nerve, so documents
stay sparse).
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Iterable, Mapping
from itertools import chain

INFINITY = math.inf

Label = float  # an int >= 2, or INFINITY
VertexSubset = tuple[str, ...]


class SpecError(ValueError):
    """Base class for invalid Coxeter system documents or arguments."""


class MalformedDocument(SpecError):
    pass


class DuplicateVertex(SpecError):
    pass


class ConflictingLabel(SpecError):
    pass


class LabelOutOfRange(SpecError):
    pass


class UnknownVertex(SpecError):
    pass


def _pair(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u < v else (v, u)


class CoxeterSpec:
    """Immutable Coxeter system: ordered vertices plus finite edge labels.

    Only finite labels are stored; ``label(u, v)`` returns ``INFINITY`` for
    any unstored pair and 1 on the diagonal.  Vertex identifiers are opaque
    strings; lexicographic order on them is the canonical order used for
    subsets, components and serialization.  The constructor and parse_spec
    share one validator (_fill): the constructor takes a label as an integer
    >= 2, INFINITY or "inf", a document only as an int >= 2 or "inf" (so
    no float; one that overflows to infinity has its own message), and both reject
    conflicting pairs such as 2 against INFINITY with the same first error.  Vertex
    membership reads the commuting map's keys; the hash is computed on demand.
    """

    __slots__ = ("vertices", "_labels", "_commuting", "_nerve", "__weakref__")

    def __init__(self, vertices: Iterable[str], labels: Mapping[tuple[str, str], int] | None = None):
        self._fill(tuple(vertices), (labels or {}).items())

    def _fill(self, vertices: tuple[str, ...], edges: Iterable, records: bool = False) -> None:
        """Validate the vertices and the edges in one loop, then store them.

        An edge is a ((u, v), m) label item, or with ``records`` a document's
        {u, v, m} record, whose shape is checked just before its label, so
        faults come out in record order.  A plain dict record skips the
        abstract Mapping test; any other record type still takes it.  The
        commuting sets are filled as each edge passes.  Edges that arrive in
        strictly increasing canonical (u, v) order, as every document
        to_document writes does, are already the sorted label map, so
        ``given`` is kept as it is; one tuple comparison per edge tells.  Any
        other order, a repeated pair or an "inf" label is sorted.
        """
        for v in vertices:
            if not isinstance(v, str):
                raise MalformedDocument(f"vertex {v!r} is not a string")
        vertex_set = frozenset(vertices)
        given: dict[tuple[str, str], Label] = {}  # INFINITY is kept until the end, for conflicts
        commuting: dict[str, set[str]] = {v: set() for v in vertices}
        infinite = False
        ordered, last = True, ()  # () sorts before every pair
        for rec in edges:
            if not records:
                (u, v), m = rec
            else:
                shaped = type(rec) is dict or isinstance(rec, Mapping)
                if not shaped or "u" not in rec or "v" not in rec or "m" not in rec:
                    raise MalformedDocument(f"edge record {rec!r} must have fields u, v, m")
                u, v, m = rec["u"], rec["v"], rec["m"]
                if not isinstance(u, str) or not isinstance(v, str):
                    raise MalformedDocument(f"edge endpoints {u!r}, {v!r} must be vertex strings")
            if u == v:
                raise MalformedDocument(f"edge ({u!r}, {v!r}) is a self-loop")
            if u not in vertex_set or v not in vertex_set:
                raise UnknownVertex(f"edge ({u!r}, {v!r}) mentions a non-vertex")
            if type(m) is not int:  # a plain int needs only its bound
                if m == "inf":  # the document spelling, accepted by both entry points
                    m = INFINITY
                elif records and m == INFINITY:  # json.loads reads 1e400 and Infinity as this float
                    raise LabelOutOfRange(
                        f"label m({u},{v}) is an infinite JSON number, not an integer;"
                        " an infinite label is written 'inf'"
                    )
                elif records or m != INFINITY and (not isinstance(m, int) or isinstance(m, bool)):
                    raise LabelOutOfRange(f"label m({u},{v}) = {m!r} is neither an integer nor 'inf'")
                infinite = infinite or m == INFINITY
            if m < 2:  # never true of INFINITY
                raise LabelOutOfRange(f"label m({u},{v}) = {m} is below 2")
            key = (u, v) if u < v else (v, u)
            if given.setdefault(key, m) != m:  # INFINITY prints as inf
                raise ConflictingLabel(f"edge {key} listed with labels {given[key]} and {m}")
            if ordered:
                ordered, last = last < key, key
            if m == 2:
                commuting[u].add(v)
                commuting[v].add(u)
        # Empty and repeated names come after any label fault, as parse_spec always had; the
        # scan for the first one runs only when there is one.
        if len(vertex_set) < len(vertices) or "" in vertex_set:
            seen = set()
            for v in vertices:
                if not v:
                    raise MalformedDocument(f"vertex identifier must be a non-empty string, got {v!r}")
                if v in seen:
                    raise DuplicateVertex(f"duplicate vertex {v!r}")
                seen.add(v)
        self.vertices = vertices
        if infinite:
            self._labels = {key: given[key] for key in sorted(given) if given[key] != INFINITY}
        elif ordered:
            self._labels = given
        else:
            self._labels = {key: given[key] for key in sorted(given)}
        self._commuting = commuting
        self._nerve = None  # a weak reference to the nerve built last, set by build_nerve

    @classmethod
    def _trusted(cls, vertices: tuple[str, ...], labels: dict, commuting: dict[str, set[str]]) -> CoxeterSpec:
        """A system from parts already checked: distinct vertices, labels sorted by pair, commuting sets."""
        spec = object.__new__(cls)
        spec.vertices, spec._labels, spec._commuting, spec._nerve = vertices, labels, commuting, None
        return spec

    def _restrict(self, vertices: tuple[str, ...], keep: set[str], pairs) -> CoxeterSpec:
        """The subsystem on keep (listed as vertices) with its sorted pairs, filtered, not validated.

        Commuting sets are never mutated once built, so one inside keep is
        shared with this system, not copied.
        """
        labels = {p: self._labels[p] for p in pairs}
        commuting = {}
        for v in vertices:
            near = self._commuting[v]
            commuting[v] = near if keep.issuperset(near) else near & keep
        return self._trusted(vertices, labels, commuting)

    def _coned(self, apexes: Mapping[str, Iterable[str]]) -> CoxeterSpec:
        """This system plus fresh apexes, each commuting with its listed vertices only; not validated."""
        labels = dict(self._labels)
        commuting = {v: set(near) for v, near in self._commuting.items()}
        for apex, face in apexes.items():
            commuting[apex] = set(face)
            for u in face:
                labels[_pair(apex, u)] = 2
                commuting[u].add(apex)
        return self._trusted((*self.vertices, *apexes), dict(sorted(labels.items())), commuting)

    def label(self, u: str, v: str) -> Label:
        if u not in self._commuting or v not in self._commuting:
            raise UnknownVertex(f"({u!r}, {v!r}) is not a vertex pair of this system")
        if u == v:
            return 1
        return self._labels.get(_pair(u, v), INFINITY)

    def finite_edges(self) -> list[tuple[str, str, int]]:
        """All pairs with a finite label, sorted by (u, v)."""
        return [(u, v, m) for (u, v), m in self._labels.items()]

    def commuting(self, v: str) -> set[str]:
        """The vertices whose label with v is 2 (not to be mutated)."""
        return self._commuting[v]

    def check_subset(self, subset: Iterable[str]) -> VertexSubset:
        """Canonicalize a vertex subset (sorted, deduplicated), validating membership.

        A str or bytes is refused, not read as a collection of one-letter
        names.  A subset that repeats no name sorts the sequence it was given,
        so a presorted one, such as a result of this method, sorts in one
        linear pass; only one with a repeat sorts its set.
        """
        if isinstance(subset, (str, bytes)):
            raise ValueError(f"a vertex subset is a collection of names, not the string {subset!r}")
        given = tuple(subset)
        members = set(given)
        if not self._commuting.keys() >= members:
            unknown = min(members - self._commuting.keys())  # the least one
            raise UnknownVertex(f"{unknown!r} is not a vertex of this system")
        return tuple(sorted(given if len(members) == len(given) else members))

    def __len__(self) -> int:
        return len(self.vertices)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoxeterSpec):
            return NotImplemented
        return self.vertices == other.vertices and self._labels == other._labels

    def __hash__(self) -> int:
        return hash((self.vertices, tuple(self._labels.items())))

    def __repr__(self) -> str:
        return f"CoxeterSpec({len(self.vertices)} vertices, {len(self._labels)} finite labels)"

    def to_document(self) -> dict:
        """Serializable document; inverse of parse_spec, vertex order preserved."""
        return {
            "vertices": list(self.vertices),
            "edges": [{"u": u, "v": v, "m": m} for u, v, m in self.finite_edges()],
        }


def parse_spec(document) -> CoxeterSpec:
    """Parse a system document (a mapping, or JSON text) into a CoxeterSpec.

    The document has two fields: ``vertices``, a list of strings, and
    ``edges``, a list of ``{"u":, "v":, "m":}`` records where ``m`` is an
    integer >= 2 or the string ``"inf"``.  An ``"inf"`` edge is equivalent
    to omitting the pair.  Only the document's shape is checked here; each
    record goes to the validator of CoxeterSpec, whose one loop checks its
    shape and then its label, so every label is checked once and faults are
    reported in record order.  Undecodable bytes are malformed JSON like
    any other fault of the text.
    """
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise MalformedDocument(f"not valid JSON: {exc}") from exc
    if not isinstance(document, Mapping):
        raise MalformedDocument("document must be a JSON object")
    if "vertices" not in document:
        raise MalformedDocument("document lacks a 'vertices' field")
    vertices = document["vertices"]
    if not isinstance(vertices, list):
        raise MalformedDocument("'vertices' must be a list of strings")
    edges = document.get("edges", [])
    if not isinstance(edges, list):
        raise MalformedDocument("'edges' must be a list of {u, v, m} records")
    spec = CoxeterSpec.__new__(CoxeterSpec)
    spec._fill(tuple(vertices), edges, records=True)
    return spec


def components(
    vertices: Iterable[str], adjacent: Callable[[str], Iterable[str]], *, complement: bool = False
) -> list[VertexSubset]:
    """Connected components of a graph given by its neighbor function, or of its complement.

    Breadth-first search over the unvisited vertices; with ``complement`` the neighbors of u
    are those outside ``adjacent(u)``, so both cases run in O(V + E).  Components are sorted
    tuples, listed by least vertex.  The input is sorted once, as the sequence given, so a
    presorted input sorts in one linear pass (a repeated vertex is skipped as visited); a
    component that covers an input with no repeat is that sorted tuple, and only smaller
    components are sorted again.  The plain
    search takes one breadth-first level per step: the unvisited neighbors of the whole
    frontier, two sets per level rather than per vertex.  The complement step keeps a
    per-vertex queue; removing from a set does not shrink its table, and that step walks the
    whole table, so there a fresh, smaller set replaces it.
    """
    order = sorted(vertices)
    remaining = set(order)
    comps = []
    for start in order:
        if start not in remaining:
            continue
        remaining.discard(start)
        comp = [start]
        if complement:
            for u in comp:  # comp grows while it is scanned: a breadth-first queue
                found = remaining.difference(adjacent(u))
                if found:
                    remaining = remaining.difference(found)
                comp += found
                if not remaining:  # the rest of the queue can find nothing
                    break
        else:
            frontier = comp
            while frontier and remaining:
                frontier = remaining.intersection(chain.from_iterable(map(adjacent, frontier)))
                remaining -= frontier
                comp += frontier
        if len(comp) == len(order):
            return [tuple(order)]
        comps.append(tuple(sorted(comp)))
    return comps
