"""Workloads of the coxl2 benchmark: seeded inputs, query recipes and expected answers.

A workload is a fixed batch of queries made from the seed.  Batch k of a
run asks the same queries about the same systems under a fresh seeded
vertex renaming, so no system repeats within one process while every batch
does the same work.  The library sees only the JSON documents built here.
Each query states the answers it must give; answers that a renaming cannot
change are also compared across batches by the runner.

The seed chooses structure (random graphs, labels, subsets, renamings) but
never the shape of a batch: sizes, the planted share and the rotation-search
sizes are fixed, so the cost of a batch does not depend on the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from coxeter_l2.cli import main as cli_main
from coxeter_l2.enumeration import enumerate_order
from coxeter_l2.invariants import UNKNOWN, RuleContext, betti, chi_orb
from coxeter_l2.model import parse_spec
from coxeter_l2.nerve import build_nerve, full_subcomplex, recognize_sphere
from coxeter_l2.planarity import (
    brute_force_planar,
    certify_nonplanar,
    cone_construction,
    trace_vanishing,
    validate_embedding,
)
from coxeter_l2.spherical import classify

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

Labels = dict  # (u, v) -> finite label; absent pairs are infinite


@dataclass
class Answer:
    facts: dict  # fact name -> value, compared with Query.expect
    invariant: tuple = ()  # must agree across renamings of one system
    vertices: int = 0
    simplices: tuple = ()  # per dimension, of the query's main nerve


@dataclass
class Query:
    key: str  # names the system; the same in every batch
    run: Callable  # run(tracer) -> Answer
    expect: dict
    cold: bool = False  # start from an empty library memo, as a fresh coxl2 process does


def _document(vertices, labels: Labels, name: dict) -> str:
    """A system document with its edges in canonical (u, v) order, as CoxeterSpec.to_document writes them."""
    edges = sorted((*sorted((name[u], name[v])), m) for (u, v), m in labels.items())
    return json.dumps({
        "vertices": [name[v] for v in vertices],
        "edges": [{"u": u, "v": v, "m": m} for u, v, m in edges],
    })


def _renaming(rng: random.Random, vertices, tag: str) -> dict:
    ids = list(range(len(vertices)))
    rng.shuffle(ids)
    return {v: f"{tag}{i}" for v, i in zip(vertices, ids)}


def _batch_rng(seed: int, k: int) -> random.Random:
    return random.Random(seed * 1_000_003 + k + 1)


# Recipe steps shared by the workloads; each reports the counts its layer did.

def _parse(tr, text):
    return tr.call("model.parse_spec", parse_spec, text)


def _build(tr, spec):
    nerve = tr.call("nerve.build_nerve", build_nerve, spec)
    tr.count("nerve.simplices", sum(nerve.counts()))
    return nerve


def _betti(tr, nerve, ctx=None) -> tuple:
    vec = tr.call("invariants.betti", betti, nerve, ctx)
    entries = vec.as_tuple()
    tr.count("invariants.betti.entries", len(entries))
    tr.count("invariants.betti.unknown", sum(e is UNKNOWN for e in entries))
    return tuple("?" if e is UNKNOWN else str(e) for e in entries)


def _certify(tr, spec) -> tuple:
    cert = tr.call("planarity.certify_nonplanar", certify_nonplanar, spec)
    tr.count("planarity.certify_nonplanar.notplanar", cert.verdict == "NotPlanar")
    prefix = "witnessing component: "
    witness = next((n[len(prefix):] for n in cert.notes if n.startswith(prefix)), None)
    return cert.verdict, str(cert.bound), witness


def _cone(tr, nerve, rotation) -> tuple[int, tuple]:
    coned, _ = tr.call("planarity.cone_construction", cone_construction, nerve, rotation)
    added = len(coned.vertices) - len(nerve.vertices)
    tr.count("planarity.cone_construction.cone_vertices", added)
    return added, coned.counts()


# sphere_ladder ---------------------------------------------------------------

# (cycle length n, trace removal steps).  Every step of a trace rebuilds a
# nerve of about the ambient size, so steps shrink as n grows to keep a
# batch to a few seconds; the trace exponent is fitted per step.  The top
# rung (0 steps) skips the trace and the cone: at n = 400 those two alone
# took half of the batch, which left too few batches in a run to be steady.
SPHERE_LADDER = ((25, 12), (50, 8), (100, 4), (200, 2), (400, 0))
OCTAHEDRON_STEPS = 3
ICOSAHEDRON_STEPS = 4


def _arc(ring, start: int, length: int) -> list:
    return [ring[(start + i) % len(ring)] for i in range(length)]


def _cycle(ring) -> Labels:
    n = len(ring)
    return {(ring[i], ring[(i + 1) % n]): 2 for i in range(n)}


def _suspension(n: int):
    """Right-angled suspension of the n-cycle: vertices, labels, the cycle and a pole over it."""
    ring = [f"c{i}" for i in range(n)]
    labels = _cycle(ring) | {(pole, v): 2 for pole in ("n", "s") for v in ring}
    return ring + ["n", "s"], labels, ring, "n"


def _icosahedron():
    """Right-angled icosahedron: two pentagon rings between two poles; the upper ring and its pole."""
    upper = [f"u{i}" for i in range(5)]
    lower = [f"l{i}" for i in range(5)]
    labels = {}
    for i in range(5):
        for u, v in (
            ("t", upper[i]), ("b", lower[i]), (upper[i], upper[(i + 1) % 5]),
            (lower[i], lower[(i + 1) % 5]), (upper[i], lower[i]), (upper[i], lower[(i + 1) % 5]),
        ):
            labels[(u, v)] = 2
    return ["t", "b"] + upper + lower, labels, upper, "t"


class SphereLadder:
    """Right-angled 2-sphere nerves over a size ladder, each read by many operations."""

    def __init__(self, seed: int, ladder=SPHERE_LADDER):
        rng = random.Random(seed)
        self.seed = seed
        shapes = [(f"susp-C{n}", steps, *_suspension(n)) for n, steps in ladder]
        shapes += [
            ("octahedron", OCTAHEDRON_STEPS, *_suspension(4)),
            ("icosahedron", ICOSAHEDRON_STEPS, *_icosahedron()),
        ]
        # The subcomplex is a pole over half the cycle and the trace removes a
        # run of cycle vertices, both at seeded places on the cycle: every
        # seed gives the same shapes up to symmetry, hence the same work.
        self.systems = []
        for key, steps, vertices, labels, ring, pole in shapes:
            subset = [pole] + _arc(ring, rng.randrange(len(ring)), len(ring) // 2)
            removed = _arc(ring, rng.randrange(len(ring)), steps)
            self.systems.append((key, vertices, labels, ring, subset, removed))

    def batch(self, k: int) -> list[Query]:
        rng = _batch_rng(self.seed, k)
        out = []
        for key, vertices, labels, ring, subset, removed in self.systems:
            name = _renaming(rng, vertices, f"r{k}_")
            sphere = _document(vertices, labels, name)
            cycle = _document(ring, _cycle(ring), name)
            n = len(ring)
            rotation = {name[ring[i]]: [name[ring[i - 1]], name[ring[(i + 1) % n]]] for i in range(n)}
            target = [name[v] for v in vertices if v not in removed]
            expect = {
                "sphere": "TwoSphere",
                "chi_orb": "0",
                "betti": ("0",) * 4,
                "subcomplex_vanishes": True,
            }
            if removed:
                expect |= {"trace_steps": len(removed), "cone": (2, (n + 2, 3 * n, 2 * n))}
            else:
                target = cycle = None
            run = self._recipe(sphere, [name[v] for v in subset], target, cycle, rotation)
            out.append(Query(key, run, expect))
        return out

    @staticmethod
    def _recipe(sphere, subset, target, cycle, rotation):
        def run(tr) -> Answer:
            spec = _parse(tr, sphere)
            nerve = _build(tr, spec)
            kind = tr.call("nerve.recognize_sphere", recognize_sphere, nerve)
            chi = tr.call("invariants.chi_orb", chi_orb, nerve)
            vector = _betti(tr, nerve)
            sub, witness = tr.call("nerve.full_subcomplex", full_subcomplex, nerve, subset)
            sub_vector = _betti(tr, sub, RuleContext(witness=witness))
            facts = {
                "sphere": kind.value,
                "chi_orb": str(chi),
                "betti": vector,
                "subcomplex_vanishes": all(e == "0" for e in sub_vector[2:]),
            }
            if target is not None:
                trace = tr.call("planarity.trace_vanishing", trace_vanishing, nerve, target)
                tr.count("planarity.trace_vanishing.steps", len(trace.steps))
                facts["trace_steps"] = len(trace.steps)
                facts["cone"] = _cone(tr, _build(tr, _parse(tr, cycle)), rotation)
            return Answer(facts, (str(chi), vector, sub_vector), len(nerve.vertices), nerve.counts())
        return run


# random_sparse ---------------------------------------------------------------

SPARSE_SIZES = tuple(round(20 * 20 ** (i / 20)) for i in range(21))  # 20 .. 400, geometric
SPARSE_LABELS = (2, 3, 4, 5, 6)
# Every other system carries a planted component, alternating K5@3 and
# right-angled K3,3, with the certificate bound the paper gives for it.
PLANTED = {1: ("K5@3", "1/6"), 3: ("K3,3@2", "1/4")}
CLIQUES = (1, 1, 2, 2, 3, 3)  # sizes of the seeded cliques classified per system
SPARSE_SMALL_PIECE = 8


def _sparse_graph(rng: random.Random, n: int):
    """n vertices in two connected pieces (n - 8 and 8), average degree about 4, no K4.

    Labels are drawn from SPARSE_LABELS.  Without a K4 in the finite-label
    graph the nerve has dimension at most 2.  The fixed piece sizes make a
    certificate rebuild the same components whatever the seed.
    """
    vertices = [f"v{i}" for i in range(n)]
    adj = {v: set() for v in vertices}
    labels: Labels = {}

    def join(a, b):
        adj[a].add(b)
        adj[b].add(a)
        labels[(a, b)] = rng.choice(SPARSE_LABELS)

    for piece in (vertices[:-SPARSE_SMALL_PIECE], vertices[-SPARSE_SMALL_PIECE:]):
        for i in range(1, len(piece)):  # a random spanning tree keeps the piece connected
            join(piece[i], rng.choice(piece[:i]))
        extra = len(piece) - 1
        while extra:
            a, b = rng.sample(piece, 2)
            common = adj[a] & adj[b]
            if b not in adj[a] and not any(adj[x] & common for x in common):
                join(a, b)
                extra -= 1
    return vertices, labels, adj


def _planted(kind: str):
    if kind == "K5@3":
        vertices = [f"p{i}" for i in range(5)]
        return vertices, {(u, v): 3 for i, u in enumerate(vertices) for v in vertices[i + 1:]}
    left, right = ["p0", "p1", "p2"], ["p3", "p4", "p5"]
    return left + right, {(u, v): 2 for u in left for v in right}


def _triangle_order(p: int, q: int, r: int) -> int:
    """Order of the rank-3 Coxeter group with pair labels p, q, r; 0 when infinite."""
    excess = Fraction(1, p) + Fraction(1, q) + Fraction(1, r) - 1
    return int(4 / excess) if excess > 0 else 0


def _clique_order(labels: Labels, clique) -> int:
    """Group order of a clique of the finite-label graph, by closed form (rank <= 3)."""
    def m(u, v):
        return labels[(u, v)] if (u, v) in labels else labels[(v, u)]
    if len(clique) == 1:
        return 2
    if len(clique) == 2:
        return 2 * m(*clique)
    a, b, c = clique
    return _triangle_order(m(a, b), m(a, c), m(b, c))


def _cliques(rng: random.Random, vertices, adj) -> list[tuple]:
    edges = sorted({tuple(sorted((u, v))) for u in vertices for v in adj[u]})
    triangles = sorted({tuple(sorted((u, v, w))) for u, v in edges for w in adj[u] & adj[v]})
    pools = {1: [(v,) for v in vertices], 2: edges, 3: triangles or edges}
    return [rng.choice(pools[size]) for size in CLIQUES]


class RandomSparse:
    """Distinct sparse random systems, each built once.

    A fixed share carries a planted non-planar component.
    """

    def __init__(self, seed: int, sizes=SPARSE_SIZES):
        rng = random.Random(seed)
        self.seed = seed
        self.systems = []
        for i, n in enumerate(sizes):
            vertices, labels, adj = _sparse_graph(rng, n)
            cliques = _cliques(rng, vertices, adj)
            orders = [_clique_order(labels, c) for c in cliques]
            planted = PLANTED.get(i % 4)
            extra, extra_labels = _planted(planted[0]) if planted else ([], {})
            self.systems.append(
                (f"sparse{i}-n{n}", vertices, labels, extra, extra_labels, cliques, orders, planted))

    def batch(self, k: int) -> list[Query]:
        rng = _batch_rng(self.seed, k)
        out = []
        for key, vertices, labels, extra, extra_labels, cliques, orders, planted in self.systems:
            # Planted vertices sort first, so the certificate reports the
            # planted component whatever the rest of the system gives.
            name = _renaming(rng, extra, f"r{k}a") | _renaming(rng, vertices, f"r{k}b")
            text = _document(extra + vertices, extra_labels | labels, name)
            subsets = [[name[v] for v in c] for c in cliques]
            expect = {"cliques": tuple((order > 0, order) for order in orders)}
            if planted:
                witness = "{" + ",".join(sorted(name[v] for v in extra)) + "}"
                expect["certificate"] = ("NotPlanar", planted[1], witness)
            out.append(Query(key, self._recipe(text, subsets), expect))
        return out

    @staticmethod
    def _recipe(text, subsets):
        def run(tr) -> Answer:
            spec = _parse(tr, text)
            nerve = _build(tr, spec)
            chi = tr.call("invariants.chi_orb", chi_orb, nerve)
            vector = _betti(tr, nerve)
            certificate = _certify(tr, spec)
            cliques = []
            for subset in subsets:
                verdict = tr.call("spherical.classify", classify, spec, subset)
                tr.count("spherical.classify.spherical", verdict.spherical)
                cliques.append((verdict.spherical, verdict.order))
            facts = {"certificate": certificate, "cliques": tuple(cliques)}
            invariant = (str(chi), vector, certificate[:2])
            return Answer(facts, invariant, len(nerve.vertices), nerve.counts())
        return run


# planar_desk -----------------------------------------------------------------

GOLDEN_TOUR = BENCH_DIR / "golden" / "tour.json"
# (vertices, edges) of the planar-by-construction graphs, E <= 1.5 V - 1.
# The oracle stops at the first planar rotation system, which the renaming
# moves around the search order; degree at most 3 keeps that search to at
# most 2^V systems.
PLANAR_SHAPES = ((5, 6), (6, 8), (7, 9), (8, 10), (8, 11), (9, 12), (10, 13), (10, 14))
PLANAR_MAX_DEGREE = 3
# (base graph, subdivided edges, extra edges): extra edges join subdivision
# vertices pairwise, so each shape has a fixed rotation-search size, which
# a non-planar graph searches to the end.
NONPLANAR_SHAPES = (("K5", 1, 0), ("K5", 2, 0), ("K3,3", 2, 1), ("K3,3", 4, 2))
DESK_LABELS = (3, 4, 5, 6)  # labels >= 3 leave no 2-simplex: the nerve is the graph itself
# Spherical subsets for the enumerator: path labels (other pairs commute) and group order.
ENUM_TYPES = (
    ("A3", (3, 3), 24), ("B3", (4, 3), 48), ("H3", (5, 3), 120), ("A1xI2(5)", (2, 5), 20),
    ("I2(6)xA1", (6, 2), 24), ("A4", (3, 3, 3), 120), ("B4", (4, 3, 3), 384),
    ("F4", (3, 4, 3), 1152), ("D4", None, 192),
)


def _planar_graph(rng: random.Random, n_vertices: int, n_edges: int):
    """A 2-connected planar graph and its oriented faces: a cycle, then ears across faces.

    An ear is a new vertex joined to two vertices of one face that are
    neither consecutive on it nor adjacent, both of degree below
    PLANAR_MAX_DEGREE.  Every face stays a simple walk of length >= 4 with
    no chord, as cone_construction requires.  A cycle of 2V - E vertices and
    E - V ears give the shape; a draw that runs out of ears starts over.
    """
    while True:
        ring = [f"g{i}" for i in range(2 * n_vertices - n_edges)]
        faces = [ring[:], ring[::-1]]
        edges = {frozenset((ring[i - 1], ring[i])) for i in range(len(ring))}
        degree = dict.fromkeys(ring, 2)
        vertices = ring[:]
        while len(vertices) < n_vertices:
            options = [
                (f, i, j) for f, face in enumerate(faces)
                for i in range(len(face)) for j in range(i + 2, len(face) - (i == 0))
                if frozenset((face[i], face[j])) not in edges
                and max(degree[face[i]], degree[face[j]]) < PLANAR_MAX_DEGREE
            ]
            if not options:
                break
            f, i, j = rng.choice(options)
            face = faces.pop(f)
            a, b, w = face[i], face[j], f"g{len(vertices)}"
            vertices.append(w)
            edges |= {frozenset((a, w)), frozenset((b, w))}
            degree[a] += 1
            degree[b] += 1
            degree[w] = 2
            faces += [face[i:j + 1] + [w], face[j:] + face[:i + 1] + [w]]
        else:
            return vertices, sorted(tuple(sorted(e)) for e in edges), faces


def _rotation(faces) -> dict:
    """The rotation system whose face walks are the given oriented faces."""
    succ: dict = {}
    for face in faces:
        k = len(face)
        for t in range(k):
            succ.setdefault(face[(t + 1) % k], {})[face[t]] = face[(t + 2) % k]
    rotation = {}
    for v, nxt in succ.items():
        order = [min(nxt)]
        while nxt[order[-1]] != order[0]:
            order.append(nxt[order[-1]])
        rotation[v] = order
    return rotation


def _nonplanar_graph(rng: random.Random, base: str, subdivided: int, extra: int):
    if base == "K5":
        vertices = [f"k{i}" for i in range(5)]
        edges = [(u, v) for i, u in enumerate(vertices) for v in vertices[i + 1:]]
    else:
        vertices = [f"k{i}" for i in range(6)]
        edges = [(u, v) for u in vertices[:3] for v in vertices[3:]]
    split = rng.sample(range(len(edges)), subdivided)
    middles = []
    for n, e in enumerate(split):
        u, v = edges[e]
        w = f"s{n}"
        vertices.append(w)
        middles.append(w)
        edges += [(u, w), (w, v)]
    edges = [e for i, e in enumerate(edges) if i not in split]
    rng.shuffle(middles)
    edges += [(middles[2 * i], middles[2 * i + 1]) for i in range(extra)]
    return vertices, edges


def _enum_system(rng: random.Random, path):
    """A spherical subset of the given type inside a desk document with two extra vertices."""
    if path is None:  # D4: a centre with three arms
        subset = ["e0", "e1", "e2", "e3"]
        labels = {(u, v): 3 if u == "e0" else 2 for i, u in enumerate(subset) for v in subset[i + 1:]}
    else:
        subset = [f"e{i}" for i in range(len(path) + 1)]
        labels = {
            (u, v): path[i] if j == i + 1 else 2
            for i, u in enumerate(subset) for j, v in enumerate(subset) if j > i
        }
    extra = ["x0", "x1"]
    for x in extra:
        for v in rng.sample(subset, 2):
            labels[(x, v)] = rng.choice(DESK_LABELS)
    return subset + extra, labels, subset


class PlanarDesk:
    """Small documents: the README coxl2 tour, planar and non-planar graphs, subgroup enumeration."""

    def __init__(self, seed: int, planar=PLANAR_SHAPES, nonplanar=NONPLANAR_SHAPES, enum=ENUM_TYPES):
        rng = random.Random(seed)
        self.seed = seed
        self.tour = json.loads(GOLDEN_TOUR.read_text())
        self.planar = []
        for n_vertices, n_edges in planar:
            vertices, edges, faces = _planar_graph(rng, n_vertices, n_edges)
            base = {e: rng.choice(DESK_LABELS) for e in edges}
            copy = {e: rng.choice(SPARSE_LABELS) for e in edges}
            self.planar.append((f"planar-{n_vertices}v{n_edges}e", vertices, base, copy, faces))
        self.nonplanar = []
        for shape in nonplanar:
            vertices, edges = _nonplanar_graph(rng, *shape)
            labels = {e: rng.choice(DESK_LABELS) for e in edges}
            self.nonplanar.append(("nonplanar-{}-s{}-x{}".format(*shape), vertices, labels))
        self.enum = []
        for kind, path, order in enum:
            self.enum.append((f"enumerate-{kind}", *_enum_system(rng, path), order))

    def batch(self, k: int) -> list[Query]:
        rng = _batch_rng(self.seed, k)
        out = []
        for i, entry in enumerate(self.tour):
            argv = [a.replace("{root}", str(ROOT)).replace("{out}", str(OUT_DIR)) for a in entry["argv"]]
            expect = {"exit": entry["exit"], "stdout": entry["stdout"].encode()}
            out.append(Query(f"tour{i}-{entry['argv'][0]}", self._tour_recipe(argv), expect, cold=True))
        for key, vertices, base, copy, faces in self.planar:
            name = _renaming(rng, vertices, f"r{k}_")
            rotation = {name[v]: [name[u] for u in ns] for v, ns in _rotation(faces).items()}
            run = self._planar_recipe(
                _document(vertices, base, name), _document(vertices, copy, name), rotation)
            expect = {
                "planar": True,
                "components": 1,
                "beta_2": "0",
                "cone_vertices": len(base) - len(vertices) + 2,
                "certified_nonplanar": False,
            }
            out.append(Query(key, run, expect))
        for key, vertices, labels in self.nonplanar:
            name = _renaming(rng, vertices, f"r{k}_")
            run = self._nonplanar_recipe(_document(vertices, labels, name))
            out.append(Query(key, run, {"planar": False}))
        for key, vertices, labels, subset, order in self.enum:
            name = _renaming(rng, vertices, f"r{k}_")
            run = self._enum_recipe(_document(vertices, labels, name), [name[v] for v in subset])
            out.append(Query(key, run, {"classify": (True, order), "enumerate": order}))
        return out

    @staticmethod
    def _tour_recipe(argv):
        def run(tr) -> Answer:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = tr.call("cli.main", cli_main, argv)
            return Answer({"exit": code, "stdout": buf.getvalue().encode()})
        return run

    @staticmethod
    def _planar_recipe(text, labelled, rotation):
        def run(tr) -> Answer:
            nerve = _build(tr, _parse(tr, text))
            planar = tr.call("planarity.brute_force_planar", brute_force_planar, nerve)
            components = tr.call("planarity.validate_embedding", validate_embedding, nerve, rotation)
            vector = _betti(tr, nerve, RuleContext(embedding=rotation))
            added, _ = _cone(tr, nerve, rotation)
            certificate = _certify(tr, _parse(tr, labelled))
            facts = {
                "planar": planar,
                "components": len(components),
                "beta_2": vector[2],
                "cone_vertices": added,
                "certified_nonplanar": certificate[0] == "NotPlanar",
            }
            return Answer(facts, (vector, certificate[:2]), len(nerve.vertices), nerve.counts())
        return run

    @staticmethod
    def _nonplanar_recipe(text):
        def run(tr) -> Answer:
            spec = _parse(tr, text)
            nerve = _build(tr, spec)
            planar = tr.call("planarity.brute_force_planar", brute_force_planar, nerve)
            certificate = _certify(tr, spec)
            return Answer({"planar": planar}, certificate[:2], len(nerve.vertices), nerve.counts())
        return run

    @staticmethod
    def _enum_recipe(text, subset):
        def run(tr) -> Answer:
            spec = _parse(tr, text)
            verdict = tr.call("spherical.classify", classify, spec, subset)
            tr.count("spherical.classify.spherical", verdict.spherical)
            order = tr.call("enumeration.enumerate_order", enumerate_order, spec, subset)
            facts = {"classify": (verdict.spherical, verdict.order), "enumerate": order}
            return Answer(facts, (), len(spec.vertices))
        return run


WORKLOADS = {
    "sphere_ladder": SphereLadder,
    "random_sparse": RandomSparse,
    "planar_desk": PlanarDesk,
}
