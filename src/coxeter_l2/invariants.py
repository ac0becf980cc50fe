"""Orbihedral Euler characteristic and the l2-Betti rule engine.

Everything here is exact rational arithmetic; no operation produces a
float.  Betti numbers are never computed spectrally: a small engine
applies vanishing and product rules whose hypotheses can be verified
combinatorially, records a cited step for every entry it fills, and leaves
everything else Unknown.  The alternating-sum identity (Euler
characteristic equals the alternating sum of l2-Betti numbers) both
completes single missing entries and cross-checks every fully known
vector.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from coxeter_l2.model import UnknownVertex
from coxeter_l2.nerve import (
    CapExceeded,
    Nerve,
    SphereKind,
    SubcomplexWitness,
    _is_induced,
    _join_factor,
    _right_angled_outside,
    recognize_sphere,
    validate_embedding,
)
from coxeter_l2.spherical import diagram_components

_CHAIN_CAP = 10 ** 7  # the chain-sum oracle refuses a nerve with more chains than this
_ZERO = Fraction(0)


def _rational(q: Fraction) -> str:
    """A rational in document form, always as p/q."""
    return f"{q.numerator}/{q.denominator}"


class _Unknown:
    """Singleton for Betti entries no rule determines."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Unknown"


UNKNOWN = _Unknown()


class ContradictoryRules(RuntimeError):
    """Two rules assigned different values to one entry; abort, never pick."""


class InvalidWitness(ValueError):
    """A rule-context witness is inconsistent with the target nerve."""


def chi_orb(nerve: Nerve) -> Fraction:
    """Orbihedral Euler characteristic, as the collapsed sum over spherical subsets.

    Each spherical subset T (the empty set included) contributes
    (-1)^|T| / |W_T|; the empty set contributes +1.  The nerve's tuple of
    orders for each dimension is tallied at once, with the sign of its
    simplices' size, and the signed counts are summed over the lcm of the
    orders, so there is one exact division; the nerve holds the value.
    Equality with the literal chain-level sum is the job of chi_orb_chain_sum.
    """
    if nerve._chi is None:
        weight, odd = Counter({1: 1}), Counter()  # the empty set: +1 / 1
        for d, orders in nerve._orders.items():  # a d-simplex has d + 1 vertices
            (odd if d % 2 == 0 else weight).update(orders)
        weight.subtract(odd)
        lcm = math.lcm(*weight)
        nerve._chi = Fraction(sum(w * (lcm // order) for order, w in weight.items()), lcm)
    return nerve._chi


def chi_orb_chain_sum(nerve: Nerve) -> Fraction:
    """Independent oracle: the chain-level Euler characteristic sum.

    Simplices of the fundamental chamber are the chains of spherical
    subsets ordered by inclusion, the empty set included as a poset
    element; a chain of k+1 elements has dimension k and stabilizer order
    |W_T| for its minimum T.  Every chain is enumerated literally; supersets
    are read from stars (the simplices at each vertex, listed here) as
    chains reach them, so _CHAIN_CAP bounds the work.
    """
    simplices = nerve.simplices()
    stars: dict[str, list[tuple[str, ...]]] = {}
    for s in simplices:
        for v in s:
            stars.setdefault(v, []).append(s)
    above: dict[tuple[str, ...], Sequence] = {(): simplices}  # every simplex is above the empty set
    total = Fraction(0)
    seen = 0

    def extend(min_order: int, last: tuple[str, ...], length: int):
        nonlocal total, seen
        seen += 1
        if seen > _CHAIN_CAP:
            raise CapExceeded(f"chain enumeration exceeds {_CHAIN_CAP} chains")
        total += Fraction((-1) ** (length - 1), min_order)
        if last not in above:  # each proper superset lies in the star of every vertex of last
            star = min((stars[v] for v in last), key=len)
            above[last] = [t for t in star if len(t) > len(last) and set(last).issubset(t)]
        for t in above[last]:
            extend(min_order, t, length + 1)

    extend(1, (), 1)
    for s in simplices:
        extend(nerve.order(s), s, 1)
    return total


class RuleContext(NamedTuple):
    """Optional hypotheses handed to the Betti engine.

    witness: the target is the full subcomplex of witness.ambient on
    witness.vertex_set.  embedding: a rotation system describing a sphere
    embedding of the target's 1-skeleton (validated per component).
    Both witnesses are checked against the target before any rule fires.
    """

    witness: SubcomplexWitness | None = None
    embedding: Mapping[str, tuple] | None = None


class CitedStep(NamedTuple):
    """One cited fact: the statement or rule id, what it was applied to, and the values it gives."""

    statement: str
    applied_to: str
    values: dict

    def to_document(self) -> dict:
        return {"statement": self.statement, "applied_to": self.applied_to, "values": self.values}


class BettiVector:
    """Per-dimension l2-Betti entries with provenance, and the chi_orb they sum to.

    Entries cover dimensions 0 .. dim(nerve)+1, the dimension of the group
    complex; ``get`` answers exact 0 above that range, where there are no
    chains at all.  A vector starts with every entry UNKNOWN and ``betti``
    fills it rule by rule; entries no rule determines stay UNKNOWN.  Each set
    entry keeps one CitedStep (rule id, detail, beta_i), which certificates cite as it is.
    """

    def __init__(self, top: int, chi: Fraction):
        self.top = top
        self.chi = chi
        self._entries: list = [UNKNOWN] * (top + 1)
        self._steps: list = [None] * (top + 1)

    def _assign(self, i: int, value: Fraction, rule: str, detail: str):
        """Set entry i to a Fraction, or confirm it; a negative or conflicting value raises ContradictoryRules."""
        if value < 0:
            raise ContradictoryRules(
                f"rule '{rule}: {detail}' assigned negative value {value} to dimension {i}"
            )
        if i > self.top:
            if value != 0:
                raise ContradictoryRules(
                    f"rule '{rule}: {detail}' assigned {value} beyond the top dimension {self.top}"
                )
            return
        current = self._entries[i]
        if current is UNKNOWN:
            self._entries[i] = value
            self._steps[i] = CitedStep(rule, detail, {f"beta_{i}": _rational(value)})
        elif current != value:
            raise ContradictoryRules(
                f"dimension {i}: '{self.provenance_for(i)}' gave {current} but '{rule}: {detail}' gives {value}"
            )

    def _stored(self, i: int) -> bool:
        """The bounds check of every reader: is entry i stored (not above the top)?"""
        if i < 0:
            raise IndexError("negative dimension")
        return i <= self.top

    def get(self, i: int):
        return self._entries[i] if self._stored(i) else _ZERO

    def step(self, i: int) -> CitedStep | None:
        """The step that set entry i, such as R-join on its factors; None if no rule did or i is above the top."""
        return self._steps[i] if self._stored(i) else None

    def provenance_for(self, i: int) -> str:
        if not self._stored(i):
            return "beyond the top dimension: no chains"
        step = self._steps[i]
        return "Unknown: no rule fired" if step is None else f"{step.statement}: {step.applied_to}"

    @property
    def fully_known(self) -> bool:
        return all(e is not UNKNOWN for e in self._entries)

    def as_tuple(self) -> tuple:
        return tuple(self._entries)

    def __repr__(self) -> str:
        inner = ", ".join("?" if e is UNKNOWN else str(e) for e in self._entries)
        return f"({inner})"

    def to_document(self) -> dict:
        return {
            "entries": {
                str(i): (None if e is UNKNOWN else _rational(e))
                for i, e in enumerate(self._entries)
            },
            "provenance": {str(i): self.provenance_for(i) for i in range(self.top + 1)},
        }


def _validate_witness(nerve: Nerve, witness: SubcomplexWitness) -> None:
    """Check a subcomplex witness against its target, or raise InvalidWitness.

    In order: the vertex sets must match; the ambient's check_subset
    refuses a string and names the least target vertex the ambient lacks;
    _is_induced reads the target's labels against the ambient's edge
    level, building no subsystem; and the right-angled flag must match the
    ambient's labels.  The target may list its vertices in any order.
    """
    target_set = set(nerve.vertices)
    if set(witness.vertex_set) != target_set:
        raise InvalidWitness("witness vertex set does not match the target nerve")
    try:
        witness.ambient.spec.check_subset(witness.vertex_set)
    except UnknownVertex as exc:
        raise InvalidWitness(f"witness ambient lacks a target vertex: {exc}") from exc
    if not _is_induced(witness.ambient, target_set, nerve.spec):
        raise InvalidWitness("target is not the induced subsystem of the witness ambient")
    if witness.right_angled_complement != _right_angled_outside(witness.ambient, target_set):
        raise InvalidWitness("witness right-angled flag does not match the ambient labels")


def betti(nerve: Nerve, ctx: RuleContext | None = None) -> BettiVector:
    """Evaluate the l2-Betti vector of a nerve by rule application.

    Rules fire in a fixed order (finite-group, vanishing beta_0, sphere
    vanishing, subcomplex vanishing under a witness, planarity vanishing
    under an embedding witness, then the Kunneth product over a
    right-angled join); a final step takes the alternating sum of the known
    entries once: it fills a single missing entry from the Euler
    characteristic, and a fully known vector must sum to it.  Conflicting assignments raise
    ContradictoryRules.  R-fin reads the nerve: W is finite exactly when its
    whole vertex set is a simplex (the empty system included), and the
    nerve holds its order.  A witness is checked by _validate_witness, which
    reads the target's labels against the ambient's edge level.  R-join
    takes its factors from diagram_components; each factor is
    diagram-connected by construction, so its own R-join cannot fire, and
    its vector is evaluated without searching its diagram again, on a view
    of the nerve that carries the factor's orders but no spec
    (_join_factor).  Zero terms are skipped in the join's convolution and in the
    alternating sum, and every vanishing entry is one shared zero.
    """
    return _betti(nerve, ctx, diagram_connected=False)


def _betti(nerve: Nerve, ctx: RuleContext | None, diagram_connected: bool) -> BettiVector:
    """betti, told whether the nerve's diagram is known to be connected, as a join factor's is."""
    top = nerve.dimension + 1
    chi = chi_orb(nerve)
    vector = BettiVector(top, chi)

    # R-fin / R-b0: a finite group has compact contractible group complex.
    if nerve.dimension == len(nerve.vertices) - 1:
        order = nerve.order(nerve.vertices)
        vector._assign(0, Fraction(1, order), "R-fin", f"|W| = {order}")
        for i in range(1, top + 1):
            vector._assign(i, _ZERO, "R-fin", f"|W| = {order}")
    else:
        vector._assign(0, _ZERO, "R-b0", "W infinite")

    # R-S0/S1 and R-S2: sphere nerves.
    kind = recognize_sphere(nerve)
    is_s0 = len(nerve.vertices) == 2 and not nerve.edges
    if kind is SphereKind.CIRCLE or is_s0:
        which = "circle" if kind is SphereKind.CIRCLE else "two points"
        vector._assign(top, _ZERO, "R-S0/S1", f"nerve is {which}, top entry vanishes")
    if kind is SphereKind.TWO_SPHERE:
        for i in range(top + 1):
            vector._assign(i, _ZERO, "R-S2", "2-sphere nerve, all entries vanish")

    if ctx is not None and ctx.witness is not None:
        _validate_witness(nerve, ctx.witness)
        ambient_kind = recognize_sphere(ctx.witness.ambient)
        if ambient_kind is SphereKind.CIRCLE:
            for i in range(2, top + 1):
                vector._assign(i, _ZERO, "R-sub1", "full subcomplex of a circle nerve")
        if ambient_kind is SphereKind.TWO_SPHERE and ctx.witness.right_angled_complement:
            for i in range(2, top + 1):
                vector._assign(
                    i,
                    _ZERO,
                    "R-sub2",
                    "full subcomplex with right-angled complement in a 2-sphere nerve",
                )

    if ctx is not None and ctx.embedding is not None and nerve.dimension <= 2:
        try:
            validate_embedding(nerve, ctx.embedding)
        except Exception as exc:
            raise InvalidWitness(f"embedding witness rejected: {exc}") from exc
        vector._assign(2, _ZERO, "R-planar", "sphere-embedding witness")

    # R-join: Kunneth over a right-angled join, once factor vectors are known.
    factors = () if diagram_connected else diagram_components(nerve.spec, nerve.vertices)
    if len(factors) >= 2:
        factor_vectors = [_betti(_join_factor(nerve, f), None, diagram_connected=True) for f in factors]
        if all(v.fully_known for v in factor_vectors):
            conv = [Fraction(1)]
            for v in factor_vectors:
                nxt = [_ZERO] * (len(conv) + v.top)
                for i, a in enumerate(conv):
                    if a:
                        for j, c in enumerate(v._entries):
                            if c:
                                nxt[i + j] += a * c
                conv = nxt
            desc = " * ".join("{" + ",".join(f) + "}" for f in factors)
            for k, value in enumerate(conv):
                vector._assign(k, value, "R-join", desc)

    # R-atiyah: the alternating sum of the known entries completes a single
    # missing entry, and must equal chi_orb when none is missing.
    missing, partial = [], _ZERO
    for j, e in enumerate(vector._entries):
        if e is UNKNOWN:
            missing.append(j)
        elif e:
            partial = partial - e if j % 2 else partial + e
    if len(missing) == 1:
        i = missing[0]
        completion = partial - chi if i % 2 else chi - partial
        vector._assign(i, completion, "R-atiyah", f"completion against chi_orb = {chi}")
    elif not missing and partial != chi:
        raise ContradictoryRules(
            f"fully known vector {vector} has alternating sum {partial} != chi_orb = {chi}"
        )
    return vector
