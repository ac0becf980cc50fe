"""Orbihedral Euler characteristic and the l2-Betti rule engine.

Everything here is exact rational arithmetic; no operation produces a
float.  Betti numbers are never computed spectrally: a small engine
applies vanishing and product rules whose hypotheses can be verified
combinatorially, records provenance for every entry it fills, and leaves
everything else Unknown.  The alternating-sum identity (Euler
characteristic equals the alternating sum of l2-Betti numbers) both
completes single missing entries and cross-checks every fully known
vector.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from coxeter_l2.model import induced_subspec
from coxeter_l2.nerve import (
    CapExceeded,
    Nerve,
    SphereKind,
    SubcomplexWitness,
    induced_nerve,
    recognize_sphere,
    validate_embedding,
)
from coxeter_l2.spherical import classify


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
    (-1)^|T| / |W_T|; the empty set contributes +1.  Signs are tallied per
    order first, so there is one exact division per distinct order; the
    nerve holds the value.  Equality with the literal chain-level sum is the
    job of chi_orb_chain_sum.
    """
    if nerve._chi is None:
        weight: Counter[int] = Counter()
        for s, order in nerve._orders.items():
            weight[order] += -1 if len(s) % 2 else 1
        nerve._chi = sum((Fraction(w, order) for order, w in weight.items()), Fraction(1))
    return nerve._chi


def chi_orb_chain_sum(nerve: Nerve, *, chain_cap: int = 10 ** 7) -> Fraction:
    """Independent oracle: the chain-level Euler characteristic sum.

    Simplices of the fundamental chamber are the chains of spherical
    subsets ordered by inclusion, the empty set included as a poset
    element; a chain of k+1 elements has dimension k and stabilizer order
    |W_T| for its minimum T.  Every chain is enumerated literally; supersets
    are read from stars as chains reach them, so chain_cap bounds the work.
    """
    simplices = nerve.simplices()
    above: dict[tuple[str, ...], Sequence] = {(): simplices}  # every simplex is above the empty set
    total = Fraction(0)
    seen = 0

    def extend(min_order: int, last: tuple[str, ...], length: int):
        nonlocal total, seen
        seen += 1
        if seen > chain_cap:
            raise CapExceeded(f"chain enumeration exceeds {chain_cap} chains")
        total += Fraction((-1) ** (length - 1), min_order)
        if last not in above:  # each proper superset lies in the star of every vertex of last
            star = min((nerve._star[v] for v in last), key=len)
            above[last] = [t for t in star if len(t) > len(last) and set(last).issubset(t)]
        for t in above[last]:
            extend(min_order, t, length + 1)

    extend(1, (), 1)
    for s in simplices:
        extend(nerve.order(s), s, 1)
    return total


@dataclass(frozen=True)
class RuleContext:
    """Optional hypotheses handed to the Betti engine.

    witness: the target is the full subcomplex of witness.ambient on
    witness.vertex_set.  embedding: a rotation system describing a sphere
    embedding of the target's 1-skeleton (validated per component).
    Both witnesses are checked against the target before any rule fires.
    """

    witness: SubcomplexWitness | None = None
    embedding: Mapping[str, tuple] | None = None


class BettiVector:
    """Per-dimension l2-Betti entries with provenance, and the chi_orb they sum to.

    Entries cover dimensions 0 .. dim(nerve)+1, the dimension of the group
    complex; ``get`` answers exact 0 above that range, where there are no
    chains at all.  A vector starts with every entry UNKNOWN and ``betti``
    fills it rule by rule; entries no rule determines stay UNKNOWN.  The
    provenance of an entry is the (rule id, detail) pair of the rule that
    set it, or None.
    """

    def __init__(self, top: int, chi: Fraction):
        self.top = top
        self.chi = chi
        self._entries: list = [UNKNOWN] * (top + 1)
        self._provenance: list = [None] * (top + 1)

    def _assign(self, i: int, value: Fraction, rule: str, detail: str):
        """Set entry i, or confirm it; a negative or conflicting value raises ContradictoryRules."""
        value = Fraction(value)
        why = f"{rule}: {detail}"
        if value < 0:
            raise ContradictoryRules(
                f"rule '{why}' assigned negative value {value} to dimension {i}"
            )
        if i > self.top:
            if value != 0:
                raise ContradictoryRules(
                    f"rule '{why}' assigned {value} beyond the top dimension {self.top}"
                )
            return
        current = self._entries[i]
        if current is UNKNOWN:
            self._entries[i] = value
            self._provenance[i] = (rule, detail)
        elif current != value:
            raise ContradictoryRules(
                f"dimension {i}: '{': '.join(self._provenance[i])}' gave {current} "
                f"but '{why}' gives {value}"
            )

    def _stored(self, i: int) -> bool:
        """The bounds check of every reader: is entry i stored (not above the top)?"""
        if i < 0:
            raise IndexError("negative dimension")
        return i <= self.top

    def get(self, i: int):
        return self._entries[i] if self._stored(i) else Fraction(0)

    def rule_for(self, i: int) -> str | None:
        """The id of the rule that set entry i, such as "R-join"; None if none did."""
        record = self._provenance[i] if self._stored(i) else None
        return record and record[0]

    def detail_for(self, i: int) -> str | None:
        """What the rule that set entry i was applied to; None if no rule did."""
        record = self._provenance[i] if self._stored(i) else None
        return record and record[1]

    def provenance_for(self, i: int) -> str:
        if not self._stored(i):
            return "beyond the top dimension: no chains"
        if self._provenance[i] is None:
            return "Unknown: no rule fired"
        return ": ".join(self._provenance[i])

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
    target_set = set(nerve.vertices)
    if set(witness.vertex_set) != target_set:
        raise InvalidWitness("witness vertex set does not match the target nerve")
    if induced_subspec(witness.ambient.spec, witness.vertex_set) != nerve.spec:
        raise InvalidWitness("target is not the induced subsystem of the witness ambient")


def betti(nerve: Nerve, ctx: RuleContext | None = None) -> BettiVector:
    """Evaluate the l2-Betti vector of a nerve by rule application.

    Rules fire in a fixed order (finite-group, vanishing beta_0, sphere
    vanishing, subcomplex vanishing under a witness, planarity vanishing
    under an embedding witness, then the Kunneth product over a
    right-angled join); a final step takes the alternating sum of the known
    entries once: it fills a single missing entry from the Euler
    characteristic, and a fully known vector must sum to it.  Conflicting assignments raise
    ContradictoryRules.  R-fin and R-join read the nerve's held verdict.
    """
    top = nerve.dimension + 1
    chi = chi_orb(nerve)
    vector = BettiVector(top, chi)
    if nerve._verdict is None:
        nerve._verdict = classify(nerve.spec, nerve.vertices)
    full_verdict = nerve._verdict

    # R-fin / R-b0: a finite group has compact contractible group complex.
    if full_verdict.spherical:
        order = f"|W| = {full_verdict.order}"
        vector._assign(0, Fraction(1, full_verdict.order), "R-fin", order)
        for i in range(1, top + 1):
            vector._assign(i, Fraction(0), "R-fin", order)
    else:
        vector._assign(0, Fraction(0), "R-b0", "W infinite")

    # R-S0/S1 and R-S2: sphere nerves.
    kind = recognize_sphere(nerve)
    is_s0 = len(nerve.vertices) == 2 and not nerve.edges
    if kind is SphereKind.CIRCLE or is_s0:
        which = "circle" if kind is SphereKind.CIRCLE else "two points"
        vector._assign(top, Fraction(0), "R-S0/S1", f"nerve is {which}, top entry vanishes")
    if kind is SphereKind.TWO_SPHERE:
        for i in range(top + 1):
            vector._assign(i, Fraction(0), "R-S2", "2-sphere nerve, all entries vanish")

    if ctx is not None and ctx.witness is not None:
        _validate_witness(nerve, ctx.witness)
        ambient_kind = recognize_sphere(ctx.witness.ambient)
        if ambient_kind is SphereKind.CIRCLE:
            for i in range(2, top + 1):
                vector._assign(i, Fraction(0), "R-sub1", "full subcomplex of a circle nerve")
        if ambient_kind is SphereKind.TWO_SPHERE and ctx.witness.right_angled_complement:
            for i in range(2, top + 1):
                vector._assign(
                    i,
                    Fraction(0),
                    "R-sub2",
                    "full subcomplex with right-angled complement in a 2-sphere nerve",
                )

    if ctx is not None and ctx.embedding is not None and nerve.dimension <= 2:
        try:
            validate_embedding(nerve, ctx.embedding)
        except Exception as exc:
            raise InvalidWitness(f"embedding witness rejected: {exc}") from exc
        vector._assign(2, Fraction(0), "R-planar", "sphere-embedding witness")

    # R-join: Kunneth over a right-angled join, once factor vectors are known.
    if len(full_verdict.diagram) >= 2:
        factors = full_verdict.diagram
        factor_vectors = [betti(induced_nerve(nerve, f)) for f in factors]
        if all(v.fully_known for v in factor_vectors):
            conv = [Fraction(1)]
            for v in factor_vectors:
                cur = [v.get(i) for i in range(v.top + 1)]
                nxt = [Fraction(0)] * (len(conv) + len(cur) - 1)
                for i, a in enumerate(conv):
                    for j, c in enumerate(cur):
                        nxt[i + j] += a * c
                conv = nxt
            desc = " * ".join("{" + ",".join(f) + "}" for f in factors)
            for k, value in enumerate(conv):
                vector._assign(k, value, "R-join", desc)

    # R-atiyah: the alternating sum of the known entries completes a single
    # missing entry, and must equal chi_orb when none is missing.
    missing = [i for i, e in enumerate(vector._entries) if e is UNKNOWN]
    partial = sum(
        ((-1) ** j * e for j, e in enumerate(vector._entries) if e is not UNKNOWN), Fraction(0)
    )
    if len(missing) == 1:
        i = missing[0]
        vector._assign(i, (-1) ** i * (chi - partial), "R-atiyah", f"completion against chi_orb = {chi}")
    elif not missing and partial != chi:
        raise ContradictoryRules(
            f"fully known vector {vector} has alternating sum {partial} != chi_orb = {chi}"
        )
    return vector
