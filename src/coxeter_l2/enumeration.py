"""Numeric oracles on the cosine form: positive definiteness and brute-force order.

The cosine test checks the leading minors of the matrix c_st =
-cos(pi / m_st).  Enumeration lets each generator act on row vectors by
the standard reflection matrices built from the same form and counts the
orbit of x = (1, ..., 1), a point of the open fundamental chamber of the
Tits cone.  W acts simply transitively on the chambers, so the orbit has
one point per group element, and (x w)_s < 0 exactly when s is a right
descent of w (Humphreys, Reflection Groups and Coxeter Groups, 5.4 and
5.13).  One breadth-first pass by length makes each w != 1 once, from
w s with s its least right descent, so nothing is hashed or stored beyond
the current layer.  Each coordinate (x w)_t is the coefficient sum of the
root w(alpha_t), and every nonzero root coefficient is at least 1 in
magnitude, so a sign read within 1/2 of zero, or on a coordinate large
enough for rounding to reach that margin, raises NumericCollision.
These are desk-scale numerical oracles, not proofs.
"""

from __future__ import annotations

import math

import numpy as np

from coxeter_l2.model import INFINITY, CoxeterSpec
from coxeter_l2.spherical import classify

_MARGIN = 0.5  # exact chamber coordinates have magnitude at least 1
_LARGEST = 2.0 ** 30  # past this, rounding could carry a coordinate across the margin
_CONSTRUCTION_TOL = 1e-8
_COSINE_EPS = 1e-9  # a leading minor within this of zero is indeterminate
_COSINE_MAX_RANK = 12


class NumericCollision(ArithmeticError):
    """A chamber coordinate left the range where its sign can be trusted."""


class IndeterminateNumeric(ArithmeticError):
    """A principal minor fell within tolerance of zero; fall back to classify."""


def _cosine_matrix(spec: CoxeterSpec, T: tuple[str, ...]) -> np.ndarray:
    """The cosine form on a checked subset, -1 at an infinite label; the diagonal label 1 gives 1.0."""
    n = len(T)
    rows = [[-1.0 if (m := spec.label(u, v)) == INFINITY else -math.cos(math.pi / m) for v in T] for u in T]
    return np.reshape(np.array(rows, dtype=float), (n, n))


def cosine_matrix_test(spec: CoxeterSpec, subset) -> bool:
    """Numeric finiteness check: is the cosine matrix positive definite?

    True iff every leading principal minor exceeds the fixed tolerance
    _COSINE_EPS; raises IndeterminateNumeric when a minor lands within
    +/-_COSINE_EPS of zero, in which case the caller should fall back to
    classify.  Subsets above rank _COSINE_MAX_RANK raise ValueError.
    """
    T = spec.check_subset(subset)
    n = len(T)
    if n > _COSINE_MAX_RANK:
        raise ValueError(f"subset rank {n} exceeds the numeric bound {_COSINE_MAX_RANK}")
    C = _cosine_matrix(spec, T)
    for k in range(1, n + 1):
        minor = float(np.linalg.det(C[:k, :k]))
        if abs(minor) <= _COSINE_EPS:
            raise IndeterminateNumeric(
                f"leading {k}x{k} minor {minor:.3e} within {_COSINE_EPS} of zero"
            )
        if minor < 0:
            return False
    return True


def spherical_by_cosine(spec: CoxeterSpec, subset) -> bool:
    """Cosine test with indeterminate cases adjudicated exactly.

    An infinite label forces non-sphericity outright (infinite dihedral
    subgroup); any other indeterminate minor is resolved by classify.
    """
    T = spec.check_subset(subset)
    try:
        return cosine_matrix_test(spec, T)
    except IndeterminateNumeric:
        if any(spec.label(u, v) == INFINITY for i, u in enumerate(T) for v in T[i + 1:]):
            return False
        return classify(spec, T).spherical


def reflection_generators(spec: CoxeterSpec, subset) -> tuple[tuple[str, ...], np.ndarray]:
    """Reflection matrices for the induced subsystem, one per subset vertex.

    Generator s sends its own basis vector e_s to -e_s and every other
    e_t to e_t + 2 cos(pi / m_st) e_s.  Involutivity and the dihedral
    orders of generator pairs are verified at construction.
    """
    T = spec.check_subset(subset)
    n = len(T)
    eye = np.eye(n)
    gens = np.tile(eye, (n, 1, 1))
    gens[np.arange(n), np.arange(n)] -= 2.0 * _cosine_matrix(spec, T)
    involution = np.isclose(gens @ gens, eye, atol=_CONSTRUCTION_TOL).all(axis=(1, 2))
    if not involution.all():
        raise ArithmeticError(f"generator {T[np.argmin(involution)]} is not an involution")
    pairs = [(i, j, m) for i in range(n) for j in range(i + 1, n) if (m := spec.label(T[i], T[j])) != INFINITY]
    if pairs:
        powers = np.stack([np.linalg.matrix_power(gens[i] @ gens[j], m) for i, j, m in pairs])
        braid = np.isclose(powers, eye, atol=1e-6).all(axis=(1, 2))
        if not braid.all():
            i, j, m = pairs[np.argmin(braid)]
            raise ArithmeticError(f"product of {T[i]}, {T[j]} does not have order {m}")
    return T, gens


def _orbit_size(gens: np.ndarray, cap: int) -> int | None:
    """Orbit size of x = (1, ..., 1) under right multiplication; None past cap.

    Each layer holds x w for the elements w of one length.  One matmul by
    the generators stacked side by side gives every x w s; x w s is kept
    when s is an ascent of w and the least descent of w s, which is then s
    itself, the first negative coordinate of x w s.
    """
    n = len(gens)
    stacked = gens.transpose(1, 0, 2).reshape(n, n * n)
    own = np.arange(n)
    frontier = np.ones((1, n))
    count = 1
    while len(frontier):
        products = np.matmul(frontier, stacked).reshape(-1, n, n)
        sizes = np.abs(products)
        if sizes.min() < _MARGIN or sizes.max() > _LARGEST:
            raise NumericCollision(
                f"chamber coordinates span {sizes.min():.3g}..{sizes.max():.3g}, "
                f"outside [{_MARGIN}, {_LARGEST:.0f}]"
            )
        frontier = products[(frontier > 0) & ((products < 0).argmax(axis=2) == own)]
        count += len(frontier)
        if count > cap:
            return None
    return count


def enumerate_order(spec: CoxeterSpec, subset, cap: int = 10 ** 6) -> int | None:
    """Exact order of the subgroup generated by a subset, or None past the cap.

    An infinite label inside the subset short-circuits to None (the pair
    already generates an infinite dihedral group).  Raises
    NumericCollision if a chamber coordinate is too close to zero, or too
    large, for its sign to be trusted.
    """
    T = spec.check_subset(subset)
    if len(T) > 8:
        raise ValueError("enumeration is limited to subsets of at most 8 vertices")
    if not 1 <= cap <= 10 ** 6:
        raise ValueError(f"cap must be between 1 and 10^6, got {cap}")
    if not T:
        return 1
    for i, u in enumerate(T):
        for v in T[i + 1:]:
            if spec.label(u, v) == INFINITY:
                return None
    _, gens = reflection_generators(spec, T)
    return _orbit_size(gens, cap)


def verify_classification(spec: CoxeterSpec, subset, *, infinite_cap: int = 20000) -> bool:
    """Cross-check the diagram classifier against brute-force enumeration.

    A spherical verdict must reproduce its order exactly under a cap of
    twice the claimed order (refused past the 10^6 budget); a non-spherical
    verdict must fail to close under ``infinite_cap``.
    """
    T = spec.check_subset(subset)
    verdict = classify(spec, T)
    if verdict.spherical:
        cap = 2 * verdict.order
        if cap > 10 ** 6:
            raise ValueError(f"claimed order {verdict.order} exceeds the oracle budget")
        return enumerate_order(spec, T, cap=cap) == verdict.order
    return enumerate_order(spec, T, cap=infinite_cap) is None
