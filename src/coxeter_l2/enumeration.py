"""Brute-force order verification via the geometric reflection representation.

Each generator acts on R^|T| by the standard reflection matrices built
from the cosine form; breadth-first closure under generator products
counts group elements exactly when the group is finite.  Matrices are
snapped to a fine grid and deduplicated on 1e-6 equality cells (entries
within a cell are the same element), one matmul and one bulk key pass per
breadth-first layer; every count is re-run on a half-cell-shifted grid to
guard against boundary collisions.  Each stored key holds n*n*8 bytes, so
memory, not time, bounds the largest group.  This is a desk-scale
numerical oracle, not a proof.
"""

from __future__ import annotations

import math

import numpy as np

from coxeter_l2.model import INFINITY, CoxeterSpec
from coxeter_l2.spherical import classify

_GRID = 1e-8  # snap resolution
_CELL = 1e-6  # equality bucket: entries within one cell are the same element
_CONSTRUCTION_TOL = 1e-8


class NumericCollision(ArithmeticError):
    """Grid-shifted enumerations persistently disagree on the closure size."""


def reflection_generators(spec: CoxeterSpec, subset) -> tuple[tuple[str, ...], np.ndarray]:
    """Reflection matrices for the induced subsystem, one per subset vertex.

    Generator s sends its own basis vector e_s to -e_s and every other
    e_t to e_t + 2 cos(pi / m_st) e_s.  Involutivity and the dihedral
    orders of generator pairs are verified at construction.
    """
    T = spec.check_subset(subset)
    n = len(T)
    labels = [[spec.label(u, v) for v in T] for u in T]
    B = [[-1.0 if m == INFINITY else -math.cos(math.pi / m) for m in row] for row in labels]
    eye = np.eye(n)
    gens = np.tile(eye, (n, 1, 1))
    gens[np.arange(n), np.arange(n)] -= 2.0 * np.reshape(B, (n, n))
    involution = np.isclose(gens @ gens, eye, atol=_CONSTRUCTION_TOL).all(axis=(1, 2))
    if not involution.all():
        raise ArithmeticError(f"generator {T[np.argmin(involution)]} is not an involution")
    pairs = [(i, j, m) for i in range(n) for j in range(i + 1, n) if (m := labels[i][j]) != INFINITY]
    if pairs:
        powers = np.stack([np.linalg.matrix_power(gens[i] @ gens[j], m) for i, j, m in pairs])
        braid = np.isclose(powers, eye, atol=1e-6).all(axis=(1, 2))
        if not braid.all():
            i, j, m = pairs[np.argmin(braid)]
            raise ArithmeticError(f"product of {T[i]}, {T[j]} does not have order {m}")
    return T, gens


def _closure_size(gens: np.ndarray, cap: int, offset: float) -> int | None:
    """BFS closure size under generator right-multiplication; None past cap.

    Each layer forms all frontier-by-generator products with one matmul
    (frontier-major, generator-minor order) and keys them in bulk: entries
    are snapped to the fine grid, bucketed into equality cells, and each
    int64 row is read as one n*n*8-byte string.  The first product in that
    order to reach an unseen key represents its element in the next
    frontier.  Representatives of one group element drift by far less than
    a cell (measured ~1e-12 even for the deepest rank-4 groups), while
    distinct elements differ by entry gaps many orders of magnitude above it.
    """
    n = gens.shape[1]
    cells_per_snap = _CELL / _GRID
    key_dtype = np.dtype((np.void, n * n * 8))

    def keys(batch: np.ndarray) -> list[bytes]:
        snapped = np.round(batch / _GRID)
        q = np.round(snapped / cells_per_snap + offset).astype(np.int64)
        return q.reshape(len(batch), -1).view(key_dtype).ravel().tolist()

    frontier = np.eye(n)[None, :, :]
    store = set(keys(frontier))
    count = 1
    while len(frontier):
        products = np.matmul(frontier[:, None], gens).reshape(-1, n, n)
        fresh = []
        for i, key in enumerate(keys(products)):
            if key not in store:
                store.add(key)
                fresh.append(i)
        count += len(fresh)
        if count > cap:
            return None
        frontier = products[fresh]
    return count


def enumerate_order(spec: CoxeterSpec, subset, cap: int = 10 ** 6) -> int | None:
    """Exact order of the subgroup generated by a subset, or None past the cap.

    An infinite label inside the subset short-circuits to None (the pair
    already generates an infinite dihedral group).  Raises
    NumericCollision if shifted-grid re-runs cannot agree.
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
    # Exact entries (0, +-1/2, +-1, ...) are cell multiples, so offsets 0 and
    # 1/2 would park them on cell boundaries; quarter-cell offsets stay half a
    # cell apart from each other while keeping such values mid-cell.
    first = _closure_size(gens, cap, 0.25)
    second = _closure_size(gens, cap, 0.75)
    if first == second:
        return first
    third = _closure_size(gens, cap, 0.125)
    fourth = _closure_size(gens, cap, 0.625)
    if third == fourth:
        return third
    raise NumericCollision(
        f"closure sizes disagree across grid offsets: {first}, {second}, {third}, {fourth}"
    )


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
