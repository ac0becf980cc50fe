"""Numeric oracle: the order of a subgroup by brute-force enumeration.

Enumeration acts on row vectors by the reflections in the cosine form
c_st = -cos(pi / m_st), each kept as its one row off the identity.  With
s_0 < ... < s_{n-1} the sorted subset and T_k = {s_0, ..., s_k}, the row
vector e_k lies in the closed fundamental chamber of W_{T_k}, on the walls
of T_{k-1}, so its stabiliser is the parabolic subgroup W_{T_{k-1}} and its
orbit has [W_{T_k} : W_{T_{k-1}}] points; the order is the product of
these indices (Humphreys, Reflection Groups and Coxeter Groups, 1.10 and
5.13).  Each orbit is walked breadth-first by length: y g_s is formed only
when y_s > 0 and kept when s is its first negative coordinate, so every
point is made once, from its parent by least descent, and nothing is
hashed or stored beyond the current layer.  Coordinate t of e_k w is the
alpha_k-coefficient of the root w(alpha_t), and a nonzero root
coefficient has magnitude at least 1 (Brink and Howlett, Math. Ann. 296,
1993), so a computed coordinate within 1/4 of zero reads as exactly 0,
and one in [1/4, 1/2), or large enough for rounding to reach that band,
raises NumericCollision.  This is the package's one floating-point
module: a desk-scale numerical oracle, not a proof.
"""

from __future__ import annotations

import math

from coxeter_l2.model import INFINITY, CoxeterSpec
from coxeter_l2.spherical import classify

_ZERO = 0.25  # a computed coordinate this close to zero is exactly 0
_MARGIN = 0.5  # nonzero exact coordinates have magnitude at least 1
_LARGEST = 2.0 ** 30  # past this, rounding could carry a coordinate across the margin
_CONSTRUCTION_TOL = 1e-8
_INFINITE_CAP = 20000  # a non-spherical verdict holds when enumeration passes this many elements


class NumericCollision(ArithmeticError):
    """A computed root coefficient is neither near 0 nor safely past the margin."""


def _labels(spec: CoxeterSpec, T: tuple[str, ...]) -> list[list]:
    """The labels on a checked subset, one read per ordered pair; the diagonal label is 1."""
    return [[spec.label(u, v) for v in T] for u in T]


def _cosine(m) -> float:
    """The cosine form at label m: -1 at an infinite label, 1.0 on the diagonal."""
    return -1.0 if m == INFINITY else -math.cos(math.pi / m)


def _close(y: list[float], s: int, atol: float) -> bool:
    """y is within atol + 1e-5 |e_s| of the basis row e_s, entry by entry."""
    return abs(y[s] - 1.0) <= atol + 1e-5 and max(map(abs, y[:s] + y[s + 1:]), default=0.0) <= atol


def _reflection_rows(T: tuple[str, ...], labels: list[list]) -> list[tuple[float, ...]]:
    """Row r_s of each generator g_s, checked; g_s is the identity but for that row.

    Generator s sends e_s to -e_s and every other e_t to e_t + 2 cos(pi / m_st) e_s,
    so y g_s = y + y_s (r_s - e_s).  Involutivity and the dihedral orders of
    generator pairs are verified here: only row s of g_s g_s, and rows i and
    j of (g_i g_j)^m, can differ from the identity, and e_i (g_i g_j)^m is
    e_i plus a multiple of r_i - e_i and one of r_j - e_j, each the sum of
    the coordinates its steps read.
    """
    n = len(T)
    rows = [tuple(float(s == t) - 2.0 * _cosine(m) for t, m in enumerate(labels[s])) for s in range(n)]
    for s, row in enumerate(rows):
        if not _close([c + row[s] * (c - (t == s)) for t, c in enumerate(row)], s, _CONSTRUCTION_TOL):
            raise ArithmeticError(f"generator {T[s]} is not an involution")
    for i in range(n):
        for j in range(i + 1, n):
            if (m := labels[i][j]) == INFINITY:
                continue
            ri, rj = rows[i], rows[j]
            for start in (i, j):
                a, b, A, B = float(start == i), float(start == j), 0.0, 0.0
                for _ in range(m):
                    A += a
                    a, b = a * ri[i], b + a * ri[j]
                    B += b
                    a, b = a + b * rj[i], b * rj[j]
                y = [(t == start) + A * (ri[t] - (t == i)) + B * (rj[t] - (t == j)) for t in range(n)]
                if not _close(y, start, 1e-6):
                    raise ArithmeticError(f"product of {T[i]}, {T[j]} does not have order {m}")
    return rows


def _exact(v: float) -> float:
    """A computed root coefficient, read as 0 near zero; raises where its value is in doubt."""
    size = abs(v)
    if size < _ZERO:
        return 0.0
    if size < _MARGIN or size > _LARGEST:
        raise NumericCollision(
            f"root coefficient {v:.6g} is neither within {_ZERO} of 0 nor in [{_MARGIN}, {_LARGEST:.0f}]"
        )
    return v


def _orbit_count(rows, k: int, bound: int) -> int | None:
    """Size of the orbit of e_k under g_0, ..., g_k on coordinates 0..k; None past bound.

    y g_s scales coordinate s by r_s[s] and adds y_s r_s[t] to each
    diagram neighbour t of s; the other coordinates stay, so only the
    changed ones are computed and checked.
    """
    moves = []
    for s in range(k + 1):
        row = rows[s]
        moves.append((s, row[s], [(t, c) for t in range(k + 1) if t != s and (c := _exact(row[t]))]))
    frontier = [[0.0] * k + [1.0]]
    count = 1
    while frontier:
        layer = []
        for y in frontier:
            for s, own, neighbours in moves:
                ys = y[s]
                if ys <= 0.0:
                    continue
                z = y.copy()
                z[s] = v = _exact(ys * own)
                for t, c in neighbours:
                    z[t] = _exact(z[t] + c * ys)
                if v < 0 and min(z[:s], default=0.0) >= 0:
                    layer.append(z)
                    count += 1
                    if count > bound:
                        return None
        frontier = layer
    return count


def _order(rows, cap: int) -> int | None:
    """|W_T| as the product of the indices [W_{T_k} : W_{T_{k-1}}]; None past cap.

    Stage k stops once its index passes cap // (order so far), so the
    result is the order when it is at most cap and None otherwise.
    """
    order = 1
    for k in range(len(rows)):
        count = _orbit_count(rows, k, cap // order)
        if count is None:
            return None
        order *= count
    return order


def enumerate_order(spec: CoxeterSpec, subset, cap: int = 10 ** 6) -> int | None:
    """Exact order of the subgroup generated by a subset, or None past the cap.

    The labels are read once.  A pair with label m generates a dihedral
    group of order 2m, so 2m > cap (an infinite label included) gives None
    at once.  Raises NumericCollision if a computed root coefficient is too
    close to the margin, or too large, for its value to be trusted.
    """
    T = spec.check_subset(subset)
    if len(T) > 8:
        raise ValueError("enumeration is limited to subsets of at most 8 vertices")
    if not 1 <= cap <= 10 ** 6:
        raise ValueError(f"cap must be between 1 and 10^6, got {cap}")
    labels = _labels(spec, T)
    if any(2 * m > cap for i, row in enumerate(labels) for m in row[i + 1:]):
        return None
    return _order(_reflection_rows(T, labels), cap)


def verify_classification(spec: CoxeterSpec, subset) -> bool:
    """Cross-check the diagram classifier against brute-force enumeration.

    A spherical verdict must reproduce its order exactly under a cap of
    twice the claimed order (refused past the 10^6 budget); a non-spherical
    verdict must fail to close within _INFINITE_CAP elements.
    """
    T = spec.check_subset(subset)
    verdict = classify(spec, T)
    if verdict.spherical:
        cap = 2 * verdict.order
        if cap > 10 ** 6:
            raise ValueError(f"claimed order {verdict.order} exceeds the oracle budget")
        return enumerate_order(spec, T, cap=cap) == verdict.order
    return enumerate_order(spec, T, cap=_INFINITE_CAP) is None
