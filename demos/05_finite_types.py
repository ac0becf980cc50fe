#!/usr/bin/env python3
"""Finite-type classification cross-checked by chamber-orbit enumeration.

The diagram classifier decides sphericity exactly; the reflection
representation provides an independent brute-force count of the group
order, as the product of the indices along a chain of parabolic
subgroups, each the size of the orbit of a point on the walls of the
closed fundamental chamber.  The two must agree on every finite type, and
the enumeration must fail to close for affine shapes such as the (3,3,3)
triangle.
"""

from coxeter_l2 import classify, enumerate_order, verify_classification
from coxeter_l2.catalog import complete_graph_spec, path_spec
from coxeter_l2.model import CoxeterSpec

CASES = [
    ("A2 = I2(3)", path_spec([3])),
    ("B2 = I2(4)", path_spec([4])),
    ("I2(7)", path_spec([7])),
    ("A3", path_spec([3, 3])),
    ("B3", path_spec([3, 4])),
    ("H3", path_spec([3, 5])),
    ("A4", path_spec([3, 3, 3])),
    ("B4", path_spec([3, 3, 4])),
    ("F4", path_spec([3, 4, 3])),
    ("H4", path_spec([3, 3, 5])),
    ("D4", CoxeterSpec(
        ["c", "p", "q", "r"],
        {("c", "p"): 3, ("c", "q"): 3, ("c", "r"): 3,
         ("p", "q"): 2, ("p", "r"): 2, ("q", "r"): 2})),
]


def main():
    print(f"{'diagram':12} {'classified':>10} {'enumerated':>10}  agree")
    for name, spec in CASES:
        verdict = classify(spec, spec.vertices)
        enumerated = enumerate_order(spec, spec.vertices, cap=2 * verdict.order)
        ok = verify_classification(spec, spec.vertices)
        print(f"{name:12} {verdict.order:>10} {enumerated:>10}  {ok}")

    triangle = complete_graph_spec(3, 3)
    print("\n(3,3,3) triangle: classified spherical =",
          classify(triangle, triangle.vertices).spherical,
          "| enumeration closes under 3000 elements:",
          enumerate_order(triangle, triangle.vertices, cap=3000) is not None)


if __name__ == "__main__":
    main()
