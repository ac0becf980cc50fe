#!/usr/bin/env python3
"""K5 with every edge labelled 3 is not planar.

The complete graph on five vertices, labelled so that each pair of
generators braids with order 3, is its own nerve: no triangle is
spherical, so the complex stays 1-dimensional.  Its orbihedral Euler
characteristic is positive, and for an infinite group of dimension <= 2
the alternating-sum identity forces the dimension-2 Betti entry above it.
A planar complex would have that entry equal to zero, so the graph cannot
embed in the 2-sphere.
"""

from coxeter_l2 import (
    betti,
    build_nerve,
    certify_nonplanar,
    chi_orb,
    chi_orb_chain_sum,
    planar_rotation,
)
from coxeter_l2.catalog import complete_graph_spec
from coxeter_l2.nerve import SimplicialComplex


def main():
    spec = complete_graph_spec(5, 3)
    nerve = build_nerve(spec)
    print("K5, all edges labelled 3")
    print(f"  nerve: {len(nerve.vertices)} vertices, {len(nerve.edges)} edges, "
          f"{len(nerve.triangles)} triangles (dimension {nerve.dimension})")

    chi = chi_orb(nerve)
    print(f"  chi_orb = {chi}   (chain-level oracle: {chi_orb_chain_sum(nerve)})")

    vector = betti(nerve)
    print(f"  betti vector: {vector}  -- the engine leaves dims 1, 2 open,")
    print(f"  but chi_orb = -beta_1 + beta_2 <= beta_2 pins beta_2 >= {chi} > 0")

    cert = certify_nonplanar(spec)
    print(f"\ncertificate: {cert.verdict}, bound {cert.bound}")
    for step in cert.chain:
        values = ", ".join(f"{k} = {v}" for k, v in step.values.items())
        print(f"  cite {step.statement}: {step.applied_to}  [{values}]")

    skeleton = SimplicialComplex(
        spec.vertices,
        [(v,) for v in spec.vertices] + [(u, v) for u, v, _ in spec.finite_edges()],
    )
    print(f"\nclassical cross-check (left-right planarity test): "
          f"planar = {planar_rotation(skeleton) is not None}")


if __name__ == "__main__":
    main()
