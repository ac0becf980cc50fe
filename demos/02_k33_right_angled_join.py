#!/usr/bin/env python3
"""K3,3 as a right-angled join, and why it is not planar.

With all nine edges labelled 2, the complete bipartite graph K3,3 is the
join of two copies of three disjoint points: every cross pair commutes.
The Betti vector of three points is (0, 1/2) -- beta_0 vanishes for an
infinite group and the Euler characteristic -1/2 completes the vector --
and the Kunneth product over the join turns the two 1/2 entries into
beta_2 = 1/4 > 0, which planarity would forbid.
"""

from coxeter_l2 import (
    betti,
    build_nerve,
    certify_nonplanar,
    chi_orb,
    diagram_components,
    join2,
)
from coxeter_l2.catalog import complete_bipartite_spec, points_spec


def main():
    spec = complete_bipartite_spec(3, 3)
    nerve = build_nerve(spec)
    print("K3,3, all edges labelled 2 (the right-angled case)")
    print(f"  chi_orb = {chi_orb(nerve)}")

    factors = diagram_components(nerve.spec, nerve.vertices)
    print(f"  detected join factors: " + " * ".join("{" + ",".join(f) + "}" for f in factors))

    side = build_nerve(points_spec(3))
    side_vector = betti(side)
    print(f"  factor (three points): chi_orb = {chi_orb(side)}, betti = {side_vector}")

    vector = betti(nerve)
    print(f"  K3,3 betti = {vector}")
    for i in range(vector.top + 1):
        print(f"    beta_{i} = {vector.get(i)}   [{vector.provenance_for(i)}]")

    rebuilt = join2(build_nerve(points_spec(3, prefix="a")),
                    build_nerve(points_spec(3, prefix="b")))
    print(f"  join2(P3, P3) rebuilds the same vector: {betti(rebuilt)}")

    cert = certify_nonplanar(spec)
    print(f"\ncertificate: {cert.verdict}, bound {cert.bound}")
    for step in cert.chain:
        print(f"  cite {step.statement}: {step.applied_to}")


if __name__ == "__main__":
    main()
