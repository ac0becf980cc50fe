#!/usr/bin/env python3
"""Completing an embedded complex to a sphere, and the vanishing trace.

An embedded complex of dimension <= 2 extends to a 2-sphere nerve by
placing one new vertex in each complementary region and coning its
boundary with label-2 edges; the original complex sits inside as a full
subcomplex with right-angled complement.  The vanishing of its higher
l2-homology then follows by removing the cone vertices one at a time:
each step peels off a right-angled cone over a link that is full inside a
circle, and the Mayer-Vietoris decomposition transfers the vanishing.
"""

from coxeter_l2 import build_nerve, chi_orb, cone_construction, recognize_sphere, trace_vanishing
from coxeter_l2.catalog import K4_ROTATION, complete_graph_spec, cycle_spec


def show(name, nerve, rot):
    sphere, witness = cone_construction(nerve, rot)
    added = sorted(set(sphere.vertices) - set(nerve.vertices))
    print(f"{name}:")
    print(f"  coned with {len(added)} new vertices -> counts {sphere.counts()}, "
          f"{recognize_sphere(sphere).value}, chi_orb = {chi_orb(sphere)}")
    print("  full subcomplex: True, right-angled complement: "
          f"{witness.right_angled_complement}")
    trace = trace_vanishing(sphere, nerve.vertices)
    for step in trace.steps:
        print(f"  remove {step.removed}: link {{{','.join(step.link_vertices)}}} "
              f"is full in the ambient sphere")
    print(f"  conclusion: {trace.conclusion}\n")


def main():
    hexn = build_nerve(cycle_spec(6, 2))
    hex_rot = {v: list(hexn.neighbors(v)) for v in hexn.vertices}
    show("hexagon at 2 (both regions coned: a bipyramid)", hexn, hex_rot)

    k4 = build_nerve(complete_graph_spec(4, 3))
    show("K4 at 3 (four empty 3-cycles coned: an octahedral sphere)", k4, K4_ROTATION)


if __name__ == "__main__":
    main()
