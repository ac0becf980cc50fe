"""The small-graph census: every connected graph on at most 7 vertices, under three labellings.

The networkx graph atlas lists the 996 connected graphs on 1 to 7
vertices: 221 non-planar and 775 planar.  Each becomes a Coxeter system
whose edges carry finite labels and whose non-edges are infinite, under
three labellings: every label 3, every label 2, and 3 on the edges that
lie on a triangle with 2 elsewhere.  Three things are checked per
labelling:

- soundness: certify_nonplanar answers NotPlanar on no planar graph;
- reach: it proves at least a pinned number of the non-planar graphs;
- the Betti engine leaves no entry unknown on at least a pinned number of
  all 996 graphs.

A change that raises a count raises its floor with it, so the census
records every gain in answers; a count below its floor is a lost answer.
networkx is a test dependency only, and the census takes about two
seconds.
"""

import pytest

from coxeter_l2 import betti, build_nerve, certify_nonplanar
from coxeter_l2.model import CoxeterSpec

nx = pytest.importorskip("networkx")

LABELLINGS = ("every 3", "every 2", "3 on triangles")
REACH_FLOORS = {"every 3": 45, "every 2": 24, "3 on triangles": 61}
FULLY_KNOWN_FLOORS = {"every 3": 7, "every 2": 45, "3 on triangles": 17}


def labelled_spec(graph, labelling: str) -> CoxeterSpec:
    labels = {}
    for u, v in graph.edges:
        on_triangle = any(True for _ in nx.common_neighbors(graph, u, v))
        m = 2 if labelling == "every 2" or labelling == "3 on triangles" and not on_triangle else 3
        labels[(f"x{u}", f"x{v}")] = m
    return CoxeterSpec([f"x{v}" for v in graph], labels)


@pytest.fixture(scope="module")
def census() -> dict[str, dict[str, int]]:
    """Per labelling: graphs proved non-planar, planar graphs answered NotPlanar, fully known Betti vectors."""
    graphs = [(g, nx.check_planarity(g)[0]) for g in nx.graph_atlas_g() if len(g) and nx.is_connected(g)]
    assert len(graphs) == 996 and sum(planar for _, planar in graphs) == 775
    counts = {}
    for labelling in LABELLINGS:
        proved = unsound = known = 0
        for graph, planar in graphs:
            spec = labelled_spec(graph, labelling)
            if certify_nonplanar(spec).verdict == "NotPlanar":
                unsound += planar
                proved += not planar
            known += betti(build_nerve(spec)).fully_known
        counts[labelling] = {"proved": proved, "unsound": unsound, "fully known": known}
    return counts


@pytest.mark.parametrize("labelling", LABELLINGS)
def test_no_planar_graph_is_certified_nonplanar(census, labelling):
    assert census[labelling]["unsound"] == 0


@pytest.mark.parametrize("labelling", LABELLINGS)
def test_nonplanar_graphs_proved_reach_their_floor(census, labelling):
    assert census[labelling]["proved"] >= REACH_FLOORS[labelling]


@pytest.mark.parametrize("labelling", LABELLINGS)
def test_fully_known_betti_vectors_reach_their_floor(census, labelling):
    assert census[labelling]["fully known"] >= FULLY_KNOWN_FLOORS[labelling]
