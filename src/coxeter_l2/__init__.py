"""Exact l2-homological invariants of Coxeter systems.

A Coxeter system is given by a finite vertex set and a symmetric integer
labelling m(u, v) >= 2 (infinity for absent pairs).  From that data the
library builds the nerve -- the simplicial complex whose simplices are the
subsets generating finite subgroups -- and computes, in exact rational
arithmetic, the orbihedral Euler characteristic and those l2-Betti numbers
that the implemented vanishing rules determine.  On top of the rule engine
it produces machine-checkable non-planarity certificates: a labelled
complex whose second l2-Betti number is provably positive cannot embed in
the 2-sphere, which reproduces the classical non-planarity of K5 (all
edges labelled 3) and K3,3 (right-angled).
"""

from coxeter_l2.model import (
    INFINITY,
    CoxeterSpec,
    SpecError,
    MalformedDocument,
    DuplicateVertex,
    ConflictingLabel,
    LabelOutOfRange,
    UnknownVertex,
    parse_spec,
    induced_subspec,
)
from coxeter_l2.spherical import (
    FiniteTypeComponent,
    SphericalVerdict,
    diagram_components,
    classify,
)
from coxeter_l2.nerve import (
    CapExceeded,
    SimplicialComplex,
    Nerve,
    SubcomplexWitness,
    SphereKind,
    build_nerve,
    full_subcomplex,
    induced_nerve,
    link,
    is_full_subcomplex,
    join2,
    recognize_sphere,
    RotationSystem,
    NotSpherical,
)
from coxeter_l2.invariants import (
    UNKNOWN,
    BettiVector,
    RuleContext,
    InvalidWitness,
    ContradictoryRules,
    chi_orb,
    chi_orb_chain_sum,
    betti,
)
from coxeter_l2.planarity import (
    Certificate,
    ProofTrace,
    TraceStep,
    NonSimpleFaceBoundary,
    HypothesisViolated,
    cone_construction,
    certify_nonplanar,
    trace_vanishing,
    brute_force_planar,
    planar_rotation,
)
from coxeter_l2.enumeration import (
    NumericCollision,
    enumerate_order,
    verify_classification,
)

__version__ = "0.1.0"

__all__ = [
    "INFINITY",
    "CoxeterSpec",
    "SpecError",
    "MalformedDocument",
    "DuplicateVertex",
    "ConflictingLabel",
    "LabelOutOfRange",
    "UnknownVertex",
    "parse_spec",
    "induced_subspec",
    "FiniteTypeComponent",
    "SphericalVerdict",
    "diagram_components",
    "classify",
    "CapExceeded",
    "SimplicialComplex",
    "Nerve",
    "SubcomplexWitness",
    "SphereKind",
    "build_nerve",
    "full_subcomplex",
    "induced_nerve",
    "link",
    "is_full_subcomplex",
    "join2",
    "recognize_sphere",
    "RotationSystem",
    "NotSpherical",
    "UNKNOWN",
    "BettiVector",
    "RuleContext",
    "InvalidWitness",
    "ContradictoryRules",
    "chi_orb",
    "chi_orb_chain_sum",
    "betti",
    "Certificate",
    "ProofTrace",
    "TraceStep",
    "NonSimpleFaceBoundary",
    "HypothesisViolated",
    "cone_construction",
    "certify_nonplanar",
    "trace_vanishing",
    "brute_force_planar",
    "planar_rotation",
    "NumericCollision",
    "enumerate_order",
    "verify_classification",
]
