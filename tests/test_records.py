"""The result records are immutable NamedTuples.

FiniteTypeComponent, SphericalVerdict, SubcomplexWitness, RuleContext,
CitedStep, Certificate, TraceStep and ProofTrace keep the field order,
defaults and ``Name(field=value, ...)`` repr they had as frozen
dataclasses.  Being tuples, they index, iterate and compare equal to plain
tuples, and ``_replace``, ``_asdict`` and ``_fields`` stand in for the
dataclasses helpers.
"""

import pytest

from coxeter_l2 import (
    Certificate,
    FiniteTypeComponent,
    ProofTrace,
    RuleContext,
    SphericalVerdict,
    SubcomplexWitness,
    TraceStep,
    betti,
    build_nerve,
    certify_nonplanar,
    classify,
    full_subcomplex,
    trace_vanishing,
)
from coxeter_l2.catalog import complete_bipartite_spec, complete_graph_spec, octahedron_spec, path_spec
from coxeter_l2.planarity import CitedStep

FIELDS = {
    FiniteTypeComponent: (("kind", "rank", "order", "vertices", "m"), {"m": None}),
    SphericalVerdict: (("spherical", "components", "order"), {}),
    SubcomplexWitness: (("ambient", "vertex_set", "right_angled_complement", "notes"), {"notes": ()}),
    RuleContext: (("witness", "embedding"), {"witness": None, "embedding": None}),
    CitedStep: (("statement", "applied_to", "values"), {}),
    Certificate: (("verdict", "subject", "bound", "chain", "reason", "notes"), {"reason": None, "notes": ()}),
    TraceStep: (("removed", "before", "after", "link_vertices", "justification"), {}),
    ProofTrace: (("ambient", "target", "steps", "conclusion", "notes"), {"notes": ()}),
}


def samples() -> dict[type, list]:
    """Records of each kind from one fresh run of the library, keyed by class."""
    octahedron = build_nerve(octahedron_spec())
    k4 = complete_graph_spec(4, 3)
    verdicts = [
        classify(path_spec([5, 3]), ["v0", "v1", "v2"]),
        classify(path_spec([7]), ["v0", "v1"]),
        classify(k4, k4.vertices),
        classify(k4, []),
    ]
    _, witness = full_subcomplex(octahedron, ["x0", "x1"])
    certificates = [
        certify_nonplanar(complete_graph_spec(5, 3)),
        certify_nonplanar(complete_bipartite_spec(3, 3)),
        certify_nonplanar(complete_graph_spec(3, 3)),
        certify_nonplanar(path_spec([3])),  # W is finite: no chain
    ]
    trace = trace_vanishing(octahedron, ["x0", "x1", "y0", "y1"])
    return {
        FiniteTypeComponent: [comp for verdict in verdicts for comp in verdict.components],
        SphericalVerdict: verdicts,
        SubcomplexWitness: [witness],
        RuleContext: [RuleContext(), RuleContext(witness=witness), RuleContext(embedding={"a": ("b",)})],
        CitedStep: [step for cert in certificates for step in cert.chain] + list(map(betti(octahedron).step, range(4))),
        Certificate: certificates,
        TraceStep: list(trace.steps),
        ProofTrace: [trace],
    }


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_fields_and_defaults_are_those_of_the_frozen_dataclasses(cls):
    fields, defaults = FIELDS[cls]
    assert issubclass(cls, tuple)
    assert cls._fields == fields and cls._field_defaults == defaults


def test_records_index_and_replace_as_tuples():
    records = samples()
    assert all(records[cls] for cls in FIELDS)
    for rec in (rec for recs in records.values() for rec in recs):
        assert rec == tuple(rec) and list(rec._asdict()) == list(rec._fields)
        assert rec._replace() == rec


def test_repr_names_each_field():
    for rec in (rec for recs in samples().values() for rec in recs):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(rec._fields, rec))
        assert repr(rec) == f"{type(rec).__name__}({fields})"
    assert repr(classify(path_spec([7]), ["v0", "v1"])) == (
        "SphericalVerdict(spherical=True, components=(FiniteTypeComponent(kind='I2', rank=2, order=14, "
        "vertices=('v0', 'v1'), m=7),), order=14)"
    )
    assert repr(certify_nonplanar(path_spec([3]))) == (
        "Certificate(verdict='Inconclusive', subject=CoxeterSpec(2 vertices, 1 finite labels), "
        "bound=Fraction(0, 1), chain=(), reason='FiniteGroup', notes=())"
    )


def test_records_refuse_assignment():
    for rec in (rec for recs in samples().values() for rec in recs):
        for name in (rec._fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(rec, name, None)


def test_equal_records_hash_equally():
    first, second = samples(), samples()
    hashed = set()
    for cls in FIELDS:
        assert len(first[cls]) == len(second[cls])
        for a, b in zip(first[cls], second[cls]):
            assert a == b and a is not b
            try:
                digest = hash(a)
            except TypeError:  # a field holds a dict
                continue
            assert hash(b) == digest
            hashed.add(cls)
    # A cited step's values are a dict, so it never hashes; every other kind can.
    assert hashed == set(FIELDS) - {CitedStep}


def test_a_verdict_is_truthy_exactly_when_spherical():
    verdicts = samples()[SphericalVerdict]
    assert {verdict.spherical for verdict in verdicts} == {True, False}
    for verdict in verdicts:
        assert bool(verdict) is verdict.spherical
