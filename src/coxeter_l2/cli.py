"""Command-line front end.

Every command is a thin adapter over the library: it loads documents,
calls one operation, and renders the result either as human-readable text
or as a structured JSON document (``--format structured``).  Exit codes:
0 success, 2 inconclusive certificate, 1 error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from coxeter_l2.invariants import (
    UNKNOWN,
    RuleContext,
    _rational,
    betti,
    chi_orb,
    chi_orb_chain_sum,
)
from coxeter_l2.model import CoxeterSpec, parse_spec
from coxeter_l2.nerve import RotationSystem, SimplicialComplex, build_nerve, full_subcomplex
from coxeter_l2.planarity import (
    certify_nonplanar,
    cone_construction,
    planar_rotation,
    trace_vanishing,
)
from coxeter_l2.spherical import classify
from coxeter_l2.enumeration import enumerate_order


def _load_json(path: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))  # JSON text is UTF-8
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc


def _load_spec(path: str) -> CoxeterSpec:
    return parse_spec(_load_json(path))


def _load_rotation(path: str) -> RotationSystem:
    return RotationSystem.from_document(_load_json(path))


def _subset(arg: str) -> list[str]:
    names, seen = [part.strip() for part in arg.split(",") if part.strip()], set()
    for name in names:  # a subset names each vertex once, as a document lists it
        if name in seen:
            raise ValueError(f"--subset names {name!r} twice")
        seen.add(name)
    return names


def _emit(args, text_lines: list[str], document: dict) -> None:
    if args.format == "structured":
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_validate(args) -> int:
    spec = _load_spec(args.spec)
    _emit(
        args,
        [f"ok: {len(spec.vertices)} vertices, {len(spec.finite_edges())} finite edges"],
        {
            "ok": True,
            "vertices": len(spec.vertices),
            "finite_edges": len(spec.finite_edges()),
        },
    )
    return 0


def _cmd_nerve(args) -> int:
    nerve = build_nerve(_load_spec(args.spec))
    counts = " ".join(str(c) for c in nerve.counts())
    lines = [f"dimension: {nerve.dimension}", f"counts: {counts or '(empty)'}"]
    for d in range(nerve.dimension + 1):
        lines.append(
            f"dim {d}: " + " ".join("{" + ",".join(s) + "}" for s in nerve.simplices(d))
        )
    _emit(args, lines, nerve.to_document())
    return 0


def _cmd_classify(args) -> int:
    spec = _load_spec(args.spec)
    verdict = classify(spec, _subset(args.subset))
    if verdict.spherical:
        names = ", ".join(
            f"{c.name}{{{','.join(c.vertices)}}}" for c in verdict.components
        )
        lines = ["spherical: true", f"order: {verdict.order}", f"components: {names or '(empty)'}"]
    else:
        lines = ["spherical: false"]
    _emit(
        args,
        lines,
        {
            "spherical": verdict.spherical,
            "order": verdict.order if verdict.spherical else None,
            "components": [
                {"name": c.name, "vertices": list(c.vertices), "order": c.order}
                for c in verdict.components
            ],
        },
    )
    return 0


def _cmd_chi(args) -> int:
    nerve = build_nerve(_load_spec(args.spec))
    value = chi_orb(nerve)
    lines = [str(value)]
    doc = {"chi_orb": _rational(value)}
    if args.chain_oracle:
        oracle = chi_orb_chain_sum(nerve)
        if oracle != value:
            raise RuntimeError(
                f"chain oracle mismatch: collapsed {value} vs chains {oracle}"
            )
        lines.append("chain-oracle: agrees")
        doc["chain_oracle"] = _rational(oracle)
    _emit(args, lines, doc)
    return 0


def _cmd_betti(args) -> int:
    spec = _load_spec(args.spec)
    witness = None
    if args.ambient:
        ambient = build_nerve(_load_spec(args.ambient))
        subset = _subset(args.subset) if args.subset is not None else spec.vertices
        target, witness = full_subcomplex(ambient, subset)
        if set(target.vertices) != set(spec.vertices) or target.spec.finite_edges() != spec.finite_edges():
            raise ValueError(
                "target spec does not match the induced subcomplex of the ambient"
            )
    elif args.subset is not None:
        ambient = build_nerve(spec)
        target, witness = full_subcomplex(ambient, _subset(args.subset))
    else:
        target = build_nerve(spec)
    embedding = _load_rotation(args.embedding) if args.embedding else None
    ctx = None
    if witness is not None or embedding is not None:
        ctx = RuleContext(witness=witness, embedding=embedding)
    vector = betti(target, ctx)
    lines = [repr(vector)]
    for i in range(vector.top + 1):
        entry = vector.get(i)
        shown = "?" if entry is UNKNOWN else str(entry)
        lines.append(f"beta_{i} = {shown}  [{vector.provenance_for(i)}]")
    _emit(args, lines, vector.to_document())
    return 0


def _cmd_certify(args) -> int:
    cert = certify_nonplanar(_load_spec(args.spec))
    doc = cert.to_document()
    lines = [f"verdict: {cert.verdict}", f"bound: {doc['bound']}"]
    if cert.reason:
        lines.append(f"reason: {cert.reason}")
    for step in cert.chain:
        values = ", ".join(f"{k}={v}" for k, v in step.values.items())
        lines.append(f"cite {step.statement}: {step.applied_to} [{values}]")
    for note in cert.notes:
        lines.append(f"note: {note}")
    if args.out:
        try:
            Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc}") from exc
    _emit(args, lines, doc)
    return 0 if cert.verdict == "NotPlanar" else 2


def _cmd_cone(args) -> int:
    nerve = build_nerve(_load_spec(args.spec))
    coned, witness = cone_construction(nerve, _load_rotation(args.embedding))
    added = sorted(set(coned.vertices) - set(nerve.vertices))
    lines = [
        f"cone vertices: {' '.join(added)}",
        f"dimension: {coned.dimension}",
        f"counts: {' '.join(str(c) for c in coned.counts())}",
        "sphere: TwoSphere",
        "full: True",
        f"right_angled_complement: {witness.right_angled_complement}",
    ]
    lines.extend(f"note: {n}" for n in witness.notes)
    _emit(
        args,
        lines,
        {
            "nerve": coned.to_document(),
            "witness": {
                "vertex_set": list(witness.vertex_set),
                "full": True,
                "right_angled_complement": witness.right_angled_complement,
                "notes": list(witness.notes),
            },
        },
    )
    return 0


def _cmd_trace(args) -> int:
    ambient = build_nerve(_load_spec(args.spec))
    trace = trace_vanishing(ambient, _subset(args.subset))
    lines = [f"target: {{{','.join(trace.target)}}}", f"steps: {len(trace.steps)}"]
    for step in trace.steps:
        lines.append(
            f"remove {step.removed}: link {{{','.join(step.link_vertices)}}} "
            "full=True"
        )
    lines.append(trace.conclusion)
    lines.extend(f"note: {n}" for n in trace.notes)
    _emit(args, lines, trace.to_document())
    return 0


def _cmd_enumerate(args) -> int:
    spec = _load_spec(args.spec)
    order = enumerate_order(spec, _subset(args.subset), cap=args.cap)
    if order is None:
        _emit(args, ["ExceedsCap"], {"order": None, "exceeds_cap": True})
    else:
        _emit(args, [f"order: {order}"], {"order": order, "exceeds_cap": False})
    return 0


def _cmd_planar_oracle(args) -> int:
    spec = _load_spec(args.spec)
    skeleton = SimplicialComplex(spec.vertices, [(u, v) for u, v, _ in spec.finite_edges()])
    verdict = planar_rotation(skeleton) is not None
    _emit(args, [f"planar: {'true' if verdict else 'false'}"], {"planar": verdict})
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError, so main reports them like any other bad input."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="coxl2",
        description="l2-invariants of Coxeter nerves and non-planarity certificates",
    )
    parser.add_argument(
        "--format",
        choices=["text", "structured"],
        default="text",
        help="text (default) or structured JSON output",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a system document")
    p.add_argument("spec")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("nerve", help="build the nerve and list simplices by dimension")
    p.add_argument("spec")
    p.set_defaults(func=_cmd_nerve)

    p = sub.add_parser("classify", help="finite-type classification of a vertex subset")
    p.add_argument("spec")
    p.add_argument("--subset", required=True, help="comma-separated vertex list")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("chi", help="orbihedral Euler characteristic")
    p.add_argument("spec")
    p.add_argument(
        "--chain-oracle",
        action="store_true",
        help="also run the chain-level sum and require agreement",
    )
    p.set_defaults(func=_cmd_chi)

    p = sub.add_parser("betti", help="evaluate the l2-Betti vector")
    p.add_argument("spec")
    p.add_argument("--ambient", help="ambient system document (subcomplex witness)")
    p.add_argument("--subset", help="vertex subset of the ambient system")
    p.add_argument("--embedding", help="rotation-system document (planar witness)")
    p.set_defaults(func=_cmd_betti)

    p = sub.add_parser("certify", help="attempt a non-planarity certificate")
    p.add_argument("spec")
    p.add_argument("--out", help="write the certificate document to this path")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("cone", help="complete an embedded complex to a 2-sphere nerve")
    p.add_argument("spec")
    p.add_argument("--embedding", required=True, help="rotation-system document")
    p.set_defaults(func=_cmd_cone)

    p = sub.add_parser("trace", help="vertex-removal vanishing trace")
    p.add_argument("spec", help="ambient system document (a 2-sphere nerve)")
    p.add_argument("--subset", required=True, help="target vertex subset")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("enumerate", help="brute-force subgroup order enumeration")
    p.add_argument("spec")
    p.add_argument("--subset", required=True)
    p.add_argument("--cap", type=int, default=10 ** 6)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("planar-oracle", help="left-right planarity test of the 1-skeleton")
    p.add_argument("spec")
    p.set_defaults(func=_cmd_planar_oracle)

    return parser


PARSER = build_parser()  # built once; parse_args keeps no state between calls


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
        return args.func(args)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        message = str(exc).replace("\r", "\\r").replace("\n", "\\n")  # a vertex name may hold a line break
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
