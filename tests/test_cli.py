import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import coxeter_l2
from coxeter_l2 import cli
from coxeter_l2.cli import main
from coxeter_l2.catalog import (
    complete_bipartite_spec,
    complete_graph_spec,
    cycle_spec,
    icosahedron_spec,
    octahedron_spec,
)


@pytest.fixture
def docs(tmp_path):
    paths = {}

    def write(name, payload):
        p = tmp_path / name
        p.write_text(json.dumps(payload))
        paths[name] = str(p)

    write("k5.json", complete_graph_spec(5, 3).to_document())
    write("k33.json", complete_bipartite_spec(3, 3).to_document())
    write("hexagon.json", cycle_spec(6, 2).to_document())
    write("octahedron.json", octahedron_spec().to_document())
    hexn = cycle_spec(6, 2)
    rot = {}
    for v in hexn.vertices:
        rot[v] = [u for u, w, _ in hexn.finite_edges() if w == v] + [
            w for u, w, _ in hexn.finite_edges() if u == v
        ]
    write("hexrot.json", rot)
    write("bad.json", {"vertices": ["a", "a"]})
    return paths


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate(docs, capsys):
    code, out, _ = run(capsys, ["validate", docs["k5.json"]])
    assert code == 0
    assert "5 vertices" in out and "10 finite edges" in out


def test_main_reuses_one_parser(docs, capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1))
    argvs = (["validate", docs["k5.json"]], ["validate", docs["bad.json"]], ["planar-oracle", docs["k5.json"]])
    assert [run(capsys, argv)[0] for argv in argvs] == [0, 1, 0]
    assert built == []


def test_validate_error_exit_one(docs, capsys):
    code, _, err = run(capsys, ["validate", docs["bad.json"]])
    assert code == 1
    assert "error" in err


def test_missing_file_exit_one(capsys):
    code, _, err = run(capsys, ["validate", "/nonexistent/x.json"])
    assert code == 1
    assert "error" in err


def test_nerve_structured(docs, capsys):
    code, out, _ = run(capsys, ["--format", "structured", "nerve", docs["octahedron.json"]])
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 2
    assert len(doc["simplices"]["2"]) == 8
    assert doc["spec"]["vertices"] == ["x0", "x1", "y0", "y1", "z0", "z1"]


def test_classify(docs, capsys):
    code, out, _ = run(capsys, ["classify", docs["k5.json"], "--subset", "v0,v1"])
    assert code == 0
    assert "order: 6" in out
    code, out, _ = run(capsys, ["classify", docs["k5.json"], "--subset", "v0,v1,v2"])
    assert "spherical: false" in out


def test_chi_text(docs, capsys):
    code, out, _ = run(capsys, ["chi", docs["hexagon.json"]])
    assert code == 0
    assert out.strip() == "-1/2"


def test_chi_chain_oracle(docs, capsys):
    code, out, _ = run(capsys, ["chi", docs["k5.json"], "--chain-oracle"])
    assert code == 0
    assert "1/6" in out and "agrees" in out


def test_betti_k33(docs, capsys):
    code, out, _ = run(capsys, ["betti", docs["k33.json"]])
    assert code == 0
    assert "(0, 0, 1/4)" in out
    assert "R-join" in out


def test_betti_with_subset(docs, capsys):
    code, out, _ = run(capsys, ["betti", docs["hexagon.json"], "--subset", "v0,v1,v2"])
    assert code == 0
    assert "R-sub1" in out


def test_betti_with_ambient(docs, capsys, tmp_path):
    from coxeter_l2.model import induced_subspec

    arc = induced_subspec(cycle_spec(6, 2), ["v0", "v1", "v2"])
    p = tmp_path / "arc.json"
    p.write_text(json.dumps(arc.to_document()))
    code, out, _ = run(
        capsys,
        ["betti", str(p), "--ambient", docs["hexagon.json"], "--subset", "v0,v1,v2"],
    )
    assert code == 0
    assert "R-sub1" in out


def test_betti_with_mismatched_ambient_is_an_error(capsys):
    data = Path(__file__).resolve().parent.parent / "demos" / "data"
    argv = ["betti", str(data / "k4.json"), "--ambient", str(data / "hexagon.json"), "--subset", "v0,v1,v2,v3"]
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert err == "error: target spec does not match the induced subcomplex of the ambient\n"


def test_betti_with_embedding(docs, capsys, tmp_path):
    spec = complete_graph_spec(4, 3)
    sp = tmp_path / "k4.json"
    sp.write_text(json.dumps(spec.to_document()))
    rot = {
        "v0": ["v1", "v3", "v2"],
        "v1": ["v0", "v2", "v3"],
        "v2": ["v0", "v3", "v1"],
        "v3": ["v0", "v1", "v2"],
    }
    rp = tmp_path / "k4rot.json"
    rp.write_text(json.dumps(rot))
    code, out, _ = run(capsys, ["betti", str(sp), "--embedding", str(rp)])
    assert code == 0
    assert "R-planar" in out


def test_certify_k5(docs, capsys, tmp_path):
    out_path = tmp_path / "cert.json"
    code, out, _ = run(capsys, ["certify", docs["k5.json"], "--out", str(out_path)])
    assert code == 0
    assert "NotPlanar" in out
    assert "1/6" in out
    saved = json.loads(out_path.read_text())
    assert saved["verdict"] == "NotPlanar"
    assert saved["bound"] == "1/6"
    assert saved["chain"][-1]["statement"] == "planar-vanishing"


def test_certify_out_to_missing_directory_is_an_error(docs, capsys, tmp_path):
    out_path = tmp_path / "missing" / "cert.json"
    code, out, err = run(capsys, ["certify", docs["k5.json"], "--out", str(out_path)])
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot write {out_path}: ") and err.count("\n") == 1
    assert not out_path.parent.exists()


def test_certify_names_the_witnessing_component(capsys, tmp_path):
    spec = complete_graph_spec(5, 3)
    doc = tmp_path / "k5_and_point.json"
    doc.write_text(json.dumps({**spec.to_document(), "vertices": [*spec.vertices, "w"]}))
    code, out, err = run(capsys, ["certify", str(doc)])
    assert (code, err) == (0, "")
    assert out.splitlines()[-2:] == [
        "note: subject has 2 components; certified per component, a non-planar component makes the whole non-planar",
        "note: witnessing component: {v0,v1,v2,v3,v4}",
    ]


def test_certify_inconclusive_exit_two(docs, capsys):
    code, out, _ = run(capsys, ["certify", docs["hexagon.json"]])
    assert code == 2
    assert "Inconclusive" in out
    assert "ObstructionSilent" in out


def test_cone_hexagon(docs, capsys):
    code, out, _ = run(
        capsys, ["cone", docs["hexagon.json"], "--embedding", docs["hexrot.json"]]
    )
    assert code == 0
    assert "TwoSphere" in out
    assert "full: True" in out
    assert "right_angled_complement: True" in out


def test_trace(docs, capsys):
    code, out, _ = run(
        capsys, ["trace", docs["octahedron.json"], "--subset", "x0,x1,y0,y1"]
    )
    assert code == 0
    assert "steps: 2" in out
    assert "remove z0: link {x0,x1,y0,y1} full=True" in out
    assert "remove z1: link {x0,x1,y0,y1} full=True" in out


def test_enumerate(docs, capsys):
    code, out, _ = run(
        capsys, ["enumerate", docs["k5.json"], "--subset", "v0,v1", "--cap", "100"]
    )
    assert code == 0
    assert "order: 6" in out
    code, out, _ = run(
        capsys, ["enumerate", docs["k5.json"], "--subset", "v0,v1,v2", "--cap", "500"]
    )
    assert code == 0
    assert "ExceedsCap" in out


def test_planar_oracle(docs, capsys):
    code, out, _ = run(capsys, ["planar-oracle", docs["k5.json"]])
    assert code == 0
    assert "planar: false" in out
    code, out, _ = run(capsys, ["planar-oracle", docs["hexagon.json"]])
    assert "planar: true" in out


def test_planar_oracle_beyond_ten_vertices(capsys, tmp_path):
    doc = tmp_path / "icosahedron.json"
    doc.write_text(json.dumps(icosahedron_spec().to_document()))
    code, out, err = run(capsys, ["planar-oracle", str(doc)])
    assert (code, out, err) == (0, "planar: true\n", "")


def test_planar_oracle_does_not_import_networkx():
    k33 = Path(__file__).resolve().parent.parent / "demos" / "data" / "k33.json"
    script = (
        "import sys\n"
        "from coxeter_l2 import cli\n"
        f"code = cli.main(['planar-oracle', {str(k33)!r}])\n"
        "assert 'networkx' not in sys.modules, 'networkx was imported'\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(coxeter_l2.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "planar: false\n"


def test_output_reproducible(docs, capsys):
    _, first, _ = run(capsys, ["--format", "structured", "certify", docs["k33.json"]])
    _, second, _ = run(capsys, ["--format", "structured", "certify", docs["k33.json"]])
    assert first == second


def _one_line_error(code, err):
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["betti", "cone"])
def test_rotation_with_non_list_entry_is_an_error(docs, capsys, tmp_path, command):
    rot = tmp_path / "rot.json"
    rot.write_text(json.dumps({"a": 5}))
    code, _, err = run(capsys, [command, docs["hexagon.json"], "--embedding", str(rot)])
    _one_line_error(code, err)


def test_edge_with_list_endpoint_is_an_error(capsys, tmp_path):
    doc = tmp_path / "listu.json"
    doc.write_text(json.dumps({"vertices": ["a", "b"], "edges": [{"u": ["a"], "v": "b", "m": 3}]}))
    code, _, err = run(capsys, ["validate", str(doc)])
    _one_line_error(code, err)


def test_line_break_in_a_vertex_name_stays_on_the_error_line(capsys, tmp_path):
    doc = tmp_path / "newline.json"
    doc.write_text(json.dumps({"vertices": ["a\nb", "c"], "edges": [{"u": "a\nb", "v": "c", "m": 1}]}))
    code, _, err = run(capsys, ["validate", str(doc)])
    _one_line_error(code, err)
    assert err == "error: label m(a\\nb,c) = 1 is below 2\n"


def test_enumerate_rejects_negative_cap(docs, capsys):
    code, out, err = run(
        capsys, ["enumerate", docs["k5.json"], "--subset", "v0,v1", "--cap", "-5"]
    )
    _one_line_error(code, err)
    assert "ExceedsCap" not in out


# CLI fuzzing: arbitrary documents, subsets and caps through every subcommand.

TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=4)  # writable as UTF-8
NAMES = st.one_of(st.sampled_from("abcde"), TEXT)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.floats() | TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=8,
)
LABELS = st.one_of(st.integers(-1, 7), st.just("inf"), JSON)
EDGES = st.one_of(st.fixed_dictionaries({"u": NAMES, "v": NAMES, "m": LABELS}), JSON)


@st.composite
def systems(draw) -> dict:
    """A valid document: distinct nonempty names, each edge between two of them, listed once."""
    names = st.one_of(st.sampled_from("abcde"), TEXT.filter(bool))
    vertices = draw(st.lists(names, min_size=1, max_size=6, unique=True))
    pairs = [(u, v) for i, u in enumerate(vertices) for v in vertices[i + 1:]]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=8, unique=True)) if pairs else []
    labels = st.sampled_from([2, 3, 4, 5, 6, "inf"])
    return {"vertices": vertices, "edges": [{"u": u, "v": v, "m": draw(labels)} for u, v in edges]}


SPEC_DOCUMENTS = st.one_of(
    JSON,
    st.fixed_dictionaries({
        "vertices": st.one_of(st.lists(NAMES, max_size=6, unique=True), st.lists(JSON, max_size=4)),
        "edges": st.lists(EDGES, max_size=10),
    }),
)
ROTATION_DOCUMENTS = st.one_of(JSON, st.dictionaries(NAMES, st.lists(NAMES, max_size=4), max_size=6))


def files(*documents):
    """File contents: a document as JSON, or arbitrary text."""
    return st.one_of(*(d.map(json.dumps) for d in documents), TEXT)


@st.composite
def invocations(draw):
    """An argv for one subcommand, with {spec}, {ambient}, {rotation} and {out} standing for paths."""
    command = draw(st.sampled_from([
        "validate", "nerve", "classify", "chi", "betti", "certify", "cone", "trace", "enumerate", "planar-oracle",
    ]))
    argv = ["--format", draw(st.sampled_from(["text", "structured"])), command, "{spec}"]
    subset = st.one_of(TEXT, st.lists(NAMES, max_size=4).map(",".join)).map(lambda s: f"--subset={s}")
    if command in ("classify", "trace", "enumerate"):
        argv.append(draw(subset))
    if command == "enumerate":
        argv.append(f"--cap={draw(st.integers(-2, 300))}")
    if command == "chi" and draw(st.booleans()):
        argv.append("--chain-oracle")
    if command == "betti":
        argv += draw(st.sampled_from([[], ["--ambient", "{ambient}"]]))
        argv += draw(st.one_of(st.just([]), subset.map(lambda s: [s])))
        argv += draw(st.sampled_from([[], ["--embedding", "{rotation}"]]))
    if command == "cone":
        argv += ["--embedding", "{rotation}"]
    if command == "certify":
        argv += draw(st.sampled_from([[], ["--out", "{out}"]]))
    contents = {
        "{spec}": draw(files(systems(), SPEC_DOCUMENTS)),
        "{ambient}": draw(files(systems(), SPEC_DOCUMENTS)),
        "{rotation}": draw(files(ROTATION_DOCUMENTS)),
    }
    return argv, contents


@settings(max_examples=300, deadline=None)
@given(invocations())
def test_fuzzed_invocations_exit_cleanly(case):
    argv, contents = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"{out}": os.path.join(tmp, "cert.json")}
        for key, text in contents.items():
            paths[key] = os.path.join(tmp, key.strip("{}") + ".json")
            Path(paths[key]).write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([paths.get(arg, arg) for arg in argv])
    assert code in (0, 1, 2)
    if code == 1:
        _one_line_error(code, err.getvalue())
