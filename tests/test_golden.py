"""Golden output: the demos and the CLI on demos/data/ must stay byte-identical.

The one-line error and the exit code of ``validate`` on every invalid
document of the tests/test_model.py table are locked the same way.

Expected outputs live in tests/golden/.  To re-record them after an
intended output change, run

    PYTHONPATH=src python tests/test_golden.py --record

and review the diff of tests/golden/ before committing it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from coxeter_l2.cli import main as cli

from test_model import INVALID_DOCUMENTS

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "demos" / "data"
GOLDEN = Path(__file__).resolve().parent / "golden"
DEMOS = sorted((ROOT / "demos").glob("[0-9]*.py"))
FORMATS = ("text", "structured")


def cli_cases() -> dict[str, list[str]]:
    """Case id -> argv, with document names relative to demos/data/."""
    cases = {}
    for fmt in FORMATS:
        for doc in sorted(p.name for p in DATA.glob("*.json")):
            for command in ("validate", "nerve", "chi", "betti", "certify"):
                cases[f"{fmt} {command} {doc}"] = ["--format", fmt, command, doc]
        extra = [
            ["betti", "k4.json", "--embedding", "k4_rotation.json"],
            ["betti", "hexagon.json", "--subset", "v0,v2,v4"],
            ["cone", "hexagon.json", "--embedding", "hexagon_rotation.json"],
            ["trace", "octahedron.json", "--subset", "x0,x1,y0,y1"],
            ["enumerate", "k5.json", "--subset", "v0,v1", "--cap", "20"],
            ["enumerate", "k5.json", "--subset", "v0,v1,v2", "--cap", "500"],
            ["enumerate", "k5.json", "--subset", "v0,v1", "--cap", "0"],
            ["classify", "k5.json", "--subset", "v0,v1"],
            ["planar-oracle", "k33.json"],
        ]
        for argv in extra:
            cases[f"{fmt} {' '.join(argv)}"] = ["--format", fmt, *argv]
    return cases


def run_cli(argv: list[str]) -> dict:
    resolved = [str(DATA / a) if a.endswith(".json") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli(resolved)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def error_cases() -> dict[str, str]:
    """Case id (the document as JSON text) -> the file content handed to validate."""
    texts = [doc if isinstance(doc, str) else json.dumps(doc) for doc, _ in INVALID_DOCUMENTS]
    return {text: text for text in texts}


def run_validate_error(text: str) -> dict:
    """Run validate on the document written to a file; its path reads as invalid.json."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "invalid.json"
        path.write_text(text)
        out = run_cli(["validate", str(path)])
    out["stderr"] = out["stderr"].replace(str(path), "invalid.json")
    return out


def run_demo(path: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(path)], capture_output=True, text=True, env=env, cwd=ROOT, timeout=120
    )
    return {"exit": done.returncode, "stdout": done.stdout}


def _load(name: str) -> dict:
    return json.loads((GOLDEN / name).read_text())


CASES = cli_cases()
ERROR_CASES = error_cases()
CLI_GOLDEN = _load("cli.json") if (GOLDEN / "cli.json").exists() else {}
DEMO_GOLDEN = _load("demos.json") if (GOLDEN / "demos.json").exists() else {}
ERROR_GOLDEN = _load("errors.json") if (GOLDEN / "errors.json").exists() else {}


def test_golden_covers_every_case():
    assert sorted(CLI_GOLDEN) == sorted(CASES)
    assert sorted(DEMO_GOLDEN) == [p.name for p in DEMOS]
    assert sorted(ERROR_GOLDEN) == sorted(ERROR_CASES)


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_validate_error_is_golden(case):
    out = run_validate_error(ERROR_CASES[case])
    assert out == ERROR_GOLDEN[case]
    assert out["exit"] == 1 and out["stdout"] == ""
    assert out["stderr"].startswith("error: ") and out["stderr"].count("\n") == 1


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_is_golden(case):
    assert run_cli(CASES[case]) == CLI_GOLDEN[case]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_output_is_golden(demo):
    assert run_demo(demo) == DEMO_GOLDEN[demo.name]


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    cli_out = {case: run_cli(argv) for case, argv in sorted(CASES.items())}
    demo_out = {p.name: run_demo(p) for p in DEMOS}
    error_out = {case: run_validate_error(text) for case, text in sorted(ERROR_CASES.items())}
    for name, data in (("cli.json", cli_out), ("demos.json", demo_out), ("errors.json", error_out)):
        (GOLDEN / name).write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    record()
