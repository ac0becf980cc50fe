"""Module structure: imports at module level, no global memo, exports that match the imports.

An import inside a function usually hides an import cycle between library
modules; keeping imports at the top keeps the module graph acyclic and
visible.  A functools cache keeps every key it has seen alive for the life
of the process; reuse belongs on the objects that own it, held weakly.
The package exports exactly what its __init__ imports, so a deleted name
cannot linger in __all__.  Outside the nerve module, no file of src/,
demos/ or bench/ reads a complex's levels, neighbor map or orders, or
calls _presorted or _view, but for chi_orb's read of the orders: the
nerve module alone keeps a complex listing its vertices and closed under
faces.  The private constructors (_presorted,
_assembled, _index, _view) are called only in the nerve module, which keeps
their preconditions; elsewhere complexes come from SimplicialComplex,
build_nerve or induced_nerve.  The planarity pipeline and the CLI read a
complex through its public methods, never through its private maps
(_star, _by_dim, _neighbors, _orders), and a rotation system likewise,
never through its cyclic orders (_rot) or successor map (_next): the
nerve module keeps the invariants of both.  A complex indexes its
incidences once, as sorted levels and neighbor tuples: no module names a
star attribute (_star), so a second index of the same incidences cannot
creep back.  No module imports
numpy: floating point stays in the numeric oracles, which need only the
standard library, so numpy is a test dependency and no `coxl2` run loads
it, not even an `enumerate`.  No
module imports dataclasses either: the result records are NamedTuples, so
importing the package and its CLI loads neither dataclasses nor the
inspect, ast and tokenize modules it pulls in.  Betti
rule ids are string constants of the invariants module alone: elsewhere a
rule is cited as the engine recorded it, never named, so no other module
can branch on one.  A cited fact has one record: exactly one class named
CitedStep is defined under src/, in the invariants module, where each Betti
entry keeps one; the certificate cites those steps as they are, so a
second provenance format cannot come back.  Every exported name is used in
the package, its demos or its benchmark, but for a short allowlist, each
entry with its reason, so code that only tests call does not stay in the
package.  The same holds for every public function, method and property
defined under src/, exported or not: a method or property is used where
an attribute of its name is read, a function also where its bare name is,
and its own def does not count.  Floating point stays in the enumeration
oracle: no other module has a float constant, a float() call or math.cos,
sin, pi or sqrt, and math.inf appears only as model.INFINITY.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import coxeter_l2

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "coxeter_l2"


def test_no_import_inside_a_function():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{path.name}:{node.lineno} in {func.name}"
                    for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert found == []


def test_no_functools_cache():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        aliases = {
            alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names if alias.name == "functools"
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += [
                    f"{path.name}:{node.lineno} imports {alias.name}"
                    for alias in node.names if alias.name in ("cache", "lru_cache")
                ]
            if (
                isinstance(node, ast.Attribute) and node.attr in ("cache", "lru_cache")
                and isinstance(node.value, ast.Name) and node.value.id in aliases
            ):
                found.append(f"{path.name}:{node.lineno} uses functools.{node.attr}")
    assert found == []


def test_all_lists_exactly_the_imported_names():
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert len(coxeter_l2.__all__) == len(set(coxeter_l2.__all__))
    assert sorted(coxeter_l2.__all__) == sorted(imported)


# Exported names with no use in src/, demos/ or bench/, each kept for a reason.
UNUSED_EXPORTS = {
    "link": "the subcomplex calculus that README documents",
    "is_full_subcomplex": "the subcomplex calculus that README documents",
}


def uses_outside_the_tests() -> tuple[set[str], set[str]]:
    """The names read, and the attributes named, in src/ (but for __init__'s imports), demos/ and bench/."""
    paths = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    paths += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    names, attributes = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return names, attributes


def test_every_export_has_a_use_outside_the_tests():
    names, attributes = uses_outside_the_tests()
    assert sorted(set(coxeter_l2.__all__) - names - attributes) == sorted(UNUSED_EXPORTS)


# Public functions, methods and properties with no use in src/, demos/ or bench/, each kept for a reason.
UNUSED_DEFINITIONS = {
    "link": "the subcomplex calculus that README documents",
    "is_full_subcomplex": "the subcomplex calculus that README documents",
    "_Parser.error": "argparse calls it",
}


def test_every_public_definition_has_a_use_outside_the_tests():
    # A method or property is used only as an attribute; a function also by its bare name.
    names, attributes = uses_outside_the_tests()
    anywhere = names | attributes
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {id(item): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for item in cls.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.name.startswith("_"):
                continue
            if id(node) in owner:
                if node.name not in attributes:
                    unused.append(f"{owner[id(node)]}.{node.name}")
            elif node.name not in anywhere:
                unused.append(node.name)
    assert sorted(unused) == sorted(UNUSED_DEFINITIONS)


FLOAT_MATH = {"cos", "sin", "pi", "sqrt", "inf"}


def test_floating_point_stays_in_enumeration():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "enumeration.py":
            continue
        lines = path.read_text().splitlines()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Constant) and isinstance(node.value, float)
                or isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float"
                or isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "math" and node.attr in FLOAT_MATH
                or isinstance(node, ast.ImportFrom) and node.module == "math"
                and any(alias.name in FLOAT_MATH for alias in node.names)
            ):
                found.append(f"{path.name}: {lines[node.lineno - 1].strip()}")
    assert found == ["model.py: INFINITY = math.inf"]


def test_complexes_are_constructed_only_in_nerve():
    # The private constructors trust their callers for sorted simplices and matching maps.
    private = {"_presorted", "_assembled", "_index", "_view"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "nerve.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = (
                [node.attr] if isinstance(node, ast.Attribute)
                else [node.id] if isinstance(node, ast.Name)
                else [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
                else []
            )
            found += [f"{path.name}:{node.lineno} references {name}" for name in names if name in private]
    assert found == []


# The one read of a complex's private maps outside the nerve module, with its reason.
ALLOWED_PRIVATE_READS = {
    "invariants.py: chi_orb reads _orders": "the Euler sum tallies each level's orders at once",
}


def test_only_the_nerve_module_reads_the_complex_invariant():
    # A complex lists every vertex and is closed under faces; code that reads its maps or
    # builds one without __init__ must keep that, so it stays in the module that checks it.
    private = {"_by_dim", "_neighbors", "_presorted", "_view", "_orders"}
    paths = [path for path in sorted(SRC.glob("*.py")) if path.name != "nerve.py"]
    paths += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    found = set()
    for path in paths:
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            where = getattr(top, "name", "module level")
            found |= {
                f"{path.name}: {where} reads {node.attr}"
                for node in ast.walk(top) if isinstance(node, ast.Attribute) and node.attr in private
            }
    assert sorted(found) == sorted(ALLOWED_PRIVATE_READS)


def test_pipeline_and_cli_read_no_private_complex_map():
    private = {"_star", "_by_dim", "_neighbors", "_orders", "_rot", "_next"}
    found = []
    for name in ("planarity.py", "cli.py"):
        found += [
            f"{name}:{node.lineno} reads {node.attr}"
            for node in ast.walk(ast.parse((SRC / name).read_text(), filename=name))
            if isinstance(node, ast.Attribute) and node.attr in private
        ]
    assert found == []


def test_no_module_names_a_star_attribute():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += [
            f"{path.name}:{node.lineno} names {node.attr}"
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Attribute) and node.attr == "_star"
        ]
    assert found == []


def test_betti_rule_ids_are_constants_of_the_engine_alone():
    rule_id = re.compile(r"R-[\w/]+")
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "invariants.py":
            continue
        found += [
            f"{path.name}:{node.lineno} {node.value!r}"
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and rule_id.fullmatch(node.value)
        ]
    assert found == []


def test_one_cited_step_record():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ClassDef) and node.name == "CitedStep"
    ]
    assert len(found) == 1 and found[0].startswith("invariants.py:")
    assert coxeter_l2.planarity.CitedStep is coxeter_l2.invariants.CitedStep


def importers_of(package: str) -> list[str]:
    """The file:line of each import of package, or of one of its submodules, under src/."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            modules = (
                [alias.name for alias in node.names] if isinstance(node, ast.Import)
                else [node.module or ""] if isinstance(node, ast.ImportFrom)
                else []
            )
            if any(m == package or m.startswith(package + ".") for m in modules):
                found.append(f"{path.name}:{node.lineno}")
    return found


def run_fresh(script: str) -> subprocess.CompletedProcess:
    """Run a script in a fresh interpreter that imports the library from src/."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)


def test_no_module_imports_numpy():
    assert importers_of("numpy") == []


def test_no_module_imports_dataclasses():
    assert importers_of("dataclasses") == []


def test_an_enumerate_run_leaves_numpy_unloaded():
    k5 = SRC.parent.parent / "demos" / "data" / "k5.json"
    done = run_fresh(
        "import sys\n"
        "import coxeter_l2, coxeter_l2.cli\n"
        f"code = coxeter_l2.cli.main(['enumerate', {str(k5)!r}, '--subset', 'v0,v1,v2', '--cap', '500'])\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        "sys.exit(code)\n"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ExceedsCap\n"


def test_importing_the_package_and_its_cli_leaves_dataclasses_unloaded():
    done = run_fresh(
        "import sys\n"
        "import coxeter_l2, coxeter_l2.cli\n"
        "assert 'dataclasses' not in sys.modules, 'dataclasses was imported'\n"
    )
    assert done.returncode == 0, done.stderr
