"""Every name imported by a package module or a test file is used there.

An AST scan, so the next stray import fails the suite.  Imports from
`__future__` and import lines marked `# noqa: F401` are exempt.  No package
module imports a `_`-prefixed name from another.  Each public
top-level name of a package module must have a reader on a program path (see
`test_every_public_name_has_a_program_reader`), and the package itself loads
no module until one is asked for.  The last tests load `perfbench/tracing.py`
and check that every package name it patches or reads still exists, and that
every `# noqa: F401` import in the package is a name it patches there.
"""

import ast
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

from resample_forge import instance_io
from resample_forge.derand import decode_tape, run_finite_tape
from resample_forge.instance_io import gen_torus_nae
from resample_forge.mta_runner import run
from resample_forge.partitioner import singleton_partition
from resample_forge.tape import RandomTape

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "resample_forge"


def scanned_files():
    return sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(path):
    """(line, name) for each name that `path` imports and never reads."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            if isinstance(node, ast.Import):
                name = alias.asname or alias.name.split(".")[0]
            else:
                name = alias.asname or alias.name
            if name not in used:
                out.append((node.lineno, name))
    return out


def test_scan_covers_package_and_tests():
    names = {f.relative_to(ROOT).as_posix() for f in scanned_files()}
    assert "src/resample_forge/landscape_lab.py" in names
    assert "tests/test_imports.py" in names
    assert "src/resample_forge/__init__.py" in names


def test_scan_finds_an_unused_import(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from typing import Any, List\n"
        "from json import dumps  # noqa: F401\n"
        "def f(x: List) -> str:\n"
        "    return os.path.sep\n"
    )
    assert unused_imports(sample) == [(2, "math"), (4, "Any")]


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT).as_posix()}:{line}: {name}"
        for path in scanned_files()
        for line, name in unused_imports(path)
    ]
    assert found == [], "unused imports:\n" + "\n".join(found)


def private_imports(path):
    """(line, module, name) for each `_`-prefixed name that `path` imports from another module."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(node.lineno, node.module, alias.name) for alias in node.names if alias.name.startswith("_")]
    return out


def test_scan_finds_a_private_import(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from __future__ import annotations\n"
        "from resample_forge.graph_core import Digraph, _check_radius\n"
        "from . import _helpers\n"
        "import _thread\n"
    )
    assert private_imports(sample) == [(2, "resample_forge.graph_core", "_check_radius"), (3, None, "_helpers")]


def test_no_package_module_imports_a_private_name():
    """A `_` name is its module's own; a second reader should get a public name, or its own check."""
    found = [
        f"{path.relative_to(ROOT).as_posix()}:{line}: {module}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, module, name in private_imports(path)
    ]
    assert found == [], "private names imported from another module:\n" + "\n".join(found)


# public names with no program reader yet, each kept for a stated reason
NO_PROGRAM_READER = {
    "rule_engine.check_condition": "acceptance criterion 1 checks the paper's hypothesis with it",
    "landscape_lab.varcount": "acceptance criterion 5 checks the forest's symbol budget with it",
    "mta_runner.trace_to_json": "ROADMAP item 5 gives it a CLI caller (solve --trace-out)",
    "mta_runner.trace_round_csv": "ROADMAP item 5 gives it a CLI caller (solve --rounds-csv)",
    "landscape_lab.landscape_to_json": "ROADMAP item 5 gives it a CLI caller (the witness subcommand)",
}


def public_names(path):
    """The top-level defs, classes and assigned names of `path` that do not start with `_`."""
    names = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names if not name.startswith("_")]


def test_public_names_are_top_level_and_unprefixed(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import os\n"
        "from json import dumps\n"
        "LIMIT = 3\n"
        "_HIDDEN = 4\n"
        "TABLE: dict = {}\n"
        "def helper():\n"
        "    inner = 1\n"
        "    return inner\n"
        "def _private():\n"
        "    pass\n"
        "class Shape:\n"
        "    side = 2\n"
    )
    assert public_names(sample) == ["LIMIT", "TABLE", "helper", "Shape"]


def program_files():
    """The files on a program path: the package modules, `cli` among them, and perfbench minus its tests."""
    bench = [f for f in sorted((ROOT / "perfbench").glob("*.py")) if not f.name.startswith("test_")]
    return sorted(PACKAGE.glob("*.py")) + bench


def code_references(path):
    """Names `path` reads as code: loaded names and attributes, and string
    constants other than docstrings (perfbench wraps names as (module, "name"))."""
    tree = ast.parse(path.read_text())
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            found.add(node.value)
    return found


def test_code_references_skip_definitions_and_docstrings(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        '"""defined read wrapped"""\n'
        "LIMIT = 3\n"
        "def defined():\n"
        '    """read"""\n'
        "    return LIMIT + helper.attr\n"
        'WRAPS = [(helper, "wrapped")]\n'
    )
    assert code_references(sample) == {"LIMIT", "helper", "attr", "wrapped"}


def test_every_public_name_has_a_program_reader():
    """Each public top-level name of a package module, keyed `module.name`, is read on a program path."""
    keys = [f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py")) for name in public_names(path)]
    read = set().union(*(code_references(path) for path in program_files()))
    assert not set(NO_PROGRAM_READER) - set(keys)
    unread = [key for key in keys if key.partition(".")[2] not in read and key not in NO_PROGRAM_READER]
    assert unread == [], "public names with no reader in cli, src/ or perfbench/: " + ", ".join(unread)
    stale = sorted(key for key in NO_PROGRAM_READER if key.partition(".")[2] in read)
    assert stale == [], "exempt names that now have a reader; drop them from NO_PROGRAM_READER: " + ", ".join(stale)


MODULES = sorted(f.stem for f in PACKAGE.glob("*.py") if f.name != "__init__.py")


def loaded_after(statement):
    """The `resample_forge` modules a fresh interpreter holds after running `statement`."""
    script = f"import sys\n{statement}\nprint(sorted(m for m in sys.modules if m.startswith('resample_forge')))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    return ast.literal_eval(done.stdout)


def test_the_package_loads_no_module():
    assert len(MODULES) == 9
    assert loaded_after("import resample_forge") == ["resample_forge"]


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_on_its_own(module):
    assert f"resample_forge.{module}" in loaded_after(f"import resample_forge.{module}")


def load_tracing():
    """perfbench/tracing.py, loaded by path under a name of its own."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_boundaries_resolve():
    """Every name the benchmark's tracer swaps out is still defined where it looks for it.

    The tracer reads each (owner, attribute) from `owner.__dict__` and swaps
    `instance_io.json`, so a renamed or removed name would otherwise surface
    only as a KeyError in a traced benchmark run.
    """
    tracing = load_tracing()
    targets = [(owner, attr) for _, _, pairs, _ in tracing._boundaries() for owner, attr in pairs]
    targets.append((instance_io, "json"))
    missing = [f"{owner.__name__}.{attr}" for owner, attr in targets if attr not in owner.__dict__]
    assert missing == [], "names perfbench/tracing.py patches but the package lacks: " + ", ".join(missing)


# imports a package module keeps only so that perfbench/tracing.py can wrap the name there
TRACER_PINS = {
    ("derand", "is_violated"),
    ("instance_io", "ball"),
    ("landscape_lab", "ball"),
    ("mta_runner", "res"),
    ("partitioner", "ball"),
    ("partitioner", "power_graph"),
    ("rule_engine", "build_rel"),
}


def noqa_imports(path):
    """(module, name) for each name that `path` imports on a line marked `# noqa: F401`."""
    source = path.read_text()
    lines = source.splitlines()
    return {
        (path.stem, alias.asname or alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno])
        for alias in node.names
    }


def test_every_unused_import_is_a_tracer_pin():
    """Each `# noqa: F401` import in the package is listed in TRACER_PINS, and the tracer still patches it there.

    A pin the tracer no longer wraps is dead weight; drop its import and its entry.
    """
    found = set().union(*(noqa_imports(path) for path in PACKAGE.glob("*.py")))
    assert found == TRACER_PINS
    patched = {
        (owner.__name__.rpartition(".")[2], attr)
        for _, _, pairs, _ in load_tracing()._boundaries()
        for owner, attr in pairs
    }
    stale = sorted(f"{module}.{name}" for module, name in TRACER_PINS - patched)
    assert stale == [], "imports kept for names perfbench/tracing.py no longer patches: " + ", ".join(stale)


def test_perfbench_reads_a_run_and_a_tape_attempt():
    """The tracer's counters read a real run trace and a real finite-tape attempt."""
    tracing = load_tracing()
    tracer = tracing.Tracer()
    p = gen_torus_nae(6, 6, 2)
    pi = singleton_partition(p.n)
    trace = run(p, pi, RandomTape(1, p.b))
    tracing._after_run(tracer, trace, (p, pi))
    assert tracer.counts["mta_runner.rounds"] == trace.rounds > 0
    assert tracer.counts["mta_runner.mis_chosen"] == sum(map(len, trace.viol_snapshots))
    assert tracer.counts["mta_runner.trace_ints"] > 0
    attempt = run_finite_tape(p, pi, decode_tape(0, pi.num_parts, 2, p.b))
    tracing._after_tape_attempt(tracer, attempt, ())
    assert tracer.counts["derand.tapes_tried"] == 1
    assert tracer.counts["derand.passes"] == attempt.passes > 0
