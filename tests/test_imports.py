"""Every name imported by a package module or a test file is used there.

An AST scan, so the next stray import fails the suite.  Imports from
`__future__` and import lines marked `# noqa: F401` are exempt; the package's
`__init__.py` is skipped, because re-exporting is all it does; instead its
`__all__` must list exactly the names it imports, and each of those names must
have a reader on a program path (see `test_every_export_has_a_program_reader`).
The last tests load `perfbench/tracing.py` and check that every package name
it patches or reads still exists.
"""

import ast
import importlib.util
import pathlib

from resample_forge import instance_io
from resample_forge.derand import decode_tape, run_finite_tape
from resample_forge.instance_io import gen_torus_nae
from resample_forge.mta_runner import run
from resample_forge.partitioner import singleton_partition
from resample_forge.tape import RandomTape

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "resample_forge"


def scanned_files():
    package = [f for f in sorted(PACKAGE.glob("*.py")) if f.name != "__init__.py"]
    return package + sorted((ROOT / "tests").glob("*.py"))


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
    assert "src/resample_forge/__init__.py" not in names


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


def test_all_lists_exactly_the_reexports():
    """`__all__` names each name `__init__.py` imports, plus `__version__`, and each resolves."""
    import resample_forge

    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert len(resample_forge.__all__) == len(set(resample_forge.__all__))
    assert set(resample_forge.__all__) == imported | {"__version__"}
    for name in resample_forge.__all__:
        assert hasattr(resample_forge, name), name


# __all__ names with no program reader yet, each kept for a stated reason
NO_PROGRAM_READER = {
    "__version__": "package metadata, read by tools rather than by code here",
    "check_condition": "acceptance criterion 1 checks the paper's hypothesis with it",
    "varcount": "acceptance criterion 5 checks the forest's symbol budget with it",
    "trace_to_json": "ROADMAP item 5 gives it a CLI caller (solve --trace-out)",
    "trace_round_csv": "ROADMAP item 5 gives it a CLI caller (solve --rounds-csv)",
    "landscape_to_json": "ROADMAP item 5 gives it a CLI caller (the witness subcommand)",
}


def program_files():
    """The files on a program path: the package modules, `cli` among them, and perfbench minus its tests."""
    package = [f for f in sorted(PACKAGE.glob("*.py")) if f.name != "__init__.py"]
    bench = [f for f in sorted((ROOT / "perfbench").glob("*.py")) if not f.name.startswith("test_")]
    return package + bench


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


def test_every_export_has_a_program_reader():
    import resample_forge

    read = set().union(*(code_references(path) for path in program_files()))
    assert not set(NO_PROGRAM_READER) - set(resample_forge.__all__)
    unread = [name for name in resample_forge.__all__ if name not in read and name not in NO_PROGRAM_READER]
    assert unread == [], "exported names with no reader in cli, src/ or perfbench/: " + ", ".join(unread)
    stale = sorted(name for name in NO_PROGRAM_READER if name in read)
    assert stale == [], "exempt names that now have a reader; drop them from NO_PROGRAM_READER: " + ", ".join(stale)


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
