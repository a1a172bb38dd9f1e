"""Guards for the benchmark harness under perfbench/, for the stress model and
for the engine's imports."""

import ast
import hashlib
import importlib
import inspect
import json
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
SOURCE = Path(__file__).resolve().parent.parent / "src" / "conspec"
STRESS_SHA256 = "4bc15a4a37d7bd8d4562e27153128b7106259827c3eb543cef4408f1095be906"


def _layer_functions() -> tuple[str, ...]:
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYER_FUNCTIONS" for t in stmt.targets
        ):
            return ast.literal_eval(stmt.value)
    raise AssertionError("perfbench/spans.py defines no LAYER_FUNCTIONS")


def test_traced_layer_functions_exist():
    """The traced benchmark run wraps each of these by name."""
    names = _layer_functions()
    assert names
    for name in names:
        module, attr = name.split(".")
        fn = getattr(importlib.import_module(f"conspec.{module}"), attr, None)
        assert inspect.isfunction(fn), f"{name} is not a function in conspec.{module}"


def test_benchmark_digests_pin_every_workload():
    """CI compares each workload's printed digest with this fixture."""
    root = Path(__file__).resolve().parent.parent
    workloads = [w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]]
    pinned = {}
    for line in (root / "tests" / "benchmark_digests.txt").read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            name, digest = line.split()
            pinned[name] = digest
    assert sorted(pinned) == sorted(workloads)
    assert all(len(d) == 64 and set(d) <= set("0123456789abcdef") for d in pinned.values())


def test_bench_records_cover_every_workload():
    """Each BENCH_<n>.json at the repository root holds correct runs of
    exactly the BENCHMARK.json workloads."""
    root = Path(__file__).resolve().parent.parent
    workloads = [w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]]
    records = sorted(root.glob("BENCH_*.json"))
    assert records
    for path in records:
        assert path.stem.split("_", 1)[1].isdigit(), path.name
        runs = json.loads(path.read_text(encoding="utf-8"))["workloads"]
        assert sorted(runs) == sorted(workloads), path.name
        for name, by_mode in runs.items():
            assert by_mode, f"{path.name}: {name} has no run"
            for mode, run in by_mode.items():
                assert run["result"]["correct"] is True, f"{path.name}: {name} {mode}"
                assert run["record"]["workload"] == name, f"{path.name}: {name} {mode}"


def test_stress_model_is_pinned():
    """tests/data/stress.cn, the load behind the oracle and skip tests'
    floors, stays the copy of english.cn those floors were set on, whatever
    edits the shipped model gets."""
    from .gen import STRESS_MODEL

    assert hashlib.sha256(STRESS_MODEL.read_bytes()).hexdigest() == STRESS_SHA256


def test_engine_imports_only_the_standard_library():
    """Every module that src/conspec imports is conspec itself or a module of
    the standard library: the engine installs nothing."""
    outside = set()
    for path in sorted(SOURCE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:  # a relative import stays inside conspec
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "conspec" and top not in sys.stdlib_module_names:
                    outside.add((path.name, name))
    assert not outside


def test_model_does_not_import_the_parser():
    """model.py imports nothing from parser, at module level, in a function
    or under TYPE_CHECKING: the parser's table of a model stays in parser.py."""
    found = []
    tree = ast.parse((SOURCE / "model.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [part for alias in node.names for part in alias.name.split(".")]
        elif isinstance(node, ast.ImportFrom):
            names = (node.module or "").split(".") + [alias.name for alias in node.names]
        else:
            continue
        if "parser" in names:
            found.append(node.lineno)
    assert not found, f"model.py imports parser at lines {found}"


def _names(tree: ast.AST) -> tuple[set[str], set[str]]:
    """(defined, read) names of one module. Defined: function and class
    names, class-level annotated fields and stored attributes. Read: names
    and attributes loaded, keyword argument names, and string constants
    that are identifiers, which covers ``__all__`` and tables of field
    names."""
    defined: set[str] = set()
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                defined.update(
                    stmt.target.id
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                )
        elif isinstance(node, ast.Attribute):
            (read if isinstance(node.ctx, ast.Load) else defined).add(node.attr)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.keyword) and node.arg is not None:
            read.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                read.add(node.value)
    return defined, read


def test_every_source_name_is_read():
    """Every function, class, field and attribute that src/conspec defines,
    dunders aside, is read somewhere in src/conspec: nothing is built that
    no code uses."""
    defined: dict[str, str] = {}
    read: set[str] = set()
    for path in sorted(SOURCE.glob("*.py")):
        got, seen = _names(ast.parse(path.read_text(encoding="utf-8")))
        defined.update(dict.fromkeys(got, path.name))
        read |= seen
    unread = sorted(
        f"{where}: {name}"
        for name, where in defined.items()
        if name not in read and not (name.startswith("__") and name.endswith("__"))
    )
    assert not unread
