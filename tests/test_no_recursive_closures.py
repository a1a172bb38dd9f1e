"""Static guard: no recursive nested function anywhere in ``src/conspec``.

A nested function that reaches itself through the closure cells of its
enclosing scope is a reference cycle (function -> cell -> function), so
whatever its frames touched is freed only by the cycle collector, not by
reference counting. Each module is compiled and the code objects of every
scope are walked. In a scope, nested function f has an edge to nested
function g when g is held in one of the scope's cells and f, or a function
nested in f, names g among its free variables. Any cycle fails the test.

Names are read from ``co_name``, which every supported Python has.
"""

from __future__ import annotations

import types
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "conspec"


def _nested(code: types.CodeType) -> list[types.CodeType]:
    return [c for c in code.co_consts if isinstance(c, types.CodeType)]


def _free_names(code: types.CodeType) -> set[str]:
    """Free variables of ``code`` and of every function nested in it."""
    names = set(code.co_freevars)
    for inner in _nested(code):
        names |= _free_names(inner)
    return names


def _cycles_in_scope(scope: types.CodeType) -> set[str]:
    """Names of the nested functions of ``scope`` that lie on a cycle of
    closure references through its cells."""
    funcs = {c.co_name: c for c in _nested(scope) if c.co_name in scope.co_cellvars}
    edges = {f: _free_names(code) & funcs.keys() for f, code in funcs.items()}
    on_cycle = set()
    for start in funcs:
        # start is on a cycle when it can reach itself
        seen, stack = set(), list(edges[start])
        while stack:
            g = stack.pop()
            if g == start:
                on_cycle.add(start)
                break
            if g not in seen:
                seen.add(g)
                stack.extend(edges[g])
    return on_cycle


def recursive_closures(source: str, filename: str) -> list[str]:
    """``scope.function`` for each nested function on a closure cycle."""
    found = []
    scopes = [compile(source, filename, "exec")]
    while scopes:
        scope = scopes.pop()
        found += [f"{scope.co_name}.{f}" for f in sorted(_cycles_in_scope(scope))]
        scopes.extend(_nested(scope))
    return sorted(found)


def test_guard_finds_recursive_and_mutual_closures():
    source = (
        "def tree(node):\n"
        "    def walk(n):\n"
        "        return [walk(c) for c in n]\n"
        "    return walk(node)\n"
        "def pair(x):\n"
        "    def even(n):\n"
        "        return n == 0 or odd(n - 1)\n"
        "    def odd(n):\n"
        "        return n != 0 and even(n - 1)\n"
        "    return even(x)\n"
    )
    assert recursive_closures(source, "<test>") == ["pair.even", "pair.odd", "tree.walk"]


def test_guard_passes_shared_cells_without_a_cycle():
    # like the chart: several helpers read one another's cells, none reaches itself
    source = (
        "def chart(n):\n"
        "    seen = {}\n"
        "    def add(k):\n"
        "        seen[k] = True\n"
        "    def rank(k):\n"
        "        return sorted(seen)\n"
        "    def fill(k):\n"
        "        add(k)\n"
        "        return [rank(k) for _ in range(n)]\n"
        "    return fill(n)\n"
    )
    assert recursive_closures(source, "<test>") == []


def test_no_recursive_closures_in_the_package():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += [
            f"{path.stem}: {name}"
            for name in recursive_closures(path.read_text(encoding="utf-8"), str(path))
        ]
    assert found == []
