"""A static reachability gate for `src/jsalg`: every function is code that a
`jsalg` command or the benchmark runs, or it is listed in ALLOWED with the
reason it stays.

The scan reads names, not calls.  A def is reached when its name appears,
as an `ast.Name` or an `ast.Attribute`, in module-level code of
`src/jsalg` or in a reached def.  The roots are `main` and every
identifier that the files under `perfbench/` use: names, attribute names
and the identifier-shaped words of string constants, which is how the
benchmark's tracer targets and its `getattr` dispatch name functions.
Dunder methods are exempt, and a nested def belongs to its enclosing def.

A name match can keep dead code that shares its name with live code, but
it cannot flag live code, as long as `src/` looks nothing up by a computed
name; `test_src_makes_no_dynamic_lookup` keeps it so.  ALLOWED can only
shrink: a listed def that becomes reached fails the gate too.
"""

import ast
import re
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "jsalg"
BENCH = ROOT / "perfbench"

ALLOWED = {
    "tkk.check_minimal_table":
        "minimality on an assembled Lie(J) table; ROADMAP item 15 makes it "
        "criterion 4's check of the table `jsalg tkk` emits",
    "tkk.inverse_product":
        "reads J back off an assembled table as [[f, x], y]; ROADMAP items 15 "
        "and 18 give it battery callers",
}

WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
DYNAMIC = {"getattr", "globals", "locals", "vars", "__import__", "import_module"}


def _used(*nodes) -> set:
    out = set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                out.add(n.id)
            elif isinstance(n, ast.Attribute):
                out.add(n.attr)
    return out


def _collect(body, prefix, defs, module_code):
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs[prefix + stmt.name] = stmt
            # decorators and defaults run at import
            module_code.extend(stmt.decorator_list)
            module_code.append(stmt.args)
        elif isinstance(stmt, ast.ClassDef):
            module_code.extend(stmt.decorator_list + stmt.bases + stmt.keywords)
            _collect(stmt.body, f"{prefix}{stmt.name}.", defs, module_code)
        else:
            module_code.append(stmt)


def roots(texts) -> set:
    """main, and every identifier the given sources use, string words too."""
    out = {"main"}
    for text in texts:
        tree = ast.parse(text)
        out |= _used(tree)
        for n in ast.walk(tree):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                out.update(WORD.findall(n.value))
    return out


def unreached(modules: dict, root_names: set) -> dict:
    """{qualname: def node} of the non-dunder defs of modules (name -> parsed
    module) that no root reaches."""
    defs, module_code = {}, []
    for name, tree in modules.items():
        _collect(tree.body, f"{name}.", defs, module_code)
    names = set(root_names) | _used(*module_code)
    todo = dict(defs)
    grew = True
    while grew:
        grew = False
        for q, node in list(todo.items()):
            if node.name in names:
                del todo[q]
                names |= _used(node)
                grew = True
    return {q: node for q, node in todo.items()
            if not (node.name.startswith("__") and node.name.endswith("__"))}


@cache
def _src_modules() -> dict:
    return {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


@cache
def _unreached_in_src() -> dict:
    return unreached(_src_modules(), roots(p.read_text() for p in sorted(BENCH.rglob("*.py"))))


def test_every_def_is_reached_or_allowed():
    found = _unreached_in_src()
    stray = {q: f"{q} (line {node.lineno})" for q, node in found.items() if q not in ALLOWED}
    assert not stray, ("defs that no jsalg command or benchmark job reaches: "
                       "delete them, move them to tests/, or give them a caller: "
                       + ", ".join(stray.values()))


def test_allowed_defs_exist_and_are_unreached():
    found = _unreached_in_src()
    assert set(ALLOWED) <= set(found), (
        "reached now, so drop from ALLOWED: " + ", ".join(sorted(set(ALLOWED) - set(found))))
    assert all(reason.strip() for reason in ALLOWED.values())


def test_src_makes_no_dynamic_lookup():
    hits = [f"{name}.py:{n.lineno} {n.id}"
            for name, tree in _src_modules().items()
            for n in ast.walk(tree)
            if isinstance(n, ast.Name) and n.id in DYNAMIC]
    assert not hits, "a lookup by computed name hides callers from the gate: " + ", ".join(hits)


# -- the scan itself, on planted sources ---------------------------------------------

PLANTED = {
    "a": '''
def main():
    return helper() + B().used()

def helper():
    def inner():
        return nested_only()
    return inner()

def nested_only():
    return 1

def dead():
    return helper()

class B:
    def used(self):
        return 0

    def unused(self):
        return 0

    def __repr__(self):
        return "B"

    def by_string(self):
        return 0

TABLE = {"k": lambda: from_module_code()}

def from_module_code():
    return 0
''',
}


def test_the_scan_flags_exactly_the_planted_dead_defs():
    bench = 'TARGETS = [("x", "a", "B.by_string")]'
    got = unreached({k: ast.parse(v) for k, v in PLANTED.items()}, roots([bench]))
    assert sorted(got) == ["a.B.unused", "a.dead"]


def test_a_def_named_only_by_a_dead_def_is_unreached():
    src = {"m": ast.parse("def main():\n    pass\n\n"
                          "def a():\n    return b()\n\n"
                          "def b():\n    pass\n")}
    assert sorted(unreached(src, roots([]))) == ["m.a", "m.b"]
    assert sorted(unreached(src, roots(["import m\nm.a()\n"]))) == []
