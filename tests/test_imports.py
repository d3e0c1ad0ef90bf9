"""Every name a module of lmhs imports is used in that module, every name
a function of lmhs assigns is read in that function, and every name a
module of lmhs defines is read somewhere in the repository's code."""

import ast
import functools
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
SRC = ROOT / "src" / "lmhs"
READERS = [SRC, ROOT / "tests", ROOT / "perfbench"]


def annotation_names(node: ast.AST) -> set[str]:
    """Names read in an annotation, quoted ones included."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval")
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= annotation_names(node.annotation)
    return sorted(name for name in set(imported) if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from fractions import Fraction\n"
        "from typing import Mapping, Sequence as Seq\n"
        "def f(x: 'Mapping') -> int:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == ["Fraction", "Seq"]


def scope_nodes(fn: ast.AST):
    """The nodes of a function's own scope: its body without the bodies of
    the functions, lambdas and classes defined in it."""
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def unused_locals(source: str) -> list[str]:
    """function.name of each name that a plain assignment in a function
    binds, name = ... or name: T = ..., and that the function, its nested
    functions included, never reads.  Tuple-unpacking targets, _ and names
    declared global or nonlocal are exempt."""
    out = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bound, outer = [], set()
        for node in scope_nodes(fn):
            if isinstance(node, ast.Assign):
                bound += [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                bound += [node.target.id] if isinstance(node.target, ast.Name) else []
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                outer.update(node.names)
        read = {n.id for n in ast.walk(fn)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [f"{fn.name}.{name}" for name in dict.fromkeys(bound)
                if name not in read | outer and name != "_"]
    return sorted(out)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_local_is_read(path):
    assert unused_locals(path.read_text(encoding="utf-8")) == []


def test_unused_local_is_found():
    source = (
        "def f(xs):\n"
        "    a = b = 0\n"
        "    c: int = 1\n"
        "    d: int\n"
        "    p, q = xs\n"
        "    _ = len(xs)\n"
        "    e = 2\n"
        "    xs[0] = xs.y = e\n"
        "    def g():\n"
        "        nonlocal a\n"
        "        a = h = 3\n"
        "        return b\n"
        "    return g\n"
        "def k():\n"
        "    global G\n"
        "    G = 1\n"
    )
    # g's a is f's; nothing reads it
    assert unused_locals(source) == ["f.a", "f.c", "g.h"]


def bound_names(node: ast.stmt) -> list[str]:
    """Names a module-level statement binds by def, class or assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def module_definitions(source: str) -> list[str]:
    """Names bound at module level by def, class or assignment."""
    return [name for node in ast.parse(source).body for name in bound_names(node)]


@functools.cache
def parse(source: str) -> ast.Module:
    return ast.parse(source)


def reads(source: str, module: str) -> tuple[set[str], set[str]]:
    """(names of lmhs.<module> that the source reads, names it loads).

    Attribute names and string constants (monkeypatch targets, tracer
    tables, quoted annotations) are reads anywhere; a loaded name is a read
    where the source imports it from the module by name.  In the module
    itself every loaded name is a read.
    """
    tree = parse(source)
    out = set()
    loaded = set()
    imported = {}  # local name -> the name in lmhs.<module>
    # the literal pieces of an f-string are no names
    pieces = {id(v) for n in ast.walk(tree) if isinstance(n, ast.JoinedStr) for v in n.values}
    for node in ast.walk(tree):
        if id(node) in pieces:
            continue
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == module:
            imported.update((a.asname or a.name, a.name) for a in node.names)
    return out | {imported[n] for n in loaded if n in imported}, loaded


def unread_definitions(path: Path) -> list[str]:
    module = path.stem
    read = set()
    for root in READERS:
        for other in sorted(root.rglob("*.py")):
            names, loaded = reads(other.read_text(encoding="utf-8"), module)
            read |= names | (loaded if other == path else set())
    return [name for name in module_definitions(path.read_text(encoding="utf-8"))
            if name not in read]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_definition_is_read(path):
    assert unread_definitions(path) == []


def test_unread_definition_is_found(tmp_path):
    source = (
        "ZERO = 0\n"
        "ONE: int = 1\n"
        "def f(x):\n"
        "    x.g = ZERO\n"
        "    return 'h'\n"
        "class C:\n"
        "    pass\n"
        "def g():\n"
        "    pass\n"
        "def h():\n"
        "    pass\n"
    )
    names, loaded = reads(source, "m")
    assert [n for n in module_definitions(source) if n not in names | loaded] == [
        "ONE", "f", "C"]
    # elsewhere a loaded name is a read only when imported from the module
    other = "from .m import C as D\nfrom .n import f\nD(), f(), ONE, f'ONE{1}'\n"
    assert reads(other, "m")[0] == {"C"}


def orphaned_helpers(sources: dict[str, str]) -> list[str]:
    """module.name of each module-level def, class or assignment whose name
    starts with one underscore and that no code in sources references
    outside the statements that bind it.  A reference is a loaded name, in
    the defining module or in one that imports it from there, or an
    attribute of that name anywhere; sources maps module names to text."""
    binders = {}  # (module, name) -> the statements that bind it
    for module, source in sources.items():
        for node in parse(source).body:
            for name in bound_names(node):
                if name.startswith("_") and not name.startswith("__"):
                    binders.setdefault((module, name), []).append(node)
    referenced = set()
    for module, source in sources.items():
        tree = parse(source)
        imported = {a.asname or a.name: (node.module.split(".")[-1], a.name)
                    for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module
                    for a in node.names}
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    keys = [imported.get(node.id, (module, node.id))]
                elif isinstance(node, ast.Attribute):
                    keys = [(other, node.attr) for other in sources]
                else:
                    continue
                referenced.update(key for key in keys if top not in binders.get(key, ()))
    return [f"{module}.{name}" for module, name in binders if (module, name) not in referenced]


def test_no_private_helper_is_orphaned():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert orphaned_helpers(sources) == []


def test_orphaned_helper_is_found():
    sources = {
        "m": "def _a(n):\n    return _a(n - 1)\n"
             "def _b():\n    pass\n"
             "def f():\n    return _b()\n"
             "_C = 1\n_D = 2\n_E: int = 3\n",
        "n": "from .m import _C\nfrom . import m\nx = _C + m._E\n_b = 4\n",
    }
    assert orphaned_helpers(sources) == ["m._a", "m._D", "n._b"]


def test_every_tracer_target_resolves(monkeypatch):
    """perfbench/tracer.py rebinds its TARGETS by module, class and
    attribute name, so a target whose name moved or went away fails
    Tracer.prepare(); each target also rebinds its own attribute.  Nothing
    is installed, so no call is traced."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracer import TARGETS, Tracer

    tracer = Tracer()
    tracer.prepare()
    rebound = {(owner.__name__, attr) for owner, attr, _, _ in tracer._sites}
    assert [target for target in TARGETS
            if (target[3] or target[1], target[2]) not in rebound] == []


def test_orbit_signature_spans_are_named_evaluate(monkeypatch):
    """The tracer names an orbit_signature span from a third positional or
    a method keyword argument, which orbit_signature(H, det) never gets: so
    every orbit.signature* span of one verify_main_theorem call is
    orbit.signature_evaluate, the per-layer metric that records them."""
    import json
    from importlib import resources

    from lmhs import orbit
    from lmhs.mhs import MHSData

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracer import Tracer

    data = MHSData.from_json(json.loads(
        resources.files("lmhs").joinpath("fixtures", "elliptic.json").read_text()))
    tracer = Tracer()
    tracer.install()
    try:
        report = orbit.verify_main_theorem(data)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans if span[0].startswith("orbit.signature")]
    assert report.ok and names == ["orbit.signature_evaluate"] * (data.d + 1)
