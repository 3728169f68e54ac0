"""The code's surface as three counted numbers, ratcheted.

Read from the AST and the files under ``src/``:

* ``options`` — every parameter with a default (``def``, ``async def`` and
  ``lambda``) plus every dataclass field with a default that ``__init__``
  takes (``ClassVar`` and ``field(init=False)`` are not options);
* ``public_names`` — the summed length of every package ``__init__.py``'s
  ``__all__``;
* ``src_lines`` — lines of the ``.py`` files.

``tests/data/surface.json`` holds the committed numbers.  A number below
its committed value passes and is printed, so the change that lowered it
can commit it.  A number above it fails: a change that adds a knob, an
export or a line raises the committed number in the same diff, where a
reviewer sees it.

Rewrite the file on purpose with ``python tests/test_surface.py``.

Beside the ratchet, every name in a subpackage's ``__all__`` must have a
caller (:func:`export_offenders`): a file under ``src/`` other than that
``__init__``, ``benchmarks/``, ``scripts/`` or ``examples/`` that imports it
from the package or reads it as an attribute of the package, a doc page
(README, DESIGN, EXPERIMENTS, ``docs/*.md``) that names it, or it is an
exception class.  A name only tests use is imported from its submodule.
And every ``repro.<a>.<b>…`` name those doc pages, or the ``.py`` files
under those directories, cite must resolve (:func:`unresolved_doc_names`),
so a cut or a rename cannot leave a doc or a docstring behind.
"""

from __future__ import annotations

import ast
import importlib
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SURFACE_FILE = Path(__file__).parent / "data" / "surface.json"
CALLER_DIRS = ("src", "benchmarks", "scripts", "examples")
DOC_FILES = (
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / "EXPERIMENTS.md",
    *sorted((ROOT / "docs").glob("*.md")),
)


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _is_init_field(stmt: ast.AnnAssign) -> bool:
    if "ClassVar" in ast.unparse(stmt.annotation):
        return False
    value = stmt.value
    return not (
        isinstance(value, ast.Call)
        and ast.unparse(value.func).endswith("field")
        and any(
            kw.arg == "init" and isinstance(kw.value, ast.Constant) and kw.value.value is False
            for kw in value.keywords
        )
    )


def _options(tree: ast.AST) -> int:
    n = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            n += len(node.args.defaults)
            n += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            n += sum(
                isinstance(stmt, ast.AnnAssign) and stmt.value is not None and _is_init_field(stmt)
                for stmt in node.body
            )
    return n


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _public_names(tree: ast.Module) -> int:
    return len(_exports(tree))


def surface() -> dict[str, int]:
    counts = {"options": 0, "public_names": 0, "src_lines": 0}
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        counts["options"] += _options(tree)
        if path.name == "__init__.py":
            counts["public_names"] += _public_names(tree)
        counts["src_lines"] += len(text.splitlines())
    return counts


def _module_of(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _reached(tree: ast.Module, package: str) -> set[tuple[str, str]]:
    """Every ``(module, name)`` the file imports or reads as an attribute.

    ``package`` anchors relative imports (``""`` outside ``src/``); ``import
    … as`` and ``from … import`` aliases are followed through attribute
    chains, so ``from .. import serve`` then ``serve.X`` reaches
    ``("repro.serve", "X")``.
    """
    alias: dict[str, str] = {}
    reached = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                root = a.name.split(".")[0]
                alias[a.asname or root] = a.name if a.asname else root
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                if not package:
                    continue
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            for a in node.names:
                reached.add((base, a.name))
                alias[a.asname or a.name] = f"{base}.{a.name}"
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in alias:
            dotted = alias[node.id]
            for attr in reversed(chain):
                reached.add((dotted, attr))
                dotted = f"{dotted}.{attr}"
    return reached


def export_offenders() -> list[str]:
    """``package.name`` for every subpackage export without a caller."""
    inits = sorted(p for p in (SRC / "repro").rglob("__init__.py") if p.parent != SRC / "repro")
    callers: dict[Path, set] = {}
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            package = ""
            if top == "src":
                module = _module_of(path)
                package = module if path.name == "__init__.py" else module.rpartition(".")[0]
            callers[path] = _reached(ast.parse(path.read_text()), package)
    docs = "\n".join(p.read_text() for p in DOC_FILES)
    offenders = []
    for init in inits:
        package = _module_of(init)
        module = importlib.import_module(package)
        for name in _exports(ast.parse(init.read_text())):
            if any((package, name) in seen for path, seen in callers.items() if path != init):
                continue
            if re.search(rf"\b{re.escape(name)}\b", docs):
                continue
            obj = getattr(module, name)
            if isinstance(obj, type) and issubclass(obj, BaseException):
                continue
            offenders.append(f"{package.removeprefix('repro.')}.{name}")
    return offenders


def _resolve(dotted: str):
    """Import the longest module prefix of ``dotted``, ``getattr`` the rest."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for attr in parts[i:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


def cited_names() -> set[tuple[str, str]]:
    """``(file, dotted name)`` for every ``repro.…`` name a doc page or a
    ``.py`` file under :data:`CALLER_DIRS` cites (docstrings included)."""
    code = [path for top in CALLER_DIRS for path in sorted((ROOT / top).rglob("*.py"))]
    return {
        (path.relative_to(ROOT).as_posix(), name)
        for path in (*DOC_FILES, *code)
        for name in re.findall(r"\brepro(?:\.[A-Za-z_]\w*)+", path.read_text())
    }


def unresolved_doc_names() -> list[str]:
    bad = []
    for page, name in sorted(cited_names()):
        try:
            _resolve(name)
        except (ImportError, AttributeError):
            bad.append(f"{page}: {name}")
    return bad


def test_every_name_the_docs_cite_resolves():
    assert ("docs/OBSERVABILITY.md", "repro.observability") in cited_names()
    bad = unresolved_doc_names()
    assert not bad, "docs or code cite names that do not resolve:\n  " + "\n  ".join(bad)


def test_every_export_has_a_caller():
    offenders = export_offenders()
    assert not offenders, (
        "exported from a package but reached only by tests (import each from its "
        "submodule, or give it a caller or a doc):\n  " + "\n  ".join(offenders)
    )


def test_surface_does_not_grow():
    committed = json.loads(SURFACE_FILE.read_text())
    now = surface()
    assert now.keys() == committed.keys()
    grown = {k: (committed[k], now[k]) for k in now if now[k] > committed[k]}
    assert not grown, (
        f"the surface grew (committed, now): {grown}; raise {SURFACE_FILE.name} "
        "in the same change if the growth is meant"
    )
    if now != committed:
        print(f"surface shrank: {committed} -> {now}; commit the new numbers")


def test_counts_what_it_says():
    tree = ast.parse(
        "from dataclasses import dataclass, field\n"
        "from typing import ClassVar\n"
        "__all__ = ['a', 'b']\n"
        "def f(x, y=1, *, z=2, w): pass\n"
        "async def g(x=0): pass\n"
        "h = lambda q=3: q\n"
        "@dataclass(frozen=True)\n"
        "class C:\n"
        "    a: int\n"
        "    b: int = 0\n"
        "    c: list = field(default_factory=list)\n"
        "    d: list = field(init=False, default_factory=list)\n"
        "    E: ClassVar[int] = 5\n"
        "class D:\n"
        "    e: int = 0\n"
    )
    # y, z, g's x, q; then C.b and C.c.
    assert _options(tree) == 6
    assert _public_names(tree) == 2


def test_reached_follows_relative_imports_and_aliases():
    tree = ast.parse(
        "import repro.serve as rs\n"
        "import repro.data\n"
        "from .. import gateway\n"
        "from ..core import Trainer as T\n"
        "from . import sibling\n"
        "rs.VARIANTS; repro.data.DataLoader; gateway.server.GatewayServer; sibling.x\n"
    )
    reached = _reached(tree, "repro.cli")
    assert {
        ("repro.serve", "VARIANTS"),
        ("repro.data", "DataLoader"),
        ("repro", "gateway"),
        ("repro.gateway", "server"),
        ("repro.gateway.server", "GatewayServer"),
        ("repro.core", "Trainer"),
        ("repro.cli", "sibling"),
        ("repro.cli.sibling", "x"),
    } <= reached
    assert ("repro.core", "T") not in reached


if __name__ == "__main__":
    SURFACE_FILE.write_text(json.dumps(surface(), indent=2) + "\n")
    print(f"{SURFACE_FILE}: {SURFACE_FILE.read_text()}")
