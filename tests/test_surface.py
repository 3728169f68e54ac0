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
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SURFACE_FILE = Path(__file__).parent / "data" / "surface.json"


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


def _public_names(tree: ast.Module) -> int:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "__all__" for t in node.targets
        ):
            return len(node.value.elts)
    return 0


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


if __name__ == "__main__":
    SURFACE_FILE.write_text(json.dumps(surface(), indent=2) + "\n")
    print(f"{SURFACE_FILE}: {SURFACE_FILE.read_text()}")
