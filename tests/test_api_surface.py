"""The library's public surface is what its callers use.

Every public function, class and method defined in `src/pointloc` must be
named somewhere in `src/` outside its own definition, in `scripts/` or in
`perfbench/`, or be listed in KEEP with the reason it stays.  Names are
matched as identifiers, attribute names and string constants (the
benchmark tracer looks its layers up by name); `__init__.py` and the
`__all__` lists only re-export, so they do not count as a use.  Matching by
name can take an unrelated use of the same name for a use, never the other
way round, so the test never flags a definition something calls.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pointloc"

# Public definitions no caller outside tests uses, and why each stays.
KEEP = {
    # perfbench/tracer.py LAYERS names it; removing it changes the benchmark.
    "geometry.backproject",
    # The top-k candidate list of the planned geometric re-ranking stage.
    "retrieval.query_topk",
    # With scene_from_text, the one reader of scene.txt.
    "dataset.load_scene_model",
    "scene.scene_from_text",
    # The identity constructors.
    "geometry.UnitQuaternion.identity",
    "geometry.Pose.identity",
}


def _public_definitions(tree: ast.Module, module: str):
    """(qualified name, node) of each public module-level function and class
    and each public method of a public class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item


def _names(node: ast.AST) -> Counter:
    """How often each identifier appears in node as a name, an attribute, an
    imported name or a dotted part of a string constant."""
    found: Counter = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
        elif isinstance(n, ast.alias):
            found[n.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            found.update(n.value.split("."))
    return found


def _is_all(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def _uses(path: Path) -> Counter:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found: Counter = Counter()
    for node in tree.body:
        if not _is_all(node):
            found += _names(node)
    return found


def _survey():
    """Public definitions of src/pointloc, and the names used outside tests."""
    definitions = {}
    uses: Counter = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        definitions.update(_public_definitions(tree, path.stem))
        uses += _uses(path)
    for directory in ("scripts", "perfbench"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            uses += _uses(path)
    return definitions, uses


def test_every_public_definition_has_a_caller():
    definitions, uses = _survey()
    unused = []
    for qualname, node in definitions.items():
        name = qualname.rsplit(".", 1)[-1]
        if uses[name] - _names(node)[name] <= 0 and qualname not in KEEP:
            unused.append(qualname)
    assert not unused, f"public definitions only tests use: {unused}"


def test_keep_names_are_definitions():
    definitions, _ = _survey()
    assert KEEP <= definitions.keys()
