"""Every library definition is reached by code other than tests.

Each top-level function and class, and each method that is not a dunder, of
src/actionmaps/*.py (but __init__.py) must be named somewhere outside its own
definition: elsewhere in its module, in another package module (not
__init__.py), in perfbench/*.py or in tools/*.py. Tests do not count, so an
oracle that only tests use belongs in tests/. A name is an identifier, an
attribute, an imported name or a dotted part of a string constant, since
perfbench/trace_child.py names the functions it wraps in strings.

The check is by name, not by reference: a definition whose name other code
uses for something else passes. A method `rank` would pass because of
`params.rank`, and a method `stats` because of any `.stats` attribute.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "actionmaps"

# qualified name -> why it stays although nothing outside tests reaches it
UNREACHED = {
    "experiments.run_joint_vs_single": "the paper's joint-versus-single measurement; "
    "acceptance 06 runs it until a quality harness takes it over or drops it",
}


def _definitions(tree: ast.Module):
    """(qualified name, node) of each top-level function and class, and of
    each method of those classes that is not a dunder."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item


def _names(tree: ast.AST, skip: ast.AST = None) -> set[str]:
    """Every name used in tree, outside the subtree skip."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(node.value.split("."))
        stack.extend(ast.iter_child_nodes(node))
    return names


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_library_definition_is_reached_outside_tests():
    modules = {p.stem: _parse(p) for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"}
    used = {module: _names(tree) for module, tree in modules.items()}
    outside = set()
    for path in [*(ROOT / "perfbench").glob("*.py"), *(ROOT / "tools").glob("*.py")]:
        outside |= _names(_parse(path))
    unreached = []
    for module, tree in modules.items():
        elsewhere = outside.union(*(names for other, names in used.items() if other != module))
        for qualname, node in _definitions(tree):
            if node.name not in elsewhere and node.name not in _names(tree, skip=node):
                unreached.append(f"{module}.{qualname}")
    assert sorted(unreached) == sorted(UNREACHED)
