"""Static hygiene of the package source: no unused import, no `global`, no
definition that the package itself never uses."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "opencat").glob("*.py"))


def exported(tree: ast.Module) -> set:
    """Names listed in a module-level __all__, which count as used."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return {elt.value for elt in node.value.elts}
    return set()


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_import_or_global(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        assert not isinstance(node, ast.Global), f"{path.name}:{node.lineno} uses global"
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in imported.items()
                    if name not in used | exported(tree))
    assert not unused, f"{path.name}: unused imports {unused}"


def references(node: ast.AST) -> set:
    """Names a node refers to, bare (f) or as an attribute (module.f)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def test_every_definition_is_used_by_the_package():
    # A module-level function or class must be referenced from some other
    # top-level statement of the package, or be exported; one that only the
    # tests call belongs in the tests.
    units, definitions, public = [], [], set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        public |= exported(tree)
        for node in tree.body:
            name = getattr(node, "name", None)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((path.name, name))
            units.append(((path.name, name), references(node)))
    unused = sorted(f"{module}:{name}" for module, name in definitions
                    if name not in public
                    and not any(name in refs for key, refs in units
                                if key != (module, name)))
    assert not unused, f"defined but never used in src/opencat: {unused}"
