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


def assigned(node: ast.AST) -> list:
    """Names a module-level assignment binds, dunders (__all__) excluded."""
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for t in targets
            if isinstance(t, ast.Name) and not t.id.startswith("__")]


def test_every_definition_is_used_by_the_package():
    # A module-level function, class or constant must be referenced from some
    # other top-level statement of the package, or be exported; one that only
    # the tests read belongs in the tests.
    units, definitions, public = [], [], set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        public |= exported(tree)
        for node in tree.body:
            names = ([node.name] if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                     else assigned(node))
            definitions += [(path.name, name) for name in names]
            units.append(((path.name, names), references(node)))
    unused = sorted(f"{module}:{name}" for module, name in definitions
                    if name not in public
                    and not any(name in refs for (unit_module, names), refs in units
                                if not (unit_module == module and name in names)))
    assert not unused, f"defined but never used in src/opencat: {unused}"


def test_every_method_is_used_by_the_package():
    # A method other than a dunder must be read as an attribute (obj.method)
    # somewhere in the package outside its own body; a recursive call does
    # not count.  One that only the tests call belongs in the tests.
    trees = [(path.name, ast.parse(path.read_text(), filename=str(path)))
             for path in SOURCES]
    attributes = [node for _, tree in trees for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)]
    unused = []
    for module, tree in trees:
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            for method in cls.body:
                if (not isinstance(method, ast.FunctionDef)
                        or method.name.startswith("__") and method.name.endswith("__")):
                    continue
                own = {id(node) for node in ast.walk(method)}
                if not any(node.attr == method.name and id(node) not in own
                           for node in attributes):
                    unused.append(f"{module}:{cls.name}.{method.name}")
    assert not unused, f"methods never used in src/opencat: {sorted(unused)}"
