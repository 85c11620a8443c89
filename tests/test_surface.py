"""Every name a module of wco exports is used by the program itself.

The syntax trees of the package are walked, not imported.  A name in a
module's ``__all__`` counts as used when code outside its own definition
loads it: as a bare name (a call, an annotation, an isinstance test) or as
an attribute of its module (``spaces.norm``).  Docstrings and comments are
not code, and an import only binds a name, so neither counts.  A public name
that nothing loads is surface the commands never reach: wire it in or
delete it.  The few listed in `REFERENCES` stay, with their reasons.
"""

import ast
from pathlib import Path

import wco

PACKAGE = Path(wco.__file__).parent

#: exported names that no code of the package loads, kept for the tests
REFERENCES = {
    "apply": "psi * (f o phi) by series composition: the reference that "
    "tests/test_operators.py holds the columns of `build_matrix` to",
    "polynomial": "builds the probe series of the tests",
    "monomial": "builds the probe series of the tests",
    "mobius_circle_max": "|phi| on the circle by direct evaluation: the reference that "
    "acceptance criterion 09 holds the `selfmap_interval` endpoints to",
}


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return [ast.literal_eval(element) for element in node.value.elts]
    return []


def _definition(tree: ast.Module, name: str) -> ast.stmt | None:
    """The top-level statement that binds ``name``: a def, a class or an assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            return node
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return node
    return None


def _loads(node: ast.AST, module: str, name: str) -> bool:
    """``name`` read as a bare name, or as an attribute of ``module``."""
    if isinstance(node, ast.Name):
        return node.id == name and isinstance(node.ctx, ast.Load)
    return (
        isinstance(node, ast.Attribute)
        and node.attr == name
        and isinstance(node.ctx, ast.Load)
        and isinstance(node.value, ast.Name)
        and node.value.id == module
    )


def unreached_names() -> set[str]:
    """Exported names that no code outside their own definition loads."""
    modules = _modules()
    unreached = set()
    for module, tree in modules.items():
        for name in _exported(tree):
            definition = _definition(tree, name)
            assert definition is not None, f"{module}.__all__ names {name!r}, which it never binds"
            own = {id(node) for node in ast.walk(definition)}
            if not any(
                _loads(node, module, name) and not (where == module and id(node) in own)
                for where, other in modules.items()
                for node in ast.walk(other)
            ):
                unreached.add(name)
    return unreached


def test_every_exported_name_is_loaded_by_the_package():
    unreached = unreached_names()
    assert sorted(unreached - REFERENCES.keys()) == [], "exported, but loaded nowhere"
    assert sorted(REFERENCES.keys() - unreached) == [], "listed as a reference, but loaded"

