"""The package exports what its commands and the acceptance criteria call."""

import ast
from pathlib import Path

import kexpfam

PACKAGE = Path(kexpfam.__file__).parent
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")


def loaded_names(path: Path) -> set[str]:
    """The names and attributes that a module's code reads; strings and
    docstrings do not count."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_export_is_called_by_the_package_or_a_criterion():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    loaded = set().union(*map(loaded_names, [*modules, ACCEPTANCE]))
    assert sorted(set(kexpfam.__all__) - loaded) == []
