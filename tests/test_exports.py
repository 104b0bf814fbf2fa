"""The package exports what its commands and the acceptance criteria call,
and its classes have no public method or property that only tests call."""

import ast
from pathlib import Path

import kexpfam

PACKAGE = Path(kexpfam.__file__).parent
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
MODULE_NAMES = {"kexpfam", *(p.stem for p in MODULES)}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def reads(path: Path) -> tuple[set[str], set[str]]:
    """(names, attributes) that a module's code reads; strings and
    docstrings do not count.  An attribute of a ``kexpfam`` module, such as
    ``score_fit.fit_factor``, counts as a name too, and no other attribute
    does: ``line.split`` reads no ``split`` of the package."""
    names, attributes = set(), set()
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
            owner = node.value
            if getattr(owner, "id", getattr(owner, "attr", None)) in MODULE_NAMES:
                names.add(node.attr)
    return names, attributes


def read_by_package_or_criteria() -> tuple[set[str], set[str]]:
    names, attributes = zip(*map(reads, [*MODULES, ACCEPTANCE]))
    return set().union(*names), set().union(*attributes)


def test_every_export_is_called_by_the_package_or_a_criterion():
    names, _ = read_by_package_or_criteria()
    assert sorted(set(kexpfam.__all__) - names) == []


def test_every_public_method_is_called_by_the_package_or_a_criterion():
    """Methods and properties alike: both are read as attributes."""
    _, attributes = read_by_package_or_criteria()
    public = {
        f"{path.stem}.{cls.name}.{member.name}"
        for path in MODULES
        for cls in ast.walk(parse(path)) if isinstance(cls, ast.ClassDef)
        for member in cls.body
        if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
    }
    assert sorted(m for m in public if m.rsplit(".", 1)[1] not in attributes) == []
