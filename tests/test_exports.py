"""Every name the package exports has a caller outside the tests: code that
only tests use lives in the tests, as an oracle, or is deleted.

The sources are parsed, not imported, so that nothing under benchmark/ runs.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pedcascade"


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def used_names(path: Path):
    """The identifiers `path` reads, as names or as attributes."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_export_has_a_caller_outside_the_tests():
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "benchmark").glob("*.py"))
    used = set().union(*map(used_names, sources))
    exported = exported_names()
    assert exported, "no exports parsed"
    assert sorted(exported - used) == []
