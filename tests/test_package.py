"""Package boundary: src/ehlcp holds no module-level function or class that
only the tests use.  Each one must be named by other code of the package,
or be exported by ehlcp/__init__.py (whose imports count as a use).  And
the tests' reference code shares no code with ehlcp.linprog, the simplex
that its reference LP checks."""

import ast
from pathlib import Path

import ehlcp

SRC = Path(ehlcp.__file__).parent
REFERENCE = Path(__file__).parent / "reference.py"


def _names(node) -> set:
    """Every name that node reads, imports or reads as an attribute."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name)
    return found


def unreferenced_definitions(src: Path) -> list:
    """module.name of each module-level def or class in src/*.py that no
    other top-level statement of the package names."""
    statements = [(path.stem, node) for path in sorted(src.glob("*.py"))
                  for node in ast.parse(path.read_text(encoding="utf-8")).body]
    used = [_names(node) for _, node in statements]
    out = []
    for i, (module, node) in enumerate(statements):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not any(node.name in names for j, names in enumerate(used) if j != i):
                out.append(f"{module}.{node.name}")
    return out


def test_every_definition_is_used_in_the_package_or_exported():
    assert unreferenced_definitions(SRC) == []


def test_a_definition_used_only_by_itself_is_reported(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n\n"
        "class Kept:\n    pass\n"
    )
    (tmp_path / "__init__.py").write_text("from .a import Kept\n")
    assert unreferenced_definitions(tmp_path) == ["a.recursive"]


def names_linprog(source: str) -> bool:
    """True when source imports ehlcp.linprog, or names linprog at all."""
    tree = ast.parse(source)
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    return any("linprog" in str(name).split(".") for name in _names(tree) | modules)


def test_the_reference_simplex_shares_no_code_with_linprog():
    assert not names_linprog(REFERENCE.read_text(encoding="utf-8"))
    for source in ("from ehlcp import linprog", "import ehlcp.linprog as lp",
                   "from ehlcp.linprog import _pivot", "import ehlcp\nehlcp.linprog._pivot"):
        assert names_linprog(source), source
