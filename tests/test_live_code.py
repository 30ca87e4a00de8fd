"""The package ships only code that runs: every top-level public function and
class of ``riccati_cert`` (``__init__.py`` holds only ``__version__``) is
named by a statement of the package or of ``perfbench`` other than its own
definition. A test does not count as a caller, and neither does a docstring,
a string or an import."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted(p for p in (ROOT / "src" / "riccati_cert").glob("*.py") if p.name != "__init__.py")
CALLERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))

#: Public names that no statement needs to name, each with why it stays
ALLOWED = {
    "main": "the console-script entry point of pyproject.toml",
    "build_skew_gauge": "cor3.1's gauge, which test_corollaries.py passes to theorem3.1",
}


def _names(node: ast.AST) -> set[str]:
    """Every identifier ``node`` reads or binds as a Name or an Attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_public_definition_is_named_by_the_code():
    public, named = {}, set()
    for path in CALLERS:
        for stmt in ast.parse(path.read_text(), str(path)).body:
            names = _names(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.discard(stmt.name)  # a recursive call names itself
                if path in PACKAGE and not stmt.name.startswith("_"):
                    public[stmt.name] = path.name
            named |= names
    assert set(ALLOWED) <= set(public)
    unused = {name: module for name, module in public.items()
              if name not in named and name not in ALLOWED}
    assert unused == {}
