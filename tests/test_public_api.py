"""Scripts and tests use only the package's public names."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_no_underscore_imports_from_graphdenoise():
    offenders = []
    for path in sorted([*ROOT.glob("scripts/*.py"), *ROOT.glob("tests/*.py")]):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("graphdenoise"):
                offenders += [
                    f"{path.name}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert offenders == []
