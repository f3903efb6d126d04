"""Scripts and tests use only the package's public names, and the package
exports only names that the pipeline or the scripts use."""
import ast
import re
from pathlib import Path

import graphdenoise

ROOT = Path(__file__).resolve().parent.parent


def test_no_underscore_imports_from_graphdenoise():
    # scripts and tests import graphdenoise by name, the package's own
    # modules import each other relatively
    paths = [
        *ROOT.glob("scripts/*.py"),
        *ROOT.glob("tests/*.py"),
        *(ROOT / "src" / "graphdenoise").glob("*.py"),
    ]
    offenders = []
    for path in sorted(paths):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("graphdenoise")
            ):
                offenders += [
                    f"{path.name}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert offenders == []


def test_every_exported_name_is_used_by_the_package_or_scripts():
    # a name only tests use belongs in tests/oracles.py, not in the package
    sources = [
        *(p for p in (ROOT / "src" / "graphdenoise").glob("*.py") if p.name != "__init__.py"),
        *ROOT.glob("scripts/*.py"),
    ]
    lines = [line for path in sources for line in path.read_text(encoding="utf-8").splitlines()]
    unused = []
    for name in graphdenoise.__all__:
        own_definition = re.compile(rf"^\s*(def|class)\s+{name}\b")
        used = re.compile(rf"\b{name}\b")
        if not any(used.search(line) and not own_definition.match(line) for line in lines):
            unused.append(name)
    assert unused == []
