"""Scripts and tests use only the package's public names, and the package
exports only names that the pipeline or the scripts use."""
import ast
import graphlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import graphdenoise
from graphdenoise import cli

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    [
        *ROOT.glob("scripts/*.py"),
        *ROOT.glob("tests/*.py"),
        *(ROOT / "src" / "graphdenoise").glob("*.py"),
    ]
)


def test_no_underscore_imports_from_graphdenoise():
    # scripts and tests import graphdenoise by name, the package's own
    # modules import each other relatively
    offenders = []
    for path in SOURCES:
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


def test_cli_imports_no_solver_module():
    # cli maps train's patch functions onto the lanes; the solvers stay behind them
    names = []
    for node in ast.walk(ast.parse((ROOT / "src" / "graphdenoise" / "cli.py").read_text("utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names += [node.module or "", *(alias.name for alias in node.names)]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
    assert "train" in names
    assert [name for name in names if {"cg_unroll", "taylor_system"} & set(name.split("."))] == []


def test_train_reads_none_of_the_filter_layout():
    # graph_filter alone knows B's rows, in both directions: train hands
    # the gradient's sums to EdgeOuterSum and metric_adjoint and reads none
    # of the rows, sums or normalization that they hold
    tree = ast.parse((ROOT / "src" / "graphdenoise" / "train.py").read_text("utf-8"))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert {"EdgeOuterSum", "metric_adjoint"} <= imported
    assert "upper_offsets" not in imported
    assert read & {"upper", "row_sums", "inv_sqrt", "half", "mirror", "diagonal"} == set()


def test_no_unused_imports():
    # the package's __init__.py imports are its re-exports, and an import
    # whose first line is marked `# noqa: F401` is kept on purpose
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__" or "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert unused == []


def test_only_lanes_touches_the_pool():
    # every parallel job of the package and the scripts goes through
    # lanes.in_lanes, the one scheduler: no other module starts a thread
    # or a process
    sources = [*(ROOT / "src" / "graphdenoise").glob("*.py"), *ROOT.glob("scripts/*.py")]
    pattern = r"\b(fork|Thread|ThreadPoolExecutor|ProcessPoolExecutor|Process|Pool)\b"
    users = [p.name for p in sources if re.search(pattern, p.read_text(encoding="utf-8"))]
    assert users == ["lanes.py"]


def _relative_imports(tree, modules):
    """The package modules a module imports relatively at run time: imports
    under `if TYPE_CHECKING:` are for annotations only and are skipped."""
    targets = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            stack += node.orelse
            continue
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                targets.add(node.module.split(".")[0])
            else:  # from . import lanes
                targets |= {alias.name for alias in node.names if alias.name in modules}
        stack += ast.iter_child_nodes(node)
    return targets


def test_relative_imports_form_no_cycle():
    # the package's __init__ imports every module and is left out
    package = ROOT / "src" / "graphdenoise"
    modules = {p.stem for p in package.glob("*.py")} - {"__init__"}
    graph = {
        name: _relative_imports(ast.parse((package / f"{name}.py").read_text("utf-8")), modules)
        for name in modules
    }
    assert "compiled" in graph["train"]
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        pytest.fail("import cycle: " + " -> ".join(exc.args[1]))


def _imports_by_function(tree):
    """(top-level module, name of the innermost enclosing function or None)
    for every absolute import in a module."""
    found = []
    stack = [(tree, None)]
    while stack:
        node, function = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Import):
            found += [(alias.name.split(".")[0], function) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.module.split(".")[0], function))
        stack += [(child, function) for child in ast.iter_child_nodes(node)]
    return found


def test_runtime_dependencies_are_numpy_and_scipy():
    sample = "import os.path\ndef load():\n    from json import loads\n"
    assert sorted(_imports_by_function(ast.parse(sample)), key=str) == [
        ("json", "load"),
        ("os", None),
    ]
    allowed = set(sys.stdlib_module_names) | {"numpy", "scipy"}
    offenders = []
    for path in sorted((ROOT / "src" / "graphdenoise").glob("*.py")):
        for module, function in _imports_by_function(ast.parse(path.read_text("utf-8"))):
            if module not in allowed:
                offenders.append(f"{path.name}: {module} in {function or 'module scope'}")
    assert offenders == []


def test_the_cli_imports_no_scipy_sparse():
    # Psi's matvec kernel is loaded from its extension file alone
    # (graph_filter._load_dia_matvec); scipy.sparse's own imports would add
    # about 20 MB to every process
    code = "import sys, graphdenoise.cli; print(*sorted(m for m in sys.modules if 'scipy' in m))"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert done.stdout.split() == ["scipy.sparse._sparsetools"]


def test_readme_library_example_runs():
    # the README's "Library use" block, run as written
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    features, reference, denoised = (namespace[k] for k in ("features", "reference", "denoised"))
    assert features.shape == (64, 64, graphdenoise.FEATURE_DIM)
    assert isinstance(namespace["system"], graphdenoise.TaylorSystemOperator)
    # "it matches `denoised` to a few 1e-9 relative"
    assert np.linalg.norm(denoised - reference) / np.linalg.norm(reference) < 1e-8


def test_readme_cli_examples_parse():
    # every `graphdenoise ...` command of the README's CLI block, one per
    # command, with its `\` continuations joined
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    examples = [shlex.split(line)[1:] for line in lines if line.startswith("graphdenoise ")]
    assert [argv[0] for argv in examples] == list(cli.READS)
    for argv in examples:
        # as cli.run builds it: flags on the invoked command's subparser
        cli.make_parser(argv[0]).parse_args(argv)
