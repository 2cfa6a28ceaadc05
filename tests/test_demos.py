"""The demos print what they printed when their golden output was recorded,
the README's library snippet runs, every public name of the package is
pinned and used by a demo or the README, and the package's modules keep
their layering.

``coverage_cells.py`` is left out of the golden runs: it takes about ten
times as long as the others, and criterion 07 runs the same coverage path.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import survcmp

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden" / "demos"


@pytest.mark.parametrize("name", ["estimator_anatomy", "resampling_behavior",
                                  "tongue_analysis"])
def test_demo_output_frozen(name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": path})
    assert run.returncode == 0, run.stderr
    assert run.stdout == (GOLDEN / f"{name}.txt").read_text()


def _names_from_survcmp(source: str) -> set[str]:
    # the names a module imports with ``from survcmp import ...``
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "survcmp"
            for alias in node.names}


def _library_snippet() -> str:
    library = (ROOT / "README.md").read_text().split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", library, re.S).group(1)


def test_readme_library_snippet_runs(capsys):
    exec(compile(_library_snippet(), "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["asymptotic", "bootstrap", "permutation"]


def test_public_surface_is_pinned():
    # a new public name is a deliberate change to this list
    assert survcmp.__all__ == [
        "Sample", "mann_whitney_effect", "analyze", "ReplicateSet", "load_tongue",
        "ScenarioConfig", "coverage_study", "true_effect", "__version__",
    ]


# the package's modules, each importing package modules only from earlier ones
LAYERS = ["rng", "_engine", "survival", "inference", "datasets", "simulate", "cli"]


def _imports(tree: ast.Module):
    """(bound name, package module or None) for every import of a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                package, _, module = alias.name.partition(".")
                yield alias.asname or package, module if package == "survcmp" else None
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            ours = node.level or (node.module or "").split(".")[0] == "survcmp"
            module = (node.module or "").removeprefix("survcmp").lstrip(".")
            for alias in node.names:
                yield alias.asname or alias.name, (module or alias.name) if ours else None


def test_modules_import_earlier_layers_and_only_used_names():
    # no linter runs on the package, so this also catches an unused import;
    # ``__init__`` only re-exports and is exempt
    src = ROOT / "src" / "survcmp"
    assert sorted(p.stem for p in src.glob("*.py")) == sorted(LAYERS + ["__init__"])
    faults = []
    for layer, name in enumerate(LAYERS):
        tree = ast.parse((src / f"{name}.py").read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__all__"]:
                used |= {elt.value for elt in node.value.elts}
        for bound, module in _imports(tree):
            if bound not in used:
                faults.append(f"{name} never uses {bound}")
            if module is not None and module not in LAYERS[:layer]:
                faults.append(f"{name} imports {module}")
    assert faults == []


def test_public_names_are_used_by_demos_or_readme():
    used = set()
    for demo in (ROOT / "demos").glob("*.py"):
        used |= _names_from_survcmp(demo.read_text())
    used |= _names_from_survcmp(_library_snippet())
    unused = set(survcmp.__all__) - used - {"__version__"}
    assert not unused, f"public names no demo or README snippet imports: {sorted(unused)}"
