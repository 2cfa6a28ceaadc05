"""The demos print what they printed when their golden output was recorded,
the README's library snippet runs, and every public name of the package is
pinned and used by a demo or the README.

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
        "Sample", "pool", "mann_whitney_effect", "analyze", "ResamplingPlan", "ReplicateSet",
        "replicate_set", "load_tongue", "ScenarioConfig", "coverage_study", "true_effect",
        "__version__",
    ]


def test_public_names_are_used_by_demos_or_readme():
    used = set()
    for demo in (ROOT / "demos").glob("*.py"):
        used |= _names_from_survcmp(demo.read_text())
    used |= _names_from_survcmp(_library_snippet())
    unused = set(survcmp.__all__) - used - {"__version__"}
    assert not unused, f"public names no demo or README snippet imports: {sorted(unused)}"
