"""The demos print what they printed when their golden output was recorded.

``coverage_cells.py`` is left out: it takes about ten times as long as the
others, and criterion 07 runs the same coverage path.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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
