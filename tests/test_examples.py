"""Every script under ``examples/`` runs to completion.

Each example runs in a fresh interpreter, from a temporary directory so
nothing it writes lands in the repository, and must exit 0; the examples
that verify their own output (``directed_knearest.py`` checks every
row's k nearest against Dijkstra) exit 1 when the check fails.
"""

from __future__ import annotations

import glob
import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = sorted(glob.glob(os.path.join(REPO_ROOT, "examples", "*.py")))


def test_examples_found():
    assert len(EXAMPLES) >= 8


@pytest.mark.parametrize("path", EXAMPLES, ids=os.path.basename)
def test_example_exits_zero(path, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    completed = subprocess.run(
        [sys.executable, path],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
