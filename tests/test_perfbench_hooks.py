"""The repo benchmark's hooks into ``src/`` still resolve.

``perfbench/layers.py`` wraps named functions and methods of the package
and ``perfbench/run.py`` fingerprints the host with
``repro.semiring.kernels.resolve_kernel``.  Renaming or deleting any of
those targets would break the benchmark without failing another test, so
this runs both hooks in a fresh interpreter from the ``perfbench/``
directory, the way the benchmark itself imports them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_PROBE = r"""
import importlib
import json

from layers import FUNCTIONS, METHODS, LayerTracer

originals = {}
for layer, (module_name, attr) in FUNCTIONS.items():
    originals[layer] = getattr(importlib.import_module(module_name), attr)
for layer, (module_name, cls_name, attr) in METHODS.items():
    cls = getattr(importlib.import_module(module_name), cls_name)
    originals[layer] = cls.__dict__[attr]

import run
from workloads import WORKLOADS

LayerTracer().install()
unwrapped = [
    layer for layer, (module_name, attr) in FUNCTIONS.items()
    if getattr(importlib.import_module(module_name), attr) is originals[layer]
]
unwrapped += [
    layer for layer, (module_name, cls_name, attr) in METHODS.items()
    if getattr(importlib.import_module(module_name), cls_name).__dict__[attr]
    is originals[layer]
]
print(json.dumps({
    "unwrapped": unwrapped,
    "kernel": run.fingerprint(WORKLOADS["solve-thm81"], 7)["kernel"],
}))
"""


def test_layer_targets_and_fingerprint_resolve():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave perfbench/ untouched
    completed = subprocess.run(
        [sys.executable, "-c", _PROBE],
        cwd=os.path.join(REPO_ROOT, "perfbench"),
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(completed.stdout.strip().splitlines()[-1])
    assert report["unwrapped"] == []
    assert report["kernel"] == "float32"
