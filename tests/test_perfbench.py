"""The benchmark's trace walk runs clean on a tiny rung.

``perfbench/child.py trace`` calls public names of every layer that no other
test imports in that combination; this keeps a rename or deletion from
breaking the benchmark unnoticed.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import orbimirror

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE_ROOT = str(pathlib.Path(orbimirror.__file__).resolve().parents[1])
RUNG = {"id": "tiny", "weights": [1, 2], "selftest": True, "depth": 4, "sweep": 1}


def test_trace_walk_has_no_failures():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (PACKAGE_ROOT, env.get("PYTHONPATH")))
    )
    res = subprocess.run(
        [sys.executable, "perfbench/child.py", "trace", json.dumps(RUNG)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout)
    assert result["failures"] == []
    assert result["counters"]["wdvv.residuals_nonzero"] == 0
