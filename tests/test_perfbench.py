"""The benchmark's child runs clean.

``perfbench/child.py trace`` calls public names of every layer that no other
test imports in that combination; this keeps a rename or deletion from
breaking the benchmark unnoticed.  ``perfbench/child.py sweep`` must also
reproduce the benchmark's pinned digest of ``nonzero_items()``, so a change
to the potential's contents fails here before the benchmark runs.
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


def _run_child(mode: str, rung: dict) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (PACKAGE_ROOT, env.get("PYTHONPATH")))
    )
    res = subprocess.run(
        [sys.executable, "perfbench/child.py", mode, json.dumps(rung)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


def test_trace_walk_has_no_failures():
    result = _run_child("trace", RUNG)
    assert result["failures"] == []
    assert result["counters"]["wdvv.residuals_nonzero"] == 0


def test_sweep_matches_benchmark_digest():
    # One rung of the residual-sweep workload: every residual at |alpha| <= 3.
    digests = json.loads((ROOT / "perfbench" / "digests.json").read_text())
    result = _run_child("sweep", {"weights": [2, 3], "depth": 6, "sweep": 3})
    assert result["failures"] == []
    assert result["residuals"] == 35_000
    assert result["digest"] == digests["sweep 2,3 L6 a3"]
