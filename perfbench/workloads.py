"""Workload ladders and the operations that run them, each in a fresh process.

Every operation is one child process, started only after the previous one
has ended (closed loop, one client), so it pays interpreter start-up,
import and the fill of every cache, as a user's invocation does.  CLI
operations run ``python -m orbimirror.cli``; library-level operations run
``perfbench/child.py``.  Nothing from ``orbimirror`` is imported here.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from oracle import KONTSEVICH_WEIGHTS, kontsevich_mismatches

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

WORKLOADS = ("verify-rank", "reconstruct-depth", "residual-sweep")
DEFAULT_SEED = 0

# The fixed weight suite of the test-suite (mu 2..25), restated so the
# benchmark does not import the tests.
SUITE = (
    (1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4), (3, 3), (4, 6),
    (1, 2, 3), (2, 3, 5), (1, 1, 1), (1, 1, 1, 1), (1, 2, 3, 4),
    (1, 2, 2, 3, 3, 3), (2, 3, 4, 5, 7), (1, 4, 5, 7, 8),
)
VERIFY_COMMANDS = ("basis", "cup", "pairing", "smallqc", "bside", "mirror")
# selftest is O(mu^3): about 1 s at mu = 10, but 10 s at mu = 25.
SELFTEST_MAX_MU = 10


@dataclass(frozen=True)
class Rung:
    weights: tuple[int, ...]
    commands: tuple[str, ...] = ()  # CLI commands run on this rung
    depth: int | None = None  # reconstruct max length L
    sweep: int | None = None  # library sweep: residuals at |alpha| <= sweep

    @property
    def mu(self) -> int:
        return sum(self.weights)

    @property
    def csv(self) -> str:
        return ",".join(map(str, self.weights))

    def ops(self) -> list[tuple[str, str]]:
        """(op key, command) pairs; the key names the op in digests and reports."""
        if self.sweep is not None:
            return [(f"sweep {self.csv} L{self.depth} a{self.sweep}", "sweep")]
        suffix = f" L{self.depth}" if self.depth else ""
        return [(f"{c} {self.csv}{suffix}", c) for c in self.commands]

    def trace_spec(self, workload: str) -> dict:
        return {
            "id": f"{workload}/{self.csv}" + (f"/L{self.depth}" if self.depth else ""),
            "weights": list(self.weights),
            "selftest": self.mu <= SELFTEST_MAX_MU,
            "depth": self.depth,
            "sweep": self.sweep,
        }


def _shuffled(rng: random.Random, weights: tuple[int, ...]) -> tuple[int, ...]:
    # A reordering of a weight vector costs the same as the vector itself, so
    # seeded rungs drawn this way keep a pass's cost independent of the seed.
    return tuple(rng.sample(weights, len(weights)))


def rungs(workload: str, seed: int) -> list[Rung]:
    """The ladder of one workload.  The seed only draws the extra rungs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-rank":
        fixed = [(1, 1), (2, 3), (1, 2, 3, 4), (1, 2, 2, 3, 3, 3)]
        extra = [_shuffled(rng, (3, 5, 6, 8, 10)), _shuffled(rng, (5, 8, 9, 11, 15, 16))]
        return [
            Rung(w, VERIFY_COMMANDS + (("selftest",) if sum(w) <= SELFTEST_MAX_MU else ()))
            for w in fixed + extra
        ]
    if workload == "reconstruct-depth":
        fixed = [((1, 1, 1), 16), ((1, 1, 1, 1), 10), ((2, 3, 5), 7), ((4, 6), 7),
                 ((1, 2, 2, 3, 3, 3), 5)]
        extra = [(_shuffled(rng, (2, 3, 4)), 6)]
        return [Rung(w, ("reconstruct",), depth=L) for w, L in fixed + extra]
    if workload == "residual-sweep":
        members = [w for w in SUITE if sum(w) <= 5]
        # The reorderings that are not members themselves; a two-weight mu = 5
        # member costs about the same in either order.
        extra = rng.choice([(4, 1), (3, 2)])
        return [Rung(w, depth=6, sweep=3) for w in members + [extra]]
    raise ValueError(f"unknown workload {workload!r}")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("ORBIMIRROR_MAX_MU", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def run_child(args: list[str]) -> tuple[float, int, str, str]:
    """Run one child to completion: (wall seconds, exit code, stdout, stderr)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=child_env(), capture_output=True, text=True
    )
    return time.perf_counter() - t0, proc.returncode, proc.stdout, proc.stderr


def cold_import_seconds() -> float:
    """A cold ``import orbimirror.cli`` timed inside a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import orbimirror.cli; "
        "print(repr(time.perf_counter() - t))"
    )
    _, rc, out, err = run_child(["-c", code])
    if rc != 0:
        raise RuntimeError(f"cold import failed: {err.strip()}")
    return float(out)


def reference_seconds() -> float:
    """Wall time of ``child.py reference``: a fixed job that does not touch orbimirror."""
    seconds, rc, _, err = run_child([str(CHILD), "reference", "{}"])
    if rc != 0:
        raise RuntimeError(f"reference job failed: {err.strip()}")
    return seconds


def load_digests() -> dict[str, str]:
    try:
        return json.loads(DIGESTS.read_text())
    except FileNotFoundError:
        return {}


def _check_cli(rung: Rung, command: str, out: str) -> list[str]:
    if command not in ("mirror", "selftest", "reconstruct"):
        return []
    payload = json.loads(out)
    if command in ("mirror", "selftest"):
        return [] if payload["status"] == "PASS" else [f"status {payload['status']}"]
    if rung.weights != KONTSEVICH_WEIGHTS:
        return []
    coeffs = {tuple(c["alpha"]): c["A"] for c in payload["coefficients"]}
    return kontsevich_mismatches(lambda a: coeffs.get(a, "0"), rung.depth)


def run_op(rung: Rung, key: str, command: str, digests: dict[str, str]) -> dict:
    """One operation, timed from outside and then checked."""
    if command == "sweep":
        spec = {"weights": list(rung.weights), "depth": rung.depth, "sweep": rung.sweep}
        seconds, rc, out, err = run_child([str(CHILD), "sweep", json.dumps(spec)])
    else:
        args = ["-m", "orbimirror.cli", command, "--weights", rung.csv]
        if command == "reconstruct":
            args += ["--max-length", str(rung.depth)]
        seconds, rc, out, err = run_child(args)
    failures = []
    digest = None
    if rc != 0:
        failures.append(f"exit code {rc}, expected 0: {err.strip()[-200:]}")
    else:
        try:
            if command == "sweep":
                result = json.loads(out)
                failures += result["failures"]
                digest = result["digest"]
            else:
                failures += _check_cli(rung, command, out)
                digest = hashlib.sha256(out.encode()).hexdigest()
        except (ValueError, KeyError) as exc:
            failures.append(f"unreadable output: {exc!r}")
        if digest and key in digests and digests[key] != digest:
            failures.append("stdout digest differs from the recorded one")
    return {"key": key, "seconds": seconds, "digest": digest, "failures": failures}


def run_pass(ladder: list[Rung], digests: dict[str, str]) -> list[dict]:
    return [run_op(r, key, cmd, digests) for r in ladder for key, cmd in r.ops()]


def run_traced_rung(workload: str, rung: Rung) -> dict:
    spec = rung.trace_spec(workload)
    seconds, rc, out, err = run_child([str(CHILD), "trace", json.dumps(spec)])
    if rc != 0:
        return {"spec": spec, "seconds": seconds,
                "failures": [f"exit code {rc}: {err.strip()[-200:]}"]}
    return {"spec": spec, "seconds": seconds, **json.loads(out)}
