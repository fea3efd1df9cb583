"""The orbimirror benchmark.  NOTES.md names the workloads and metrics.

One run of one workload (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload verify-rank --seed 1 --seconds 40 --trace 0

Other modes:

    run.py all --seed N                  every workload, untraced then traced
    run.py collect --out F               seeds 1..10 of every workload into one file
    run.py compare PARENT.json CHANGE.json
    run.py steady                        two sets of seeds 1..10: do they agree?
    run.py record-digests                record stdout digests for the default seed

Run from the repository root; the package is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import stats
from workloads import (
    DEFAULT_SEED,
    DIGESTS,
    ROOT,
    SRC,
    WORKLOADS,
    cold_import_seconds,
    load_digests,
    reference_seconds,
    run_op,
    run_pass,
    run_traced_rung,
    rungs,
)

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"
# Probes per untraced run, spread evenly over it.  A probe is one cold import
# (for setup_s) and one run of the reference job.
PROBES = 24
# A typical lower quartile of the reference job's times in one run, on the
# two-vCPU machine the benchmark was built on (Python 3.11).  A run's times
# are scaled by this over the lower quartile of the run's own reference jobs,
# so that a run while other tenants slow the machine reads about as a run in
# a quiet stretch does.
REFERENCE_SECONDS = 0.09
SUMMED_COUNTERS = (
    "mirror.checks", "selftest.checks", "wdvv.coeffs_nonzero", "wdvv.coeffs_nonzero_4plus",
    "wdvv.index_space_4plus", "wdvv.residuals", "wdvv.residuals_nonzero",
)
MAX_COUNTERS = ("wdvv.reconstruct_peak_mb", "wdvv.coeff_height_bits")
# Runs per workload in collect and steady, one per seed 1..RUNS.
RUNS = 10


class BenchError(Exception):
    pass


def load_spec() -> dict:
    try:
        return json.loads(SPEC.read_text())
    except FileNotFoundError:
        raise BenchError(f"{SPEC.name} not found at the repository root") from None


def require_package() -> None:
    if not (SRC / "orbimirror" / "cli.py").is_file():
        raise BenchError("src/orbimirror is missing: run from a full checkout")


def src_lines() -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted(SRC.rglob("*.py"))
    )


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int | None) -> dict:
    return {
        "python": platform.python_version(),
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "commit": git_commit(),
        "src.lines": src_lines(),
    }


def _fits(seconds: float, started: float, next_pass: float) -> bool:
    """Whether a pass expected to take ``next_pass`` seconds ends inside the window."""
    return time.perf_counter() - started + next_pass <= seconds


def _failures(ops: list[dict]) -> list[str]:
    return [f"{op['key']}: {f}" for op in ops for f in op["failures"]]


def untraced_run(workload: str, seed: int, seconds: float, digests: dict) -> dict:
    ladder = rungs(workload, seed)
    setup = []
    ref = []
    passes = []
    started = time.perf_counter()
    walls = []
    while not passes or _fits(seconds, started, statistics.mean(walls)):
        ops = []
        for rung in ladder:
            for key, command in rung.ops():
                if len(setup) <= PROBES * (time.perf_counter() - started) / seconds:
                    setup.append(cold_import_seconds())
                    ref.append(reference_seconds())
                ops.append(run_op(rung, key, command, digests))
        passes.append(ops)
        walls.append(sum(op["seconds"] for op in ops))
    samples = {op["key"]: [p[i]["seconds"] for p in passes] for i, op in enumerate(passes[0])}
    op_times = {key: {**stats.summary(v), "samples": v} for key, v in samples.items()}
    rung_times = {r.csv: sum(op_times[key]["median"] for key, _ in r.ops()) for r in ladder}
    top = max(rung_times, key=rung_times.get)
    ops = [op for p in passes for op in p]
    failed = sum(1 for op in ops if op["failures"])
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    ref_q1 = stats.quartiles(ref)[0]
    scale = REFERENCE_SECONDS / ref_q1

    def timed(measured: float, **extra) -> dict:
        return {**extra, "measured": measured, "value": measured * scale}

    return {
        "metrics": {
            "setup_s": timed(stats.quartiles(setup)[0], **stats.summary(setup)),
            "wall_s": timed(statistics.median(walls), **stats.summary(walls)),
            "wall_tail_s": timed(stats.tail(walls), n=len(walls)),
            "top_rung_s": timed(rung_times[top], n=len(passes), rung=top),
            "peak_rss_mb": {"value": peak_mb, "n": len(ops)},
            "failed_ratio": {"value": failed / len(ops), "n": len(ops)},
        },
        "reference": {**stats.summary(ref), "samples": ref, "scale": scale},
        "attempted": len(ops),
        "failed": failed,
        "failures": _failures(ops),
        "digests": {op["key"]: op["digest"] for op in passes[0]},
        "ops": op_times,
    }


def _reduce_traced_pass(recs: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and the per-rung, per-L reconstruct times."""
    values: dict[str, float] = defaultdict(float)
    ladder = {}
    hits: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for rec in recs:
        spec = rec["spec"]
        own = stats.self_times(rec.get("spans", []))
        for s in rec.get("spans", []):
            if s["layer"] == "rung":
                continue
            if s["name"] == "reconstruct":
                ladder[f"{spec['id']} L={s['L']}"] = own[s["id"]]
                if s["L"] != spec["depth"]:
                    continue
            values[f"{s['layer']}.{s['name']}_s"] += own[s["id"]]
        counters = rec.get("counters", {})
        for name in SUMMED_COUNTERS:
            if name in counters:
                values[name] += counters[name]
        for name in MAX_COUNTERS:
            if name in counters:
                values[name] = max(values[name], counters[name])
        for fn, (h, m) in rec.get("cache", {}).items():
            hits[fn][0] += h
            hits[fn][1] += m
    if values.get("wdvv.index_space_4plus"):
        values["wdvv.nonzero_share"] = (
            values["wdvv.coeffs_nonzero_4plus"] / values["wdvv.index_space_4plus"]
        )
    if values.get("wdvv.residuals"):
        values["wdvv.residual_us"] = (
            values["wdvv.residual_sweep_s"] / values["wdvv.residuals"] * 1e6
        )
    for fn, (h, m) in hits.items():
        if h + m:
            values[f"cache.{fn}.hit_ratio"] = h / (h + m)
    return dict(values), ladder


def traced_run(workload: str, seed: int, seconds: float, digests: dict) -> dict:
    ladder = rungs(workload, seed)
    started = time.perf_counter()
    untraced = run_pass(ladder, digests)
    untraced_wall = sum(op["seconds"] for op in untraced)
    passes = []
    traced_walls = []
    while not passes or _fits(seconds, started, traced_walls[-1]):
        passes.append([run_traced_rung(workload, r) for r in ladder])
        traced_walls.append(sum(rec["seconds"] for rec in passes[-1]))
    reduced = [_reduce_traced_pass(p) for p in passes]
    names = sorted({k for values, _ in reduced for k in values})
    metrics = {}
    for name in names:
        summary = stats.summary([values[name] for values, _ in reduced if name in values])
        metrics[name] = {**summary, "value": summary["median"]}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(traced_walls) - untraced_wall, "n": len(passes)
    }
    metrics["src.lines"] = {"value": src_lines(), "n": 1}
    rung_failures = [
        f"{rec['spec']['id']}: {f}" for p in passes for rec in p for f in rec["failures"]
    ]
    failed = sum(1 for op in untraced if op["failures"]) + sum(
        1 for p in passes for rec in p if rec["failures"]
    )
    OUT.mkdir(exist_ok=True)
    spans = [
        {**s, "pass": i} for i, p in enumerate(passes) for rec in p for s in rec.get("spans", [])
    ]
    (OUT / f"spans-{workload}-seed{seed}.json").write_text(json.dumps(spans))
    return {
        "metrics": metrics,
        "attempted": len(untraced) + sum(len(p) for p in passes),
        "failed": failed,
        "failures": _failures(untraced) + rung_failures,
        "digests": {op["key"]: op["digest"] for op in untraced},
        "reconstruct_by_length": {
            k: stats.summary([lad[k] for _, lad in reduced if k in lad])
            for k in reduced[0][1]
        },
    }


def _metric_defs(spec: dict, trace: int) -> list[dict]:
    return spec["per_layer" if trace else "end_to_end"]


def print_record(rec: dict, defs: list[dict]) -> None:
    print(
        f"== {rec['workload']}  seed {rec['provenance']['seed']}  trace {rec['trace']}  "
        f"attempted {rec['attempted']}  failed {rec['failed']}"
    )
    units = {d["name"]: d["unit"] for d in defs}
    for name, m in rec["metrics"].items():
        measured = f"  measured {m['measured']:.6g}" if "measured" in m else ""
        dist = f"  median {m['median']:.6g} [{m['q1']:.6g}, {m['q3']:.6g}]" if "q1" in m else ""
        print(f"  {name:36s} {m['value']:.6g} {units.get(name, '')}{measured}{dist}  n {m['n']}")
    for key, m in rec.get("reconstruct_by_length", {}).items():
        print(f"  wdvv.reconstruct_s[{key}] {m['median']:.6g} s")
    for f in rec["failures"]:
        print(f"  FAILED {f}")


def workload_main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="run.py", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=None, help="write the full record here")
    args = ap.parse_args(argv)
    spec = load_spec()
    require_package()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    run = traced_run if args.trace else untraced_run
    rec = run(args.workload, args.seed, seconds, load_digests())
    rec.update(workload=args.workload, trace=args.trace, seconds=seconds,
               provenance=provenance(args.seed), correct=rec["failed"] == 0)
    defs = _metric_defs(spec, args.trace)
    for d in defs:
        if d["name"] in rec["metrics"]:
            rec["metrics"][d["name"]]["unit"] = d["unit"]
    if args.out:
        args.out.write_text(json.dumps(rec, indent=1))
    print_record(rec, defs)
    # The result line names every metric.  A per-layer metric absent from the
    # record (a layer that does no work in this workload, or a cache that no
    # longer exists) reads 0 there.
    result = {
        "correct": rec["correct"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {
            d["name"]: {"value": rec["metrics"].get(d["name"], {"value": 0})["value"],
                        "unit": d["unit"]}
            for d in defs
        },
    }
    print(json.dumps(result))
    return 0


def collect(seeds, seconds, trace: int) -> list[dict]:
    """One run per (seed, workload), each a fresh ``run.py`` process."""
    OUT.mkdir(exist_ok=True)
    records = []
    for seed in seeds:
        for workload in WORKLOADS:
            path = OUT / f"run-{workload}-seed{seed}-trace{trace}.json"
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                   "--out", str(path)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                raise BenchError(f"{' '.join(cmd[1:])} exited {proc.returncode}: "
                                 f"{proc.stderr.strip()[-500:]}")
            rec = json.loads(path.read_text())
            records.append(rec)
            print(f"  {workload} seed {seed} trace {trace}: attempted {rec['attempted']} "
                  f"failed {rec['failed']}", file=sys.stderr, flush=True)
    return records


def _values(records, workload, metric) -> list[float]:
    return [r["metrics"][metric]["value"] for r in records
            if r["workload"] == workload and r["trace"] == 0 and metric in r["metrics"]]


def all_main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="run.py all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = ap.parse_args(argv)
    spec = load_spec()
    require_package()
    records = [rec for trace in (0, 1)
               for rec in collect([args.seed], spec["run_seconds"], trace)]
    for rec in records:
        print_record(rec, _metric_defs(spec, rec["trace"]))
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "failed_ratio": {r["workload"]: r["metrics"]["failed_ratio"]["value"]
                         for r in records if r["trace"] == 0},
    }))
    return 0


def collect_main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="run.py collect")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    spec = load_spec()
    require_package()
    records = collect(range(1, RUNS + 1), spec["run_seconds"], 0)
    args.out.write_text(json.dumps({"provenance": provenance(None), "runs": records}, indent=1))
    return 0


def _digest_map(records) -> dict[str, set]:
    out: dict[str, set] = defaultdict(set)
    for r in records:
        for key, digest in r.get("digests", {}).items():
            out[key].add(digest)
    return out


def compare_main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="run.py compare")
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    spec = load_spec()
    parent = json.loads(args.parent.read_text())
    change = json.loads(args.change.read_text())
    for label, f in (("parent", parent), ("change", change)):
        print(f"{label}: {json.dumps(f['provenance'])}")
    for workload in WORKLOADS:
        for d in spec["end_to_end"]:
            p = _values(parent["runs"], workload, d["name"])
            c = _values(change["runs"], workload, d["name"])
            if not p or not c:
                continue
            pq1, pm, pq3 = stats.quartiles(p)
            cq1, cm, cq3 = stats.quartiles(c)
            v = stats.verdict(p, c, d["better"], d["bound"])
            print(f"{workload:18s} {d['name']:12s} parent {pm:.5g} [{pq1:.5g}, {pq3:.5g}] "
                  f"change {cm:.5g} [{cq1:.5g}, {cq3:.5g}] {d['unit']}  "
                  f"ratio {cm / pm:.4f} of {pm:.5g}  wins {v['wins']}/{v['pairs']}  "
                  f"{v['label']} (bound {d['bound']})")
    pd, cd = _digest_map(parent["runs"]), _digest_map(change["runs"])
    differing = sorted(k for k in pd.keys() & cd.keys() if pd[k] != cd[k])
    for key in differing:
        print(f"DIGEST DIFFERS: {key}")
    if not differing:
        print("stdout digests: identical on every operation both files ran")
    return 0


def steady_main(argv: list[str]) -> int:
    argparse.ArgumentParser(prog="run.py steady").parse_args(argv)
    spec = load_spec()
    require_package()
    # Both sets run the same seeds, so the gap between their medians is
    # machine drift alone; each set's spread also holds the seed-to-seed part.
    sets = []
    for n in (1, 2):
        records = collect(range(1, RUNS + 1), spec["run_seconds"], 0)
        (OUT / f"steady-set{n}.json").write_text(
            json.dumps({"provenance": provenance(None), "runs": records}, indent=1))
        sets.append(records)
    agree = True
    print(f"{'workload':18s} {'metric':12s} {'bound':>6s} {'spread 1':>9s} {'spread 2':>9s} "
          f"{'median 1':>10s} {'median 2':>10s} {'gap':>8s}  result")
    for workload in WORKLOADS:
        for d in spec["end_to_end"]:
            a, b = (_values(s, workload, d["name"]) for s in sets)
            sa, sb = stats.spread(a), stats.spread(b)
            ma, mb = statistics.median(a), statistics.median(b)
            gap = abs(mb - ma) / ma
            ok = max(sa, sb, gap) <= d["bound"]
            agree &= ok
            margin = "" if max(sa, sb) < d["bound"] / 3 else "  (spread above bound/3)"
            print(f"{workload:18s} {d['name']:12s} {d['bound']:6.3f} {sa:9.4f} {sb:9.4f} "
                  f"{ma:10.5g} {mb:10.5g} {gap:8.4f}  {'agree' if ok else 'DISAGREE'}{margin}")
    return 0 if agree else 1


def record_digests_main(argv: list[str]) -> int:
    argparse.ArgumentParser(prog="run.py record-digests").parse_args(argv)
    require_package()
    digests = {}
    for workload in WORKLOADS:
        ops = run_pass(rungs(workload, DEFAULT_SEED), {})
        bad = _failures(ops)
        if bad:
            raise BenchError("refusing to record digests of failing operations: "
                             + "; ".join(bad))
        digests.update({op["key"]: op["digest"] for op in ops})
    DIGESTS.write_text(json.dumps(dict(sorted(digests.items())), indent=1) + "\n")
    print(f"recorded {len(digests)} digests in {DIGESTS.relative_to(ROOT)}")
    return 0


MODES = {
    "all": all_main,
    "collect": collect_main,
    "compare": compare_main,
    "steady": steady_main,
    "record-digests": record_digests_main,
}


def main(argv: list[str]) -> int:
    try:
        if argv and argv[0] in MODES:
            return MODES[argv[0]](argv[1:])
        return workload_main(argv)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
