"""Command-line front end.

Every command takes ``--weights`` as a comma-separated list of positive
integers and emits a deterministic JSON (default) or TSV artifact.  Exit
codes: 0 success / all checks PASS, 1 a checker reported FAIL, 2 invalid
input, 3 an internal exact identity failed (a bug, not an input problem).

Rationals render as ``p/q`` with ``q > 0`` and ``gcd(p, q) = 1``, or ``p``
when ``q = 1``; Q-monomials render as ``{"q": exponent, "c": scalar}``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import aquantum, bside, wdvv
from .acohomology import CohClass, cup_basis, degree, gram_matrix, ordered_basis
from .combinatorics import Weights, s_sequence, spectrum
from .errors import InternalConsistencyError
from .linalg import char_poly
from .mirror import CheckReport, check_classical, check_quantum
from .selftest import run_selftest

DEFAULT_MU_CAP = 64
DEFAULT_MAX_LENGTH_CAP = 16
MAX_WEIGHT = 10**6
COMMANDS = (
    "basis",
    "cup",
    "pairing",
    "smallqc",
    "bside",
    "mirror",
    "reconstruct",
    "selftest",
)


@dataclass
class RunConfig:
    command: str
    weights: Weights
    fmt: str = "json"
    max_length: int = 6
    output: str | None = None
    unsafe_large: bool = False


class UsageError(Exception):
    pass


def _parse_weights(text: str) -> Weights:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise UsageError("empty weight list")
    values = []
    for p in parts:
        try:
            v = int(p)
        except ValueError:
            raise UsageError(f"weight {p!r} is not an integer") from None
        if v < 1 or v > MAX_WEIGHT:
            raise UsageError(f"weight {v} outside 1..{MAX_WEIGHT}")
        values.append(v)
    return Weights(values)


def parse_args(argv: list[str]) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="orbimirror",
        description=(
            "Exact computations in the orbifold quantum cohomology of "
            "weighted projective spaces and its Landau-Ginzburg mirror."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--weights", required=True, help="comma-separated, e.g. 1,2,2,3,3,3")
        p.add_argument("--format", choices=("json", "tsv"), default="json")
        p.add_argument("--output", default=None, help="write to file instead of stdout")
        p.add_argument("--unsafe-large", action="store_true", help="lift the mu and depth caps")
        if name == "reconstruct":
            p.add_argument("--max-length", type=int, default=6)
    ns = parser.parse_args(argv)
    weights = _parse_weights(ns.weights)
    cfg = RunConfig(
        command=ns.command,
        weights=weights,
        fmt=ns.format,
        output=ns.output,
        unsafe_large=ns.unsafe_large,
    )
    if ns.command == "reconstruct":
        cfg.max_length = ns.max_length
        if cfg.max_length < 3:
            raise UsageError("--max-length must be at least 3")
        if cfg.max_length > DEFAULT_MAX_LENGTH_CAP and not cfg.unsafe_large:
            raise UsageError(
                f"--max-length {cfg.max_length} exceeds the cap "
                f"{DEFAULT_MAX_LENGTH_CAP}; pass --unsafe-large to override"
            )
    try:
        mu_cap = int(os.environ.get("ORBIMIRROR_MAX_MU", DEFAULT_MU_CAP))
    except ValueError:
        raise UsageError("ORBIMIRROR_MAX_MU must be an integer") from None
    if weights.mu > mu_cap and not cfg.unsafe_large:
        raise UsageError(
            f"mu={weights.mu} exceeds the cap {mu_cap} "
            "(set ORBIMIRROR_MAX_MU or pass --unsafe-large)"
        )
    return cfg


def _r(x) -> str:
    return str(Fraction(x))


def _elem(bc) -> dict:
    return {"gamma": _r(bc.gamma), "d": bc.d}


def _flat(matrix) -> list[str]:
    return [_r(x) for row in matrix for x in row]


def _report_payload(report: CheckReport) -> dict:
    return {
        "status": report.status,
        "checks": report.checks,
        "failures": report.failures,
    }


def _build_payload(cfg: RunConfig) -> tuple[dict, list[tuple], int]:
    """Returns (json payload, tsv rows with header first, exit code)."""
    w = cfg.weights
    meta = {"weights": list(w.w)}
    if cfg.command == "basis":
        rows = [("gamma", "d", "degree")]
        items = []
        for bc in ordered_basis(w):
            deg = _r(degree(w, bc))
            items.append({"gamma": _r(bc.gamma), "d": bc.d, "degree": deg})
            rows.append((_r(bc.gamma), str(bc.d), deg))
        return {**meta, "mu": w.mu, "basis": items}, rows, 0

    if cfg.command == "cup":
        basis = ordered_basis(w)
        rows = [("a_gamma", "a_d", "b_gamma", "b_d", "coeff", "out_gamma", "out_d")]
        table = []
        for a in basis:
            for b in basis:
                coeff, target = cup_basis(w, a, b)
                table.append(
                    {
                        "a": _elem(a),
                        "b": _elem(b),
                        "coeff": _r(coeff),
                        "out": _elem(target) if target is not None else None,
                    }
                )
                rows.append(
                    (
                        _r(a.gamma),
                        str(a.d),
                        _r(b.gamma),
                        str(b.d),
                        _r(coeff),
                        _r(target.gamma) if target is not None else "0",
                        str(target.d) if target is not None else "0",
                    )
                )
        return {**meta, "table": table}, rows, 0

    if cfg.command == "pairing":
        gram = gram_matrix(w)
        rows = [("row", "col", "value")]
        for i, row in enumerate(gram):
            for j, x in enumerate(row):
                rows.append((str(i), str(j), _r(x)))
        return {**meta, "mu": w.mu, "matrix": _flat(gram)}, rows, 0

    if cfg.command == "smallqc":
        a0 = aquantum.a0_matrix(w)
        products = []
        rows = [("src_gamma", "src_d", "c", "q", "dst_gamma", "dst_d")]
        for bc in ordered_basis(w):
            image = aquantum.hyperplane_quantum_mult(w, CohClass.line(bc))
            for target, qexp, scalar in image.items():
                products.append(
                    {
                        "src": _elem(bc),
                        "c": _r(scalar),
                        "q": _r(qexp),
                        "dst": _elem(target),
                    }
                )
                rows.append(
                    (
                        _r(bc.gamma),
                        str(bc.d),
                        _r(scalar),
                        _r(qexp),
                        _r(target.gamma),
                        str(target.d),
                    )
                )
        return {
            **meta,
            "mu": w.mu,
            "a0": _flat(a0),
            "hyperplane_products": products,
        }, rows, 0

    if cfg.command == "bside":
        a0 = bside.a0_matrix(w)
        payload = {
            **meta,
            "mu": w.mu,
            "svalues": [_r(v) for v in s_sequence(w).values],
            "sigma": [_r(v) for v in spectrum(w)],
            "metric": _flat(bside.metric_matrix(w)),
            "a0": _flat(a0),
            "charpoly": [_r(c) for c in char_poly(a0)],
        }
        rows = [("field", "index", "value")]
        for name in ("svalues", "sigma", "metric", "a0", "charpoly"):
            for i, v in enumerate(payload[name]):
                rows.append((name, str(i), v))
        return payload, rows, 0

    if cfg.command == "mirror":
        classical = check_classical(w)
        quantum = check_quantum(w)
        ok = classical.passed and quantum.passed
        payload = {
            **meta,
            "status": "PASS" if ok else "FAIL",
            "classical": _report_payload(classical),
            "quantum": _report_payload(quantum),
        }
        rows = [("check", "status", "checks", "failures")]
        for rep in (classical, quantum):
            rows.append((rep.name, rep.status, str(rep.checks), str(len(rep.failures))))
        return payload, rows, 0 if ok else 1

    if cfg.command == "reconstruct":
        potential = wdvv.reconstruct(w, cfg.max_length)
        coeffs = [
            {"alpha": list(alpha), "A": _r(value)}
            for alpha, value in potential.nonzero_items()
        ]
        rows = [("alpha", "A")]
        for entry in coeffs:
            rows.append((",".join(map(str, entry["alpha"])), entry["A"]))
        return {**meta, "max_length": cfg.max_length, "coefficients": coeffs}, rows, 0

    if cfg.command == "selftest":
        report = run_selftest(w)
        payload = {**meta, **_report_payload(report)}
        rows = [("check", "status", "checks", "failures")]
        rows.append((report.name, report.status, str(report.checks), str(len(report.failures))))
        return payload, rows, 0 if report.passed else 1

    raise UsageError(f"unknown command {cfg.command!r}")


def run(cfg: RunConfig) -> int:
    try:
        payload, rows, code = _build_payload(cfg)
    except InternalConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if cfg.fmt == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = "".join("\t".join(row) + "\n" for row in rows)
    if cfg.output:
        try:
            with open(cfg.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {cfg.output}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
