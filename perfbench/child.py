"""Child-process side of the benchmark; the only code here that imports orbimirror.

    python3 perfbench/child.py sweep '<rung json>'
    python3 perfbench/child.py trace '<rung json>'
    python3 perfbench/child.py reference '{}'

``sweep`` is the library-level operation of the residual-sweep workload:
``reconstruct(w, depth)``, then ``wdvv_residual`` for every ``(i, j, k, l)``
in ``[0, mu)^4`` at every alpha with ``|alpha| <= sweep``.

``trace`` walks one rung through the layers in dependency order
(combinatorics, acohomology, aquantum, bside, linalg, mirror, selftest,
wdvv, cli), so that each call runs over warm lower layers and costs roughly
its own self time.  ``wdvv`` runs only on the rungs where the workload
itself runs it.  A span is recorded around each call; spans stay in
memory and are printed with the counters when the walk ends.

``reference`` is a fixed job that does not touch orbimirror; its time
measures the speed of the machine at that moment.

Every mode prints one JSON object on stdout; ``failures`` lists every broken
correctness condition.  ``src/`` must be on ``PYTHONPATH``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
import time
import tracemalloc

from oracle import KONTSEVICH_WEIGHTS, kontsevich_mismatches

# Public functions that expose ``cache_info()``, by module.
CACHED = {
    "combinatorics": ("sectors", "s_sequence", "spectrum"),
    "acohomology": ("ordered_basis", "basis_index", "gram_matrix"),
    "bside": ("omega_frame", "metric_matrix"),
    "wdvv": ("initial_coeffs",),
}
# Commands rendered through ``cli.main`` once the layers are warm.
RENDER_COMMANDS = ("basis", "pairing", "smallqc", "bside")


class Tracer:
    """In-memory spans: id, parent id, trace id (the rung), layer, name, start, end."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, layer: str, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "trace": self.trace_id,
            "layer": layer,
            "name": name,
            **attrs,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


def _alphas(mu: int, max_len: int):
    """Every alpha in N^mu with ``|alpha| <= max_len``."""

    def parts(total, slots):
        if slots == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in parts(total - first, slots - 1):
                yield (first,) + rest

    for total in range(max_len + 1):
        yield from parts(total, mu)


def _sweep(potential, max_alpha: int) -> tuple[int, int]:
    """(residuals evaluated, residuals nonzero)."""
    from orbimirror import wdvv_residual

    mu = potential.weights.mu
    count = nonzero = 0
    idx = range(mu)
    for alpha in _alphas(mu, max_alpha):
        for i in idx:
            for j in idx:
                for k in idx:
                    for l in idx:
                        count += 1
                        if wdvv_residual(potential, i, j, k, l, alpha):
                            nonzero += 1
    return count, nonzero


def _digest(potential) -> str:
    rows = [[list(a), str(v)] for a, v in potential.nonzero_items()]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _potential_checks(rung: dict, potential) -> list[str]:
    if tuple(rung["weights"]) != KONTSEVICH_WEIGHTS:
        return []
    return kontsevich_mismatches(potential.coeff, potential.max_length)


def run_sweep(rung: dict) -> dict:
    from orbimirror import Weights, reconstruct

    p = reconstruct(Weights(rung["weights"]), rung["depth"])
    residuals, nonzero = _sweep(p, rung["sweep"])
    failures = _potential_checks(rung, p)
    if nonzero:
        failures.append(f"{nonzero} nonzero WDVV residuals")
    return {"residuals": residuals, "nonzero": nonzero, "digest": _digest(p),
            "failures": failures}


def run_reference(_: dict) -> dict:
    """Invert the 12 x 12 Hilbert matrix exactly, by Gauss-Jordan elimination.

    Pure-Python rational arithmetic on lists, like the package's own work.
    """
    from fractions import Fraction

    n = 12
    rows = [[Fraction(1, i + j + 1) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
            for i in range(n)]
    for col in range(n):
        pivot = rows[col][col]
        rows[col] = [x / pivot for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    corner = rows[0][n]
    return {"failures": [] if corner == n * n else [f"Hilbert inverse corner {corner}"]}


def run_trace(rung: dict) -> dict:
    tr = Tracer(rung["id"])
    failures: list[str] = []
    counters: dict[str, float] = {}
    with tr.span("rung", rung["id"]):
        with tr.span("cli", "import"):
            from orbimirror import cli
        from orbimirror import acohomology as A
        from orbimirror import aquantum as Q
        from orbimirror import bside as B
        from orbimirror import combinatorics as C
        from orbimirror import linalg as LA
        from orbimirror import mirror as M
        from orbimirror import selftest as S
        from orbimirror import wdvv as W

        w = C.Weights(rung["weights"])
        mu = w.mu
        with tr.span("combinatorics", "sector_data"):
            secs = C.sectors(w)
            C.s_sequence(w)
            C.spectrum(w)
            for g in secs:
                C.k_min(w, g)
                C.age(w, g)
                C.fixed_indices(w, g)
        with tr.span("acohomology", "cup_table"):
            basis = A.ordered_basis(w)
            for a in basis:
                for b in basis:
                    A.cup_basis(w, a, b)
        with tr.span("acohomology", "gram"):
            gram = A.gram_matrix(w)
        with tr.span("aquantum", "hyperplane_action"):
            for bc in basis:
                Q.hyperplane_quantum_mult(w, A.CohClass.line(bc))
        with tr.span("aquantum", "three_point"):
            for a in basis:
                for b in basis:
                    Q.three_point(w, a.gamma, a.d, b.gamma, b.d)
        with tr.span("aquantum", "a0"):
            Q.a0_matrix(w)
        with tr.span("bside", "frame_product"):
            B.omega_frame(w)
            for i in range(mu):
                for j in range(mu):
                    B.product(w, i, j)
            B.metric_matrix(w)
        with tr.span("bside", "a0"):
            a0 = B.a0_matrix(w)
        with tr.span("linalg", "char_poly"):
            LA.char_poly(a0)
        with tr.span("linalg", "inverse_det"):
            g = [list(row) for row in gram]
            LA.mat_inverse(g)
            LA.det(g)
        checks = 0
        for name, fn in (("check_classical", M.check_classical),
                         ("check_quantum", M.check_quantum)):
            with tr.span("mirror", name):
                report = fn(w)
            checks += report.checks
            if not report.passed:
                failures.append(f"mirror {name}: {report.status}")
        counters["mirror.checks"] = checks
        if rung["selftest"]:
            with tr.span("selftest", "run"):
                report = S.run_selftest(w)
            counters["selftest.checks"] = report.checks
            if not report.passed:
                failures.append(f"selftest: {report.status}")
        depth = rung["depth"]
        if depth:
            with tr.span("wdvv", "initial_coeffs"):
                W.initial_coeffs(w)
            for length in range(4, depth + 1):
                with tr.span("wdvv", "reconstruct", L=length):
                    p = W.reconstruct(w, length)
            failures += _potential_checks(rung, p)
            tracemalloc.start()
            try:
                W.reconstruct(w, depth)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            counters["wdvv.reconstruct_peak_mb"] = peak / 2**20
            counters["wdvv.coeffs_nonzero"] = len(p.coeffs)
            counters["wdvv.coeffs_nonzero_4plus"] = sum(
                1 for a in p.coeffs if sum(a) >= 4
            )
            counters["wdvv.index_space_4plus"] = sum(
                math.comb(length + mu - 1, mu - 1) for length in range(4, depth + 1)
            )
            counters["wdvv.coeff_height_bits"] = max(
                max(abs(v.numerator).bit_length(), v.denominator.bit_length())
                for v in p.coeffs.values()
            )
            if rung["sweep"] is not None:
                with tr.span("wdvv", "residual_sweep"):
                    residuals, nonzero = _sweep(p, rung["sweep"])
                counters["wdvv.residuals"] = residuals
                counters["wdvv.residuals_nonzero"] = nonzero
                if nonzero:
                    failures.append(f"{nonzero} nonzero WDVV residuals")
        weights_arg = ",".join(map(str, w.w))
        with tr.span("cli", "render"):
            for command in RENDER_COMMANDS:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main([command, "--weights", weights_arg])
                if code != 0:
                    failures.append(f"cli {command}: exit {code}")
    cache = {}
    for module, names in CACHED.items():
        mod = sys.modules[f"orbimirror.{module}"]
        for name in names:
            info = getattr(getattr(mod, name, None), "cache_info", None)
            if info is not None:
                ci = info()
                cache[name] = [ci.hits, ci.misses]
    return {"spans": tr.spans, "counters": counters, "cache": cache, "failures": failures}


if __name__ == "__main__":
    mode, spec = sys.argv[1], json.loads(sys.argv[2])
    result = {"sweep": run_sweep, "trace": run_trace, "reference": run_reference}[mode](spec)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
