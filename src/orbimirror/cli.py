"""Command-line front end.

Every command takes ``--weights`` as a comma-separated list of positive
integers and emits a deterministic JSON (default) or TSV artifact.  Exit
codes: 0 success / all checks PASS, 1 a checker reported FAIL, 2 invalid
input or unwritable output, 3 an internal exact identity failed (a bug, not
an input problem).

Rationals render as ``p/q`` with ``q > 0`` and ``gcd(p, q) = 1``, or ``p``
when ``q = 1``; a basis class as ``elem = {"gamma": "p/q", "d": k}``; and
``smallqc`` writes ``eta_1^1 * src = c Q^q dst`` as the record
``{"src": elem, "c": scalar, "q": exponent, "dst": elem}``.  Each command
has one builder in :data:`COMMANDS`, and both formats render what it
builds: a TSV row of ``basis``, ``cup`` or ``smallqc`` is one JSON record
with nested records inline in key order; in ``cup`` a null ``out`` (a zero
product) is written ``0 0``.

JSON is written by one renderer, :func:`dumps`, whose text is
``json.dumps(payload, indent=2)`` byte for byte.  With an ``indent`` the
standard library falls back to its pure-Python encoder, which cost more
than building the largest payloads; and a cold run that never imports
:mod:`json` starts faster.
"""

from __future__ import annotations

import argparse
import os
import sys
from _json import encode_basestring_ascii
from fractions import Fraction

from .combinatorics import Weights
from .errors import InternalConsistencyError

DEFAULT_MU_CAP = 64
DEFAULT_MAX_LENGTH_CAP = 16
MAX_WEIGHT = 10**6


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises :class:`UsageError` where argparse would print usage and exit."""

    def error(self, message):
        raise UsageError(message)


def _decimal(text: str) -> int:
    """``text``, stripped, as an integer written in the ASCII digits 0-9
    alone: ``int`` also takes ``1_0`` and non-ASCII digits."""
    text = text.strip()
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"{text!r} is not written in the digits 0-9")
    return int(text)


def _parse_weights(text: str) -> Weights:
    parts = [p.strip() for p in text.split(",")]
    if "" in parts:
        raise UsageError(f"empty weight in {text!r}")
    values = []
    for p in parts:
        try:
            v = _decimal(p)
        except argparse.ArgumentTypeError as exc:
            raise UsageError(f"weight {exc}") from None
        if v < 1 or v > MAX_WEIGHT:
            raise UsageError(f"weight {v} outside 1..{MAX_WEIGHT}")
        values.append(v)
    return Weights(values)


def parse_args(argv: list[str]) -> argparse.Namespace:
    """The parsed command line, with ``weights`` parsed to :class:`Weights`."""
    parser = _Parser(
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
            p.add_argument("--max-length", type=_decimal, default=6)
    cfg = parser.parse_args(argv)
    cfg.weights = _parse_weights(cfg.weights)
    if cfg.command == "reconstruct":
        if cfg.max_length < 3:
            raise UsageError("--max-length must be at least 3")
        if cfg.max_length > DEFAULT_MAX_LENGTH_CAP and not cfg.unsafe_large:
            raise UsageError(
                f"--max-length {cfg.max_length} exceeds the cap "
                f"{DEFAULT_MAX_LENGTH_CAP}; pass --unsafe-large to override"
            )
    if cfg.weights.mu > DEFAULT_MU_CAP and not cfg.unsafe_large:
        raise UsageError(
            f"mu={cfg.weights.mu} exceeds the cap {DEFAULT_MU_CAP}; "
            "pass --unsafe-large to override"
        )
    return cfg


def _r(x) -> str:
    """``x`` as ``p/q``.  An int or a Fraction prints so already; any other
    number goes through Fraction, so that a stray float renders exactly.

    >>> _r(Fraction(6, 4)), _r(3), _r(0.5), _r(True)
    ('3/2', '3', '1/2', '1')
    """
    return str(x) if type(x) in (int, Fraction) else str(Fraction(x))


def _elem(bc) -> dict:
    return {"gamma": _r(bc.gamma), "d": bc.d}


def _flat(matrix) -> list[str]:
    return [_r(x) for row in matrix for x in row]


def _cells(record) -> list[str]:
    """TSV cells of a JSON record: its values in key order, nested records
    inline.

    >>> _cells({"a": {"gamma": "1/2", "d": 0}, "coeff": "3"})
    ['1/2', '0', '3']
    """
    if isinstance(record, dict):
        return [cell for value in record.values() for cell in _cells(value)]
    return [str(record)]


def _key(key) -> str:
    """A dict key quoted as :mod:`json` quotes it: a ``str`` as itself, a
    number, bool or None as its JSON text."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):
        return encode_basestring_ascii(_other(key, 0))
    raise TypeError("keys must be str, int, float, bool or None, not " + type(key).__name__)


def _other(value, level: int) -> str:
    """A value that no faster path of :func:`_render` takes.  Only a float,
    a subclass or a value JSON cannot write imports :mod:`json`: its text
    ``level`` deep is its text at the top with each line indented."""
    if value is None or type(value) is bool:
        return "null" if value is None else "true" if value else "false"
    import json

    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * level)


def _wrap(items, brackets: str, level: int) -> str:
    """``items``, texts already, as one container ``level`` deep."""
    inner = "\n" + "  " * (level + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + "  " * level + brackets[1]


def _render(values, level: int) -> list[str]:
    """The text of each of ``values`` (a non-empty sequence) in
    ``json.dumps(indent=2)``, nested ``level`` deep.

    A list of ``str`` or of ``int`` is one ``map``.  Otherwise each distinct
    object (by identity) is rendered once, and objects of different shapes
    (a dict's key tuple, a list's length, else the type) apart.  Dicts of
    one key tuple, or lists of one length, that outnumber their items fill
    one ``%``-template, column by column.

    >>> for text in _render([{"a": [1, 2], "b%": None}, {}], 0):
    ...     print(text)
    {
      "a": [
        1,
        2
      ],
      "b%": null
    }
    {}
    """
    kinds = set(map(type, values))
    if kinds == {str}:
        return list(map(encode_basestring_ascii, values))
    if kinds == {int}:
        return list(map(int.__repr__, values))
    unique = dict(zip(map(id, values), values))
    shape_of = tuple if kinds == {dict} else len if kinds <= {list, tuple} else type
    shapes = set(map(shape_of, unique.values()))
    if len(shapes) > 1 or len(unique) < len(values):
        groups = {}
        for v in unique.values():
            groups.setdefault(shape_of(v), []).append(v)
        text = {}
        for group in groups.values():
            text.update(zip(map(id, group), _render(group, level)))
        return list(map(text.__getitem__, map(id, values)))
    (shape,) = shapes
    if shape_of is type:
        return [_other(v, level) for v in values]
    records = shape_of is tuple
    width = len(shape) if records else shape
    if not width:
        return ["{}" if records else "[]"] * len(values)
    # Keys that are not str may be equal with another text (1, True).
    if width >= len(values) or records and not all(type(k) is str for k in shape):
        return [_render_one(v, level) for v in values]
    slots = [_key(k).replace("%", "%%") + ": %s" for k in shape] if records else ["%s"] * width
    template = _wrap(slots, "{}" if records else "[]", level)
    columns = [_render(c, level + 1) for c in zip(*map(dict.values, values) if records else values)]
    return list(map(template.__mod__, zip(*columns)))


def _render_one(value, level: int) -> str:
    """One non-empty dict or list, as :func:`_render` writes it."""
    if type(value) is dict:
        texts = _render(list(value.values()), level + 1)
        return _wrap(list(map("%s: %s".__mod__, zip(map(_key, value), texts))), "{}", level)
    return _wrap(_render(value, level + 1), "[]", level)


def dumps(payload) -> str:
    """``json.dumps(payload, indent=2)``, byte for byte, without its
    pure-Python encoder.

    >>> import json
    >>> dumps({"w": [1, 2], 3: "\u00e9"}) == json.dumps({"w": [1, 2], 3: "\u00e9"}, indent=2)
    True
    """
    return _render([payload], 0)[0]


def _report_payload(report) -> dict:
    return {
        "status": report.status,
        "checks": report.checks,
        "failures": report.failures,
    }


def _report_rows(*reports) -> list[tuple]:
    return [("check", "status", "checks", "failures")] + [
        (r.name, r.status, str(r.checks), str(len(r.failures))) for r in reports
    ]


# Each builder returns (JSON payload without "weights", a function of no
# arguments that returns the TSV rows with the header first); only a TSV run
# calls it.  A payload whose "status" is FAIL exits with 1.  A builder imports
# the modules its command uses when it runs, so a cold run loads no others,
# and it calls them through the module, so a patched function is seen.


def _basis(cfg: argparse.Namespace):
    from . import acohomology

    w = cfg.weights
    items = [
        {"gamma": _r(bc.gamma), "d": bc.d, "degree": _r(acohomology.degree(w, bc))}
        for bc in acohomology.ordered_basis(w)
    ]
    return {"mu": w.mu, "basis": items}, lambda: [("gamma", "d", "degree"), *map(_cells, items)]


def _cup(cfg: argparse.Namespace):
    from . import acohomology

    w = cfg.weights
    elems = [_elem(bc) for bc in acohomology.ordered_basis(w)]
    table = [
        {
            "a": a_elem,
            "b": b_elem,
            "coeff": _r(coeff),
            "out": None if target is None else elems[target],
        }
        for a_elem, row in zip(elems, acohomology.cup_table(w))
        for b_elem, (coeff, target) in zip(elems, row)
    ]

    def rows():
        # A zero product has no target: null in JSON, ``0 0`` in TSV.
        zero = {"gamma": "0", "d": 0}
        header = ("a_gamma", "a_d", "b_gamma", "b_d", "coeff", "out_gamma", "out_d")
        return [header, *(_cells({**rec, "out": rec["out"] or zero}) for rec in table)]

    return {"table": table}, rows


def _pairing(cfg: argparse.Namespace):
    from . import acohomology

    mu = cfg.weights.mu
    matrix = _flat(acohomology.gram_matrix(cfg.weights))
    return {"mu": mu, "matrix": matrix}, lambda: [("row", "col", "value")] + [
        (str(k // mu), str(k % mu), v) for k, v in enumerate(matrix)
    ]


def _smallqc(cfg: argparse.Namespace):
    from . import acohomology, aquantum

    w = cfg.weights
    elems = [_elem(bc) for bc in acohomology.ordered_basis(w)]
    products = [
        {"src": src, "c": _r(scalar), "q": _r(qexp), "dst": elems[target]}
        for src, (scalar, qexp, target) in zip(elems, aquantum.hyperplane_table(w))
    ]
    header = ("src_gamma", "src_d", "c", "q", "dst_gamma", "dst_d")
    payload = {
        "mu": w.mu,
        "a0": _flat(aquantum.a0_matrix(w)),
        "hyperplane_products": products,
    }
    return payload, lambda: [header, *map(_cells, products)]


def _bside(cfg: argparse.Namespace):
    from . import bside, combinatorics, linalg

    w = cfg.weights
    a0 = bside.a0_matrix(w)
    fields = {
        "svalues": [_r(v) for v in combinatorics.s_sequence(w)],
        "sigma": [_r(v) for v in combinatorics.spectrum(w)],
        "metric": _flat(bside.metric_matrix(w)),
        "a0": _flat(a0),
        "charpoly": [_r(c) for c in linalg.char_poly(a0)],
    }
    return {"mu": w.mu, **fields}, lambda: [("field", "index", "value")] + [
        (name, str(i), v) for name, vs in fields.items() for i, v in enumerate(vs)
    ]


def _mirror(cfg: argparse.Namespace):
    from . import mirror

    classical = mirror.check_classical(cfg.weights)
    quantum = mirror.check_quantum(cfg.weights)
    payload = {
        "status": "PASS" if classical.passed and quantum.passed else "FAIL",
        "classical": _report_payload(classical),
        "quantum": _report_payload(quantum),
    }
    return payload, lambda: _report_rows(classical, quantum)


def _reconstruct(cfg: argparse.Namespace):
    from . import wdvv

    potential = wdvv.reconstruct(cfg.weights, cfg.max_length)
    coeffs = [
        {"alpha": list(alpha), "A": _r(value)}
        for alpha, value in potential.nonzero_items()
    ]
    return {"max_length": cfg.max_length, "coefficients": coeffs}, lambda: [("alpha", "A")] + [
        (",".join(map(str, c["alpha"])), c["A"]) for c in coeffs
    ]


def _selftest(cfg: argparse.Namespace):
    from . import selftest

    report = selftest.run_selftest(cfg.weights)
    return _report_payload(report), lambda: _report_rows(report)


COMMANDS = {
    "basis": _basis,
    "cup": _cup,
    "pairing": _pairing,
    "smallqc": _smallqc,
    "bside": _bside,
    "mirror": _mirror,
    "reconstruct": _reconstruct,
    "selftest": _selftest,
}


def run(cfg: argparse.Namespace) -> int:
    try:
        body, rows = COMMANDS[cfg.command](cfg)
        if cfg.format == "json":
            text = dumps({"weights": list(cfg.weights.w), **body}) + "\n"
        else:
            text = "".join("\t".join(row) + "\n" for row in rows())
    except InternalConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, MemoryError) as exc:
        print(f"error: input too large: {exc!r}", file=sys.stderr)
        return 2
    try:
        if cfg.output:
            with open(cfg.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        if not cfg.output:
            # Send the bytes stdout could not take to the null device, so the
            # interpreter's flush at exit does not fail a second time.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        target = cfg.output or "stdout"
        print(f"error: cannot write {target}: {exc.strerror}", file=sys.stderr)
        return 2
    return 1 if body.get("status") == "FAIL" else 0


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
