"""Byte-for-byte regression of the CLI artifacts over the fixed suite.

``golden_cli.json`` maps ``"<command> <weights> <format>"`` to the sha256 of
the command's stdout.  ``selftest`` and ``reconstruct --max-length 6`` run
only for mu <= 10, and ``mirror`` only for vectors with at least two
weights.  Re-record (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import pathlib

import pytest

from conftest import CENSUS, SUITE
from orbimirror import Weights, cli, reconstruct

GOLDEN = pathlib.Path(__file__).with_name("golden_cli.json")
DIGESTS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "digests.json"
FORMATS = ("json", "tsv")


def _cases(command: str):
    for wt in SUITE:
        if command in ("selftest", "reconstruct") and sum(wt) > 10:
            continue
        if command == "mirror" and len(wt) < 2:
            continue
        yield wt


def _stdout(command: str, wt: tuple[int, ...], fmt: str, max_length: int = 6) -> str:
    argv = [command, "--weights", ",".join(map(str, wt)), "--format", fmt]
    if command == "reconstruct":
        argv += ["--max-length", str(max_length)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    assert code == 0, (argv, code)
    return buf.getvalue()


def _stdout_sha(command: str, wt: tuple[int, ...], fmt: str, max_length: int = 6) -> str:
    return hashlib.sha256(_stdout(command, wt, fmt, max_length).encode()).hexdigest()


def _key(command: str, wt: tuple[int, ...], fmt: str) -> str:
    return f"{command} {','.join(map(str, wt))} {fmt}"


def _record() -> dict[str, str]:
    return {
        _key(c, wt, fmt): _stdout_sha(c, wt, fmt)
        for c in cli.COMMANDS
        for fmt in FORMATS
        for wt in _cases(c)
    }


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("command", cli.COMMANDS)
def test_cli_stdout_matches_golden(command, fmt):
    golden = json.loads(GOLDEN.read_text())
    cases = list(_cases(command))
    assert cases
    for wt in cases:
        assert _stdout_sha(command, wt, fmt) == golden[_key(command, wt, fmt)], (
            command,
            wt,
            fmt,
        )


@pytest.mark.parametrize(
    "orders",
    [
        sorted(set(itertools.permutations((2, 3, 5)))),
        sorted(set(itertools.permutations((1, 2, 2, 3)))),
        [(1, 4, 5, 7), (7, 5, 4, 1)],
    ],
    ids=["w2_3_5", "w1_2_2_3", "w1_4_5_7"],
)
@pytest.mark.parametrize("command", cli.COMMANDS)
def test_cli_payload_is_permutation_invariant(command, orders):
    # Every output is indexed by the s-sequence or by sectors, and both
    # depend only on the multiset of weights: only "weights" may differ.
    payloads = []
    for wt in orders:
        payload = json.loads(_stdout(command, wt, "json"))
        assert payload.pop("weights") == list(wt)
        payloads.append(payload)
    assert all(p == payloads[0] for p in payloads[1:]), command


def _permuted(wt: tuple[int, ...]) -> tuple[int, ...]:
    """The reversed vector, or the vector rotated by one if it is a palindrome."""
    return wt[::-1] if wt[::-1] != wt else wt[1:] + wt[:1]


# A census vector is sorted, so it is a palindrome only when it is constant,
# and then no reordering changes it: those vectors have no pair here.
CENSUS_PAIRS = [(wt, _permuted(wt)) for wt in CENSUS if _permuted(wt) != wt]


# Over the census, in process, reconstruct takes about 3.6 s and the other
# seven commands about 7.5 s together.
@pytest.mark.parametrize(
    "command",
    [
        pytest.param(c, marks=pytest.mark.slow) if c == "reconstruct" else c
        for c in cli.COMMANDS
    ],
)
def test_census_payload_is_permutation_invariant(command):
    for wt, perm in CENSUS_PAIRS:
        payload = json.loads(_stdout(command, wt, "json"))
        other = json.loads(_stdout(command, perm, "json"))
        assert payload.pop("weights") == list(wt)
        assert other.pop("weights") == list(perm)
        assert payload == other, (command, wt, perm)


def _benchmark_keys() -> list[str]:
    """The keys of ``perfbench/digests.json``: ``"<command> <weights>"`` for a
    plain CLI run, ``"reconstruct <weights> L<depth>"`` and ``"sweep
    <weights> L<depth> a<max alpha>"``."""
    return sorted(json.loads(DIGESTS.read_text()))


@pytest.mark.parametrize("key", _benchmark_keys())
def test_cli_stdout_matches_benchmark_digest(key):
    # The benchmark's rungs reach mu = 32 and 64 and depths past the golden
    # suite.  A CLI key's digest is the sha256 of the JSON stdout; a sweep
    # key's is the sha256 of the JSON rows ``[alpha, str(A)]`` of
    # ``nonzero_items()`` of the library ``reconstruct``.  The file is only
    # read.
    command, csv, *rest = key.split()
    wt = tuple(map(int, csv.split(",")))
    depth = int(rest[0].removeprefix("L")) if rest else 6
    want = json.loads(DIGESTS.read_text())[key]
    if command == "sweep":
        p = reconstruct(Weights(wt), depth)
        rows = [[list(alpha), str(value)] for alpha, value in p.nonzero_items()]
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == want
    else:
        assert _stdout_sha(command, wt, "json", depth) == want


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_record(), indent=1, sort_keys=True) + "\n")
