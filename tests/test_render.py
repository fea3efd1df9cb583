"""The CLI's JSON renderer, ``cli.dumps``, against ``json.dumps(indent=2)``:
the same text, byte for byte, on every value either can write."""

from __future__ import annotations

import json
from collections import OrderedDict

import pytest

from orbimirror import Weights, bside, cli


def same_as_json(value) -> None:
    assert cli.dumps(value) == json.dumps(value, indent=2)


def test_nested_json_values_render_as_json_does():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    keys = st.text() | st.integers() | st.booleans() | st.none()

    @st.composite
    def records(draw, children):
        # Lists of dicts that share one key tuple, or of lists of one
        # length, some of them the same object: the templated and the
        # shared paths, which independent draws would seldom reach.
        shape = draw(st.lists(keys, max_size=4, unique=True))
        rows = draw(st.lists(st.lists(children, min_size=len(shape), max_size=len(shape)),
                             min_size=1, max_size=6))
        pool = [dict(zip(shape, row)) for row in rows] if draw(st.booleans()) else rows
        picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=12))
        return [pool[i] for i in picks]

    values = st.recursive(
        scalars,
        lambda children: (
            st.lists(children, max_size=5)
            | st.tuples(children, children)
            | st.dictionaries(keys, children, max_size=5)
            | records(children)
        ),
        max_leaves=40,
    )

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(values)
    def check(value):
        same_as_json(value)

    check()


ELEM = {"gamma": "1/2", "d": 0}


class Text(str):
    pass


class Count(int):
    pass


@pytest.mark.parametrize(
    "value",
    [
        # One sub-dict shared by every record and under two keys of one.
        [{"a": ELEM, "b": ELEM, "out": ELEM} for _ in range(5)],
        # The same keys in a different order: no one template fits both.
        [{"a": 1, "b": 2}, {"b": 2, "a": 1}, {"a": 3, "b": 4}, {"b": 5, "a": 6}],
        # Keys that json quotes: int, bool and None.
        [{0: "1", 2: "3", True: "t", None: "n"}, {0: "x", 2: "y", True: "z", None: "w"}] * 3,
        {-7: [], False: {}, 1.5: None},
        # ``%`` in keys and values, and text that is not ASCII.
        [{"100%": "%s", "%d%%": "é中\U0001f600"} for _ in range(4)],
        {"%(x)s": "%", "\n\t\"\\": "\x00\x1f"},
        # Empty containers, alone and in records.
        {},
        [],
        [[], {}, [[]], [{}]],
        [{"a": [], "b": {}} for _ in range(3)],
        [[] for _ in range(3)],
        # A list of bools next to a list of ints, and both mixed.
        {"flags": [True, False, True], "counts": [1, 0, 1], "mixed": [1, True, 0, False]},
        # A column of records and nulls, as ``cup`` writes zero products.
        [{"coeff": "0", "out": None}, {"coeff": "1", "out": ELEM}, {"coeff": "2", "out": ELEM}],
        # Lists of one length, as rows, and tuples among them.
        [[1, "a", None], (2, "b", True), [3, "c", 1.5], [4, "d", ELEM]],
        # Keys that are equal but written differently: no one template fits.
        [{1: "a"}, {True: "b"}, {1.0: "c"}],
        [{0: "a", "k": 1}, {False: "b", "k": 2}, {0.0: "c", "k": 3}, {-0.0: "d", "k": 4}],
        # Sparse vectors, as mirror failure records hold: int keys, one
        # key tuple per vector, some vectors repeated.
        [{0: "1", 3: "2"}, {1: "5"}, {0: "1", 3: "2"}, {2: "-1", 0: "7"}] * 2,
        # Lists of several lengths, as reconstruct's alpha column.
        [[1, 2, 3], [1, 2], (1, 2, 3), [4], [], [5, 6]],
        # Every kind in one list.
        [1, "a", None, True, 1.5, [], {}, [1], {"a": 1}, [1], {"a": 2}, -3, "b"],
        # Subclasses, which json writes as their base types.
        [OrderedDict(b=1, a=[2, 3]), OrderedDict(b=4, a=[5])],
        [Text("x"), Count(3), Count(4), {"n": Count(5)}],
        # Scalars at the top.
        "x",
        0,
        None,
        -0.0,
        float("inf"),
        10**40,
    ],
    ids=lambda v: type(v).__name__,
)
def test_explicit_cases_render_as_json_does(value):
    same_as_json(value)


def test_a_key_json_refuses_is_refused():
    with pytest.raises(TypeError):
        cli.dumps({(1, 2): 0})
    with pytest.raises(TypeError):
        json.dumps({(1, 2): 0}, indent=2)


def _fail_payload(argv):
    cfg = cli.parse_args(argv)
    body, _ = cli.COMMANDS[cfg.command](cfg)
    assert body["status"] == "FAIL"
    return {"weights": list(cfg.weights.w), **body}


def test_fail_payloads_render_as_json_does(monkeypatch):
    # The injected faults of tests/test_failure_records.py: B products
    # doubled on the diagonal (``mirror``, whose records hold the int-keyed
    # dicts of sparse vectors) and above it (``selftest``).
    product = bside.product

    def doubled_square(w, i, j):
        coeff, target = product(w, i, j)
        return (2 * coeff if i == j else coeff), target

    def doubled_upper(w, i, j):
        coeff, target = product(w, i, j)
        return (2 * coeff if i < j else coeff), target

    monkeypatch.setattr(bside, "product", doubled_square)
    payload = _fail_payload(["mirror", "--weights", "1,2,3"])
    records = payload["classical"]["failures"]
    assert records and {type(k) for r in records for k in r["a_side"]} == {int}
    same_as_json(payload)

    monkeypatch.setattr(bside, "product", doubled_upper)
    payload = _fail_payload(["selftest", "--weights", "2,3,4"])
    assert len(payload["failures"]) > 1
    same_as_json(payload)


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_every_command_payload_renders_as_json_does(command):
    argv = [command, "--weights", "1,2,2,3"]
    if command == "reconstruct":
        argv += ["--max-length", "5"]
    cfg = cli.parse_args(argv)
    body, _ = cli.COMMANDS[command](cfg)
    same_as_json({"weights": list(Weights(1, 2, 2, 3).w), **body})
