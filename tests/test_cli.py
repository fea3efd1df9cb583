from __future__ import annotations

import functools
import json
import os
import pathlib
import subprocess
import sys

import pytest

import orbimirror

CLI = [sys.executable, "-m", "orbimirror.cli"]
# The child interpreter imports the same package as this one.
PACKAGE_ROOT = str(pathlib.Path(orbimirror.__file__).resolve().parents[1])


def child_env(env=None) -> dict:
    full_env = dict(os.environ)
    full_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (PACKAGE_ROOT, full_env.get("PYTHONPATH")))
    )
    if env:
        full_env.update(env)
    return full_env


def run_cli(*args, env=None, stdout=subprocess.PIPE):
    return subprocess.run(
        CLI + list(args), stdout=stdout, stderr=subprocess.PIPE, text=True, env=child_env(env)
    )


def test_basis_output():
    res = run_cli("basis", "--weights", "1,2")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["weights"] == [1, 2]
    assert payload["mu"] == 3
    assert [row["degree"] for row in payload["basis"]] == ["0", "2", "1"]
    assert payload["basis"][2] == {"gamma": "1/2", "d": 0, "degree": "1"}


def test_basis_tsv():
    res = run_cli("basis", "--weights", "1,2", "--format", "tsv")
    lines = res.stdout.splitlines()
    assert lines[0] == "gamma\td\tdegree"
    assert lines[1:] == ["0\t0\t0", "0\t1\t2", "1/2\t0\t1"]


def test_invalid_weights_exit_2():
    assert run_cli("cup", "--weights", "0,2").returncode == 2
    assert run_cli("cup", "--weights", "a,b").returncode == 2
    assert run_cli("cup", "--weights", "").returncode == 2


def test_blanks_around_a_weight_are_accepted():
    from orbimirror import cli

    assert cli.parse_args(["basis", "--weights", " 1, 2 "]).weights == orbimirror.Weights(1, 2)


def test_unknown_command_exit_2():
    res = run_cli("frobnicate", "--weights", "1,2")
    assert res.returncode == 2


BAD_INVOCATIONS = {
    "unknown_command": ["frobnicate", "--weights", "1,2"],
    "missing_weights": ["cup"],
    "non_integer_max_length": ["reconstruct", "--weights", "1,2", "--max-length", "x"],
    # ``int`` would read these as 10 and 1: only the ASCII digits 0-9 count.
    "underscore_weight": ["basis", "--weights", "1_0,2"],
    "non_ascii_weight": ["basis", "--weights", "\u0661,2"],
    "underscore_max_length": ["reconstruct", "--weights", "1,2", "--max-length", "1_0"],
    "non_ascii_max_length": ["reconstruct", "--weights", "1,2", "--max-length", "\u0667"],
    # Any empty or blank field, wherever it sits in the list.
    "empty_inner_weight": ["basis", "--weights", "1,,2"],
    "empty_first_weight": ["basis", "--weights", ",1"],
    "empty_last_weight": ["basis", "--weights", "1,2,"],
    "blank_weight": ["basis", "--weights", "1, ,2"],
}


@pytest.mark.parametrize("argv", BAD_INVOCATIONS.values(), ids=list(BAD_INVOCATIONS))
def test_bad_invocation_returns_2(argv, capsys):
    from orbimirror import cli

    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ")
    assert err.count("\n") == 1
    res = run_cli(*argv)
    assert (res.returncode, res.stderr) == (2, err)


@pytest.mark.parametrize("argv", [["--help"], ["cup", "--help"]])
def test_help_exit_0(argv):
    res = run_cli(*argv)
    assert res.returncode == 0
    assert res.stdout.startswith("usage: orbimirror")


def test_cup_table_shape():
    res = run_cli("cup", "--weights", "1,2,2,3,3,3")
    payload = json.loads(res.stdout)
    assert len(payload["table"]) == 14 * 14
    entries = {
        (
            (e["a"]["gamma"], e["a"]["d"]),
            (e["b"]["gamma"], e["b"]["d"]),
        ): (e["coeff"], e["out"])
        for e in payload["table"]
    }
    assert entries[(("1/3", 0), ("1/3", 0))] == ("4", {"gamma": "2/3", "d": 2})
    assert entries[(("1/2", 0), ("1/2", 0))] == ("27", {"gamma": "0", "d": 4})
    assert entries[(("2/3", 0), ("2/3", 0))] == ("1", {"gamma": "1/3", "d": 1})
    assert entries[(("1/3", 0), ("1/2", 0))] == ("0", None)


def test_pairing_matrix():
    res = run_cli("pairing", "--weights", "1,2")
    payload = json.loads(res.stdout)
    assert payload["matrix"] == ["0", "1/2", "0", "1/2", "0", "0", "0", "0", "1/2"]


def test_mirror_pass_exit_0():
    res = run_cli("mirror", "--weights", "1,2,2,3,3,3")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["status"] == "PASS"
    assert payload["classical"]["status"] == "PASS"
    assert payload["quantum"]["status"] == "PASS"
    assert payload["classical"]["failures"] == []


def test_smallqc_q_monomials():
    res = run_cli("smallqc", "--weights", "1,2")
    payload = json.loads(res.stdout)
    products = {
        (p["src"]["gamma"], p["src"]["d"]): (p["c"], p["q"]) for p in payload["hyperplane_products"]
    }
    assert products[("0", 1)] == ("1/2", "1/2")
    assert products[("1/2", 0)] == ("1/2", "1/2")
    assert payload["a0"] == ["0", "0", "3/2", "3", "0", "0", "0", "3/2", "0"]


def test_bside_output():
    res = run_cli("bside", "--weights", "1,2")
    payload = json.loads(res.stdout)
    assert payload["svalues"] == ["0", "0", "1/2"]
    assert payload["sigma"] == ["0", "1", "1/2"]
    assert payload["charpoly"] == ["-27/4", "0", "0", "1"]


def test_reconstruct_contains_curve_counts():
    res = run_cli(
        "reconstruct", "--weights", "1,1,1", "--max-length", "11"
    )
    payload = json.loads(res.stdout)
    table = {tuple(e["alpha"]): e["A"] for e in payload["coefficients"]}
    assert table[(0, 1, 2)] == "1"
    assert table[(0, 0, 5)] == "1"
    assert table[(0, 0, 8)] == "12"
    assert table[(0, 0, 11)] == "620"


def test_reconstruct_depth_cap():
    assert run_cli("reconstruct", "--weights", "1,1", "--max-length", "17").returncode == 2
    assert (
        run_cli(
            "reconstruct", "--weights", "1,1", "--max-length", "17", "--unsafe-large"
        ).returncode
        == 0
    )


def test_mu_cap_and_env_override():
    heavy = ",".join(["9"] * 8)  # mu = 72 > 64
    res = run_cli("basis", "--weights", heavy)
    assert res.returncode == 2
    assert res.stderr.count("\n") == 1 and "--unsafe-large" in res.stderr
    assert run_cli("basis", "--weights", heavy, "--unsafe-large").returncode == 0


def test_unwritable_output_exit_2(tmp_path):
    target = tmp_path / "missing" / "x.json"
    res = run_cli("basis", "--weights", "1,2", "--output", str(target))
    assert res.returncode == 2
    assert res.stderr.count("\n") == 1 and str(target) in res.stderr
    assert res.stdout == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_full_stdout_exit_2(unbuffered):
    # Buffered stdout keeps the unwritten bytes until the interpreter exits;
    # an empty PYTHONUNBUFFERED counts as unset.
    with open("/dev/full", "w") as full:
        res = run_cli(
            "basis", "--weights", "1,2", stdout=full, env={"PYTHONUNBUFFERED": unbuffered}
        )
    assert res.returncode == 2
    assert res.stderr.count("\n") == 1 and "stdout" in res.stderr


def test_selftest_pass():
    res = run_cli("selftest", "--weights", "1,2,3")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["status"] == "PASS"
    assert payload["failures"] == []


def test_output_deterministic(tmp_path):
    a = run_cli("mirror", "--weights", "2,3,5")
    b = run_cli("mirror", "--weights", "2,3,5")
    assert a.stdout == b.stdout
    out = tmp_path / "mirror.json"
    res = run_cli("mirror", "--weights", "2,3,5", "--output", str(out))
    assert res.returncode == 0
    assert out.read_text() == a.stdout


def test_tsv_mirror_format():
    res = run_cli("mirror", "--weights", "1,2", "--format", "tsv")
    lines = res.stdout.splitlines()
    assert lines[0] == "check\tstatus\tchecks\tfailures"
    assert lines[1].startswith("classical\tPASS")
    assert lines[2].startswith("quantum\tPASS")


def test_single_weight_mirror_is_an_input_error():
    res = run_cli("mirror", "--weights", "7")
    assert res.returncode == 2
    assert "positive-dimensional" in res.stderr


# The FAIL and internal-error exits cannot be triggered by real inputs (the
# identities hold), so exercise the wiring in process with stubs.


def test_checker_fail_maps_to_exit_1(monkeypatch, capsys):
    from orbimirror import cli, mirror
    from orbimirror.mirror import CheckReport

    def failing(w):
        report = CheckReport("classical")
        report.expect(False, check="demo", detail="stub counterexample")
        return report

    monkeypatch.setattr(mirror, "check_classical", failing)
    code = cli.main(["mirror", "--weights", "1,2"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["status"] == "FAIL"
    assert out["classical"]["failures"] == [
        {"check": "demo", "detail": "stub counterexample"}
    ]


def test_internal_error_maps_to_exit_3(monkeypatch, capsys):
    from orbimirror import cli, mirror
    from orbimirror.errors import InternalConsistencyError

    def broken(w):
        raise InternalConsistencyError("stub identity failure")

    monkeypatch.setattr(mirror, "check_classical", broken)
    code = cli.main(["mirror", "--weights", "1,2"])
    assert code == 3
    assert "stub identity failure" in capsys.readouterr().err


def test_non_cycle_a0_maps_to_exit_3(monkeypatch, capsys):
    # bside reads its charpoly off A0's cycle; any other matrix is a broken
    # identity, not an input problem.
    from fractions import Fraction

    from orbimirror import bside, cli

    def two_cycles(w):
        m = [[Fraction(0)] * w.mu for _ in range(w.mu)]
        m[0][0] = m[1][2] = m[2][1] = Fraction(1)
        return m

    monkeypatch.setattr(bside, "a0_matrix", two_cycles)
    assert cli.main(["bside", "--weights", "1,2"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "internal consistency error" in err


def test_unrepresentable_depth_maps_to_exit_2(capsys):
    # 10**20 keys per length cannot be indexed: the solver's table raises
    # OverflowError before it allocates anything.
    from orbimirror import cli

    argv = ["reconstruct", "--weights", "1,1", "--max-length", str(10**20), "--unsafe-large"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


# A cold run loads only the modules its command uses.  Each probe runs in a
# fresh interpreter that writes no bytecode, as a benchmark child does.

BASE_MODULES = ["cli", "combinatorics", "errors"]
COMMAND_MODULES = {
    "basis": ["acohomology"],
    "cup": ["acohomology"],
    "pairing": ["acohomology"],
    "smallqc": ["acohomology", "aquantum"],
    "bside": ["bside", "linalg"],
    "reconstruct": ["bside", "wdvv"],
    "mirror": ["acohomology", "aquantum", "bside", "mirror"],
    "selftest": ["acohomology", "aquantum", "bside", "linalg", "mirror", "selftest"],
}


@functools.lru_cache(maxsize=None)
def loaded_modules(code: str) -> frozenset[str]:
    """The modules a fresh interpreter holds after ``code``, read before the
    probe imports ``json`` to print them; each probe runs once."""
    probe = code + "\nimport sys\nheld = sorted(sys.modules)\nimport json\nprint(json.dumps(held))"
    res = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env=child_env({"PYTHONDONTWRITEBYTECODE": "1"}),
    )
    return frozenset(json.loads(res.stdout.splitlines()[-1]))


def loaded_submodules(code: str) -> list[str]:
    """The ``orbimirror`` submodules a fresh interpreter holds after ``code``."""
    return sorted(m.split(".", 1)[1] for m in loaded_modules(code) if m.startswith("orbimirror."))


def command_probe(command: str) -> str:
    """Code that runs one CLI command on ``1,2`` in process, output discarded."""
    return (
        "import contextlib, io\nfrom orbimirror import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main([{command!r}, '--weights', '1,2']) == 0"
    )


def test_package_import_loads_no_submodule():
    assert loaded_submodules("import orbimirror") == []


def test_cli_import_loads_only_its_own_needs():
    assert loaded_submodules("import orbimirror.cli") == BASE_MODULES


@pytest.mark.parametrize("command", COMMAND_MODULES)
def test_command_loads_only_its_modules(command):
    expected = sorted({*BASE_MODULES, *COMMAND_MODULES[command]})
    assert loaded_submodules(command_probe(command)) == expected


# ``dataclasses`` imports ``inspect`` (and with it ``dis``, ``ast`` and
# ``tokenize``), which would be most of a cold start.  No command loads either:
# the records are named tuples or plain classes.
@pytest.mark.parametrize("command", [None, *COMMAND_MODULES])
def test_no_command_loads_dataclasses(command):
    code = "import orbimirror.cli" if command is None else command_probe(command)
    assert {"dataclasses", "inspect"} & loaded_modules(code) == set()


# The CLI renders JSON without importing the ``json`` package, which a cold
# run would pay for: strings go through the C escaper of ``_json``.
@pytest.mark.parametrize("command", [None, *COMMAND_MODULES])
def test_no_command_loads_json(command):
    code = "import orbimirror.cli" if command is None else command_probe(command)
    assert {m for m in loaded_modules(code) if m == "json" or m.startswith("json.")} == set()


def test_exports_resolve_on_first_use():
    import importlib

    for name in orbimirror.__all__:
        home = importlib.import_module(f"orbimirror.{orbimirror._HOME[name]}")
        value = getattr(orbimirror, name)
        assert value is getattr(home, name)
    namespace = {}
    exec("from orbimirror import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(orbimirror.__all__)
    assert {"__all__", *orbimirror.__all__} <= set(dir(orbimirror))
    with pytest.raises(AttributeError, match="no_such_name"):
        orbimirror.no_such_name
