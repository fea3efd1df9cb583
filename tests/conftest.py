from __future__ import annotations

import pytest

from orbimirror import Weights

# The fixed regression suite: every named small case plus non-coprime and
# longer vectors.  mu ranges from 2 to 25.
SUITE = [
    (1, 1),
    (1, 2),
    (1, 3),
    (1, 4),
    (2, 2),
    (2, 3),
    (2, 4),
    (3, 3),
    (4, 6),
    (1, 2, 3),
    (2, 3, 5),
    (1, 1, 1),
    (1, 1, 1, 1),
    (1, 2, 3, 4),
    (1, 2, 2, 3, 3, 3),
    (2, 3, 4, 5, 7),
    (1, 4, 5, 7, 8),
]

# Exhaustive small family for the combinatorial identities: every weight
# vector with at most three entries, each between 1 and 4, plus the suite.
SMALL_FAMILY = sorted(
    {
        tuple(ws)
        for length in (1, 2, 3)
        for ws in __import__("itertools").product(range(1, 5), repeat=length)
    }
    | set(SUITE)
)


@pytest.fixture(params=SUITE, ids=lambda t: "w" + "_".join(map(str, t)))
def suite_weights(request) -> Weights:
    return Weights(request.param)


def pytest_addoption(parser):
    parser.addoption("--slow", action="store_true", help="also run the tests marked slow")


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: too slow for tier-1; run with --slow")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--slow"):
        return
    skip = pytest.mark.skip(reason="slow: run with --slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    # The acceptance tests print one PASS line each; mirror that on failure.
    if (
        report.when == "call"
        and report.failed
        and item.fspath.basename == "test_acceptance.py"
    ):
        print(f"\n[{item.name}] FAIL")
