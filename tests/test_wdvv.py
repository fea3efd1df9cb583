from __future__ import annotations

import dataclasses
import itertools
import math
from fractions import Fraction as F
from types import MappingProxyType

import pytest

from _oracles import (
    compositions,
    kontsevich_numbers,
    reconstruct_reference,
    wdvv_residual_reference,
)
from conftest import SUITE
from orbimirror import (
    InternalConsistencyError,
    Potential,
    Weights,
    cli,
    initial_coeffs,
    mirror_index_map,
    ordered_basis,
    reconstruct,
    wdvv,
    wdvv_residual,
)
from orbimirror.aquantum import three_point
from orbimirror.bside import metric
from orbimirror.combinatorics import spectrum
from orbimirror.wdvv import (
    _admissible_keys,
    _degree_table,
    _Reconstructor,
    _scaled_weight,
    scaling_weight,
)

SMALL_SUITE = [wt for wt in SUITE if sum(wt) <= 10]


def _wt_id(wt):
    return "w" + "_".join(map(str, wt))


def _passes_selection_rule(w, alpha):
    """The charge and degree rules, stated from the spectrum alone."""
    sigma = spectrum(w)
    charge = sum(k * x for k, x in enumerate(alpha))
    degree = 3 - w.n + sum(x * (sigma[k] - 1) for k, x in enumerate(alpha))
    return charge % w.mu == (w.n + sum(alpha) - 3) % w.mu and degree >= 0


def _reference_keys(w, lengths, rule):
    """The full walk over ``(0,) + tail`` at each length, filtered by
    ``rule``."""
    return [
        (0,) + tail
        for length in lengths
        for tail in compositions(length, w.mu - 1)
        if rule((0,) + tail)
    ]


def _weight_vectors(st, max_mu):
    @st.composite
    def draw_weights(draw):
        # A composition of mu, one weight at a time.
        mu = draw(st.integers(2, max_mu))
        ws = []
        while sum(ws) < mu:
            ws.append(draw(st.integers(1, mu - sum(ws))))
        return Weights(ws)

    return draw_weights()


def _nonzero_residuals(p, max_alpha, residual=wdvv_residual):
    """``{(eq, alpha): value}`` for every ``(i, j, k, l, alpha)`` with
    ``|alpha| <= max_alpha`` whose residual is not zero, in alpha-major
    order."""
    mu = p.weights.mu
    out = {}
    for total in range(max_alpha + 1):
        for alpha in itertools.product(range(total + 1), repeat=mu):
            if sum(alpha) != total:
                continue
            for eq in itertools.product(range(mu), repeat=4):
                value = residual(p, *eq, alpha)
                if value != 0:
                    out[eq, alpha] = value
    return out


def _assert_unit_axiom(p):
    for alpha in p.coeffs:
        if alpha[0] >= 1:
            assert sum(alpha) == 3, (p.weights, alpha)


def _assert_homogeneity(p):
    w = p.weights
    for alpha, value in p.nonzero_items():
        if sum(alpha) >= p.max_length:
            continue
        lifted = (alpha[0], alpha[1] + 1) + alpha[2:]
        assert w.mu * p.coeff(lifted) == value * scaling_weight(w, alpha), alpha


def test_kontsevich_oracle_values():
    n = kontsevich_numbers(5)
    assert n == {1: 1, 2: 1, 3: 12, 4: 620, 5: 87304}


def test_initial_coeffs_examples():
    assert initial_coeffs(Weights(1, 1, 1))[(1, 2, 2)] == 1
    assert initial_coeffs(Weights(1, 2))[(1, 1, 2)] == F(1, 4)
    # unit direction reproduces the metric
    for wt in [(1, 2), (1, 3), (2, 3, 5)]:
        w = Weights(wt)
        table = initial_coeffs(w)
        for j in range(w.mu):
            for k in range(j, w.mu):
                got = table.get((0, j, k), F(0))
                assert got == metric(w, j, k), (wt, j, k)


def test_initial_coeffs_is_read_only():
    w = Weights(1, 2)
    before = dict(initial_coeffs(w))
    with pytest.raises(TypeError):
        initial_coeffs(w)[(0, 0, 0)] = F(7)
    with pytest.raises(TypeError):
        del initial_coeffs(w)[(1, 1, 2)]
    assert dict(initial_coeffs(w)) == before
    assert (0, 0, 0) not in initial_coeffs(w)


def test_initial_coeffs_keys_satisfy_congruence(suite_weights):
    w = suite_weights
    for (i, j, k), value in initial_coeffs(w).items():
        assert value != 0
        assert (i + j + k) % w.mu == w.n % w.mu


def test_initial_coeffs_match_a_side_tensor(suite_weights):
    w = suite_weights
    table = initial_coeffs(w)
    m = mirror_index_map(w)
    for a in ordered_basis(w):
        for b in ordered_basis(w):
            key = tuple(sorted((1, m.forward[a], m.forward[b])))
            assert table.get(key, F(0)) == three_point(
                w, a.gamma, a.d, b.gamma, b.d
            ), (w, a, b)


def test_homogeneity_step_examples():
    # The scaling identity A(alpha + e_1) = d(alpha) * A(alpha) / mu.
    def step(p, alpha):
        return p.coeff(alpha) * scaling_weight(p.weights, alpha) / p.weights.mu

    p = reconstruct(Weights(1, 1), 5)
    assert step(p, (0, 3)) == p.coeff((0, 4)) == 1
    assert step(p, (0, 4)) == p.coeff((0, 5)) == 1
    w3 = Weights(1, 1, 1)
    p3 = reconstruct(w3, 6)
    assert p3.coeff((0, 1, 2)) == 1
    assert step(p3, (0, 1, 2)) == p3.coeff((0, 2, 2)) == 1
    assert scaling_weight(w3, (0, 1, 2)) == 3


def test_p1_potential():
    p = reconstruct(Weights(1, 1), 8)
    for alpha, value in p.nonzero_items():
        a0, a1 = alpha
        if alpha == (2, 1):
            assert value == 1
        else:
            assert a0 == 0 and value == 1, alpha
    assert [p.coeff((0, k)) for k in range(3, 9)] == [1] * 6


def test_p2_potential_matches_curve_counts():
    depth = 11
    p = reconstruct(Weights(1, 1, 1), depth)
    counts = kontsevich_numbers(4)
    # Classical cubic part.
    assert p.coeff((2, 0, 1)) == 1
    assert p.coeff((1, 2, 0)) == 1
    # Every other coefficient is a curve count times a divisor power.
    for total in range(3, depth + 1):
        for a1 in range(total + 1):
            for a2 in range(total - a1 + 1):
                a0 = total - a1 - a2
                alpha = (a0, a1, a2)
                if alpha in ((2, 0, 1), (1, 2, 0)):
                    continue
                if a0 == 0 and (a2 + 1) % 3 == 0:
                    d = (a2 + 1) // 3
                    expected = F(counts[d] * d**a1) if d <= 4 else None
                    if expected is not None:
                        assert p.coeff(alpha) == expected, alpha
                else:
                    assert p.coeff(alpha) == 0, alpha


def test_unit_axiom(suite_weights):
    if suite_weights.mu > 5:
        pytest.skip("reconstruction suite is restricted to small ranks")
    _assert_unit_axiom(reconstruct(suite_weights, 6))


def test_homogeneity_invariant_on_reconstruction(suite_weights):
    if suite_weights.mu > 5:
        pytest.skip("reconstruction suite is restricted to small ranks")
    _assert_homogeneity(reconstruct(suite_weights, 6))


@pytest.mark.parametrize("wt", SMALL_SUITE, ids=_wt_id)
def test_nonzero_coefficients_pass_selection_rule(wt):
    w = Weights(wt)
    for alpha, value in reconstruct(w, 6).nonzero_items():
        assert _passes_selection_rule(w, alpha), (w, alpha, value)


def test_selection_rule_on_cubic_data(suite_weights):
    # At |alpha| = 3 the charge rule is the congruence i + j + k = n (mod mu)
    # of the cubic data, and the degree rule reads sigma_i + sigma_j +
    # sigma_k >= n.
    w = suite_weights
    rec = _Reconstructor(w)
    sigma = spectrum(w)
    table = initial_coeffs(w)
    for i, j, k in itertools.combinations_with_replacement(range(w.mu), 3):
        alpha = [0] * w.mu
        for idx in (i, j, k):
            alpha[idx] += 1
        congruent = (i + j + k) % w.mu == w.n % w.mu
        degree_ok = sigma[i] + sigma[j] + sigma[k] >= w.n
        assert rec.admissible(tuple(alpha)) == (congruent and degree_ok), (i, j, k)
        if (i, j, k) in table:
            assert congruent and degree_ok, (w, i, j, k)


@pytest.mark.parametrize("wt", SMALL_SUITE, ids=_wt_id)
def test_scaled_degree_matches_spectrum(wt):
    # D d(alpha) over D = lcm(w) is 3 - n + sum_k alpha_k (sigma(k) - 1), on
    # every alpha with 3 <= |alpha| <= 6, alpha_0 > 0 included.
    w = Weights(wt)
    sigma = spectrum(w)
    table = _degree_table(w)
    assert table[0] == math.lcm(*wt)
    for length in range(3, 7):
        for alpha in compositions(length, w.mu):
            expected = 3 - w.n + sum(x * (sigma[k] - 1) for k, x in enumerate(alpha))
            assert F(_scaled_weight(table, alpha), table[0]) == expected, alpha
            assert scaling_weight(w, alpha) == expected, alpha


@pytest.mark.parametrize(
    "alpha",
    [(0, 3), (0, 0, 3, 0), (-1, 2, 2), (0.5, 0.5, 2), (0, True, 2)],
    ids=["short", "long", "negative", "non-integer", "bool"],
)
def test_scaling_weight_rejects_malformed_multi_index(alpha):
    with pytest.raises(ValueError):
        scaling_weight(Weights(1, 1, 1), alpha)


def test_degree_table_refuses_a_non_integral_entry(monkeypatch):
    w = Weights(2, 3)
    sigma = list(spectrum(w))
    sigma[2] += F(1, 7)
    monkeypatch.setattr(wdvv, "spectrum", lambda _: tuple(sigma))
    with pytest.raises(InternalConsistencyError):
        _degree_table.__wrapped__(w)


@pytest.mark.parametrize("wt", SMALL_SUITE, ids=_wt_id)
def test_admissible_keys_match_reference_walk(wt):
    # The walk yields exactly the full walk filtered by the rule, in order.
    w = Weights(wt)
    rec = _Reconstructor(w)
    got = list(_admissible_keys(w, 6))
    assert got == _reference_keys(w, range(4, 7), rec.admissible), w


@pytest.mark.parametrize(
    "wt, max_length, count",
    [((1, 2, 2, 3, 3, 3), 8, 14_526), ((2, 3, 4, 5, 7), 6, 10_878), ((2, 3, 5), 9, 4_740)],
    ids=["w1_2_2_3_3_3-L8", "w2_3_4_5_7-L6", "w2_3_5-L9"],
)
def test_admissible_key_counts(wt, max_length, count):
    # The full walks visit 202,930, 228,459 and 48,400 keys.
    assert sum(1 for _ in _admissible_keys(Weights(wt), max_length)) == count


def test_admissible_keys_random_weight_vectors():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(
        max_examples=30, deadline=None, derandomize=True, database=None
    )
    @hypothesis.given(_weight_vectors(hypothesis.strategies, 8))
    def check(w):
        # Against the rule stated from the spectrum, not the integer table.
        expected = _reference_keys(
            w, range(4, 7), lambda alpha: _passes_selection_rule(w, alpha)
        )
        assert list(_admissible_keys(w, 6)) == expected, w

    check()


def test_residual_examples():
    p = reconstruct(Weights(1, 1, 1), 8)
    assert wdvv_residual(p, 1, 1, 2, 2, (0, 0, 3)) == 0
    for j, k, l in itertools.product(range(3), repeat=3):
        assert wdvv_residual(p, 0, j, k, l, (0, 0, 2)) == 0


def test_residual_depth_guard():
    p = reconstruct(Weights(1, 1), 5)
    with pytest.raises(ValueError):
        wdvv_residual(p, 0, 0, 0, 0, (0, 3))


@pytest.mark.parametrize(
    "eq, alpha",
    [
        ((0, 0, 0, 0), (0, 1)),
        ((0, 0, 0, 0), (0, 0, 0, 1)),
        ((0, 0, 0, 0), (-1, 1, 1)),
        ((3, 0, 0, 0), (0, 0, 0)),
        ((0, 0, 0, -1), (0, 0, 0)),
        ((0, 0, 0, 0), (0.5, 0.5, 0)),
        ((0.5, 0, 0, 0), (0, 0, 0)),
        ((0, 0, 0, 0), (0, 0, 1.0)),
        ((True, 1, 1, 1), (0, 0, 0)),
        ((0, 0, 0, 0), (0, 0, True)),
    ],
    ids=[
        "alpha-short",
        "alpha-long",
        "alpha-negative",
        "index-mu",
        "index-minus-1",
        "alpha-non-integer",
        "index-non-integer",
        "alpha-equal-to-last-table",
        "index-bool",
        "alpha-bool-equal-to-last-table",
    ],
)
def test_residual_rejects_malformed_input(eq, alpha):
    p = reconstruct(Weights(1, 1, 1), 5)
    # Build the table at (0, 0, 1) first: an alpha equal to it but not made
    # of ints must still be refused.
    assert wdvv_residual(p, 0, 0, 0, 0, (0, 0, 1)) == 0
    with pytest.raises(ValueError):
        wdvv_residual(p, *eq, alpha)


def test_hand_built_potential_matches_reconstruct():
    w = Weights(1, 1, 1)
    p = reconstruct(w, 6)
    copy = Potential(w, 6, dict(p.coeffs))
    assert copy == p
    for total in range(3):
        for alpha in itertools.product(range(total + 1), repeat=w.mu):
            if sum(alpha) != total:
                continue
            for eq in itertools.product(range(w.mu), repeat=4):
                assert wdvv_residual(copy, *eq, alpha) == wdvv_residual(p, *eq, alpha)
    # The residual reads the metric from the weights alone, so a hand-built
    # potential with one wrong coefficient is caught.
    wrong = dict(p.coeffs)
    wrong[(0, 0, 5)] += 1
    assert _nonzero_residuals(Potential(w, 6, wrong), 2)


def test_residuals_vanish_small_sweep(suite_weights):
    if suite_weights.mu > 4:
        pytest.skip("full sweep runs in the acceptance suite")
    w = suite_weights
    p = reconstruct(w, 6)
    # Both routes agree on every residual at |alpha| <= 3: none is nonzero.
    assert not _nonzero_residuals(p, 3), w
    assert not _nonzero_residuals(p, 3, wdvv_residual_reference), w


@pytest.mark.parametrize("wt", [(1, 1, 1), (2, 3)], ids=["w1_1_1", "w2_3"])
@pytest.mark.parametrize("fault", ["plus_one", "deleted"])
def test_residual_faults_match_reference(wt, fault):
    # One coefficient at a time is raised by 1 or deleted; both routes
    # report the same nonzero residuals, and at least one.
    p = reconstruct(Weights(wt), 5)
    for key in p.coeffs:
        coeffs = dict(p.coeffs)
        if fault == "plus_one":
            coeffs[key] += 1
        else:
            del coeffs[key]
        broken = dataclasses.replace(p, coeffs=coeffs)
        got = _nonzero_residuals(broken, 2)
        assert got, (wt, key)
        assert got == _nonzero_residuals(broken, 2, wdvv_residual_reference), (wt, key)


def test_potential_is_read_only():
    w = Weights(2, 3)
    p = reconstruct(w, 5)
    key = next(iter(p.coeffs))
    with pytest.raises(TypeError):
        p.coeffs[key] = F(7)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.coeffs = {}
    # A hand-built potential keeps its own copy of the dict.
    source = dict(p.coeffs)
    hand = Potential(w, 5, source)
    source[key] += 1
    assert hand == p
    # Every key must lie in N^mu, as ``coeff`` and the residual tables read it.
    bad_keys = [(0, 0, 0, 0, 0, 3), (-1, 0, 0, 2, 2), (0.5, 0, 0, 2, 2), (0, 0, True, 2, 2)]
    for bad in bad_keys:
        with pytest.raises(ValueError):
            Potential(w, 5, {**p.coeffs, bad: F(1)})
    # A sweep caches tables on ``p``; a replaced potential builds its own.
    assert not _nonzero_residuals(p, 2)
    wrong = dict(p.coeffs)
    wrong[key] += 1
    assert _nonzero_residuals(dataclasses.replace(p, coeffs=wrong), 2)
    assert not _nonzero_residuals(p, 2)


@pytest.mark.parametrize(
    "wt",
    [(2, 4), (3, 3), (1, 2, 3), (4, 6), (2, 3, 5), (1, 2, 3, 4)],
    ids=_wt_id,
)
def test_residuals_vanish_to_mu_10(wt):
    # Every (i, j, k, l) in [0, mu)^4 at |alpha| <= 3 for mu = 6 and at
    # |alpha| <= 2 for mu = 10: 2,306,592 residuals over the suite members
    # with 5 < mu <= 10.
    max_alpha = 3 if sum(wt) <= 6 else 2
    assert not _nonzero_residuals(reconstruct(Weights(wt), max_alpha + 3), max_alpha), wt


def test_random_weight_vectors():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(
        max_examples=25, deadline=None, derandomize=True, database=None
    )
    @hypothesis.given(_weight_vectors(hypothesis.strategies, 6))
    def check(w):
        p = reconstruct(w, 5)
        # Both routes agree on every residual at |alpha| <= 1: none is nonzero.
        assert not _nonzero_residuals(p, 1), w
        assert not _nonzero_residuals(p, 1, wdvv_residual_reference), w
        for alpha, value in p.nonzero_items():
            assert _passes_selection_rule(w, alpha), (w, alpha, value)
        _assert_unit_axiom(p)
        _assert_homogeneity(p)

    check()


def _case(wt, max_length, *marks):
    return pytest.param(wt, max_length, marks=marks, id=f"{_wt_id(wt)}-L{max_length}")


# The reconstruct-depth ladder (every order of (2,3,4), the rung the
# benchmark seed shuffles) and vectors of other shapes and depths.  The
# three marked slow take about 2.7, 3.2 and 2.2 s, mostly in the oracle.
ORACLE_CASES = [
    _case((1, 1, 1), 16),
    _case((1, 1, 1, 1), 10),
    _case((2, 3, 5), 7),
    _case((4, 6), 7),
    _case((1, 2, 2, 3, 3, 3), 5),
    *[_case(wt, 6) for wt in sorted(set(itertools.permutations((2, 3, 4))))],
    _case((2, 3, 5), 8),
    _case((1, 2, 2, 3, 3, 3), 6),
    _case((3, 4), 12),
    _case((1, 2), 14),
    _case((4, 6), 9),
    _case((1, 3, 5), 7),
    _case((2, 2, 3), 8),
    _case((1, 1, 2, 2), 8),
    _case((2, 3, 4, 5, 7), 5),
    _case((1, 4, 5, 7, 8), 5, pytest.mark.slow),
    _case((5, 7), 10, pytest.mark.slow),
    _case((1, 2, 2, 3, 3, 3), 7, pytest.mark.slow),
]


@pytest.mark.parametrize("wt, max_length", ORACLE_CASES)
def test_reconstruct_matches_fraction_oracle(wt, max_length):
    # The integer solver gives the Fraction solver's potential, and every
    # coefficient is an integer over P^(|alpha| + 2), P = prod(w).
    w = Weights(wt)
    p = reconstruct(w, max_length)
    assert p.nonzero_items() == reconstruct_reference(w, max_length).nonzero_items()
    scale = math.prod(wt)
    for alpha, value in p.coeffs.items():
        assert (value * scale ** (sum(alpha) + 2)).denominator == 1, alpha


def test_denominator_bound_is_tight():
    # (2,3,4,5,7) at length 5 has a coefficient that needs all of
    # P^(|alpha| + 2).
    p = reconstruct(Weights(2, 3, 4, 5, 7), 5)
    scale = math.prod((2, 3, 4, 5, 7))
    assert any((value * scale ** (sum(alpha) + 1)).denominator != 1
               for alpha, value in p.coeffs.items())


@pytest.mark.parametrize(
    "factor, where",
    [(F(1, 7), "cubic datum"), (7, "WDVV equation")],
    ids=["datum-over-7", "pivot-times-7"],
)
def test_inexact_division_is_an_internal_error(monkeypatch, capsys, factor, where):
    # P = 30 has no factor 7.  A cubic datum over 7 has no numerator over
    # P^5; the same datum times 7 is the pivot of a chain equation, which
    # then leaves a remainder.  Neither falls back to Fraction.
    w = Weights(2, 3, 5)
    table = dict(initial_coeffs(w))
    table[(1, 2, 9)] *= factor
    monkeypatch.setattr(wdvv, "initial_coeffs", lambda _: MappingProxyType(table))
    with pytest.raises(InternalConsistencyError, match=where):
        reconstruct(w, 6)
    assert cli.main(["reconstruct", "--weights", "2,3,5", "--max-length", "6"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and where in err


def test_reconstruct_input_validation():
    with pytest.raises(ValueError):
        reconstruct(Weights(1), 5)
    with pytest.raises(ValueError):
        reconstruct(Weights(1, 1), 2)


@pytest.mark.parametrize(
    "max_length",
    [5.0, True, "5", None, F(5), 2, -1],
    ids=["float", "bool", "str", "none", "fraction", "two", "negative"],
)
def test_reconstruct_rejects_bad_max_length(monkeypatch, max_length):
    # The depth is checked before any cubic data is built.
    def build(w):
        raise AssertionError("built the solver before checking max_length")

    monkeypatch.setattr(wdvv, "_Reconstructor", build)
    with pytest.raises(ValueError):
        reconstruct(Weights(1, 1, 1), max_length)


def test_coeff_range_guards():
    p = reconstruct(Weights(1, 1), 5)
    with pytest.raises(ValueError):
        p.coeff((1, 1))
    with pytest.raises(ValueError):
        p.coeff((0, 6))


@pytest.mark.parametrize(
    "alpha",
    [(0, 3), (0, 0, 3, 0), (-1, 2, 2), (0.5, 0.5, 2), (0, F(1), 2), (False, 0, 3)],
    ids=["short", "long", "negative", "non-integer", "fraction", "bool"],
)
def test_coeff_rejects_malformed_multi_index(alpha):
    p = reconstruct(Weights(1, 1, 1), 5)
    with pytest.raises(ValueError):
        p.coeff(alpha)
