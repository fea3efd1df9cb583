"""Reconstruction of the genus-0 potential from its cubic data.

The potential is the series ``F(t) = sum_alpha A(alpha) t^alpha / alpha!``
over multi-indices ``alpha`` in N^mu, subject to

* the associativity (WDVV) equations
  ``sum_a F_ija g^{aa*} F_{a*kl} = sum_a F_jka g^{aa*} F_{a*il}``,
* the scaling identity ``mu A(alpha + e_1) = A(alpha) d(alpha)`` for
  ``|alpha| >= 3``, where ``d(alpha) = 3 - n + sum_k alpha_k (sigma(k) - 1)``,
* the flat unit: ``A(alpha) = 0`` whenever ``alpha_0 > 0`` and ``|alpha| >= 4``
  (third derivatives in the unit direction are the constant metric),
* the cubic initial data ``A(e_i + e_j + e_k) = g(e_i * e_j, e_k)`` from the
  B-side product and residue metric.

Everything of length >= 4 is forced:  indices touching slot 0 or slot 1 are
settled by the unit and scaling rules, and a multi-index supported on
``{2, ..., mu-1}`` is solved by a chain of WDVV equations ``(1, j, k, l)``.
In that equation the two length-``|alpha|+3`` unknowns are
``A(alpha + e_{1+j} + e_k + e_l)`` and ``A(alpha + e_j + e_k + e_{1+l})``
(all other top terms carry a slot-1 factor and reduce by scaling), and the
coefficient of each is a nonzero cubic number times an inverse metric
entry, so each chain step is an exact division.  Walking ``j`` down and
``l`` up, the chain terminates as soon as a slot reaches 0 or 1.

The decomposition rule used here (peel the smallest support index first)
guarantees the two unknowns of every chain equation are distinct
multi-indices, so no step degenerates.

Selection rule.  ``A(alpha) = 0`` unless ``alpha`` passes both of

* the charge rule ``sum_k k alpha_k = n + |alpha| - 3 (mod mu)``: the B-side
  product is Z/mu-graded (``bside.product(i, j)`` lands on ``(i + j) mod
  mu`` and the metric pairs ``k`` with ``(n - k) mod mu``), so the cubic data
  lives on ``i + j + k = n (mod mu)``, and the unit, scaling and WDVV rules
  keep ``F`` homogeneous of degree ``n - 3`` for the Z/mu grading in which
  ``t_k`` has degree ``k - 1``;
* the degree rule ``d(alpha) >= 0``: by Euler homogeneity (the scaling
  identity; Dubrovin, hep-th/9407018) ``d(alpha) / mu`` is the degree in the
  quantum parameter that ``t^alpha`` carries, and ``F`` has no negative
  powers of it.

The solver's memo is the potential: it starts as the nonzero cubic data,
every coefficient solved is stored in it, and ``reconstruct`` returns its
nonzero entries.  The solver never computes a coefficient the rule forces
to zero: ``coeff`` returns the zero at once, a chain stops at such a state, and of each
interior sum over ``a`` in an equation it keeps the one charge-compatible
term.  ``wdvv_residual`` does not use the rule, so a residual sweep stays an
independent check of the solver, and of the rule itself.

All arithmetic is exact; no floating point appears anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as iter_product
from types import MappingProxyType

from . import bside
from .combinatorics import Weights, spectrum
from .errors import InternalConsistencyError

MultiIndex = tuple[int, ...]


@lru_cache(maxsize=None)
def initial_coeffs(w: Weights) -> MappingProxyType:
    """Read-only nonzero cubic coefficients ``A(e_i+e_j+e_k) = g(e_i * e_j,
    e_k)``, keyed by sorted index triples.

    Nonzero exactly when ``i + j + k = n mod mu``.
    """
    mu = w.mu
    dual, entry = bside.metric_diagonal(w)
    out: dict[tuple[int, int, int], Fraction] = {}
    for i in range(mu):
        for j in range(i, mu):
            coeff, tgt = bside.product(w, i, j)
            # The metric pairs ``tgt`` with ``dual[tgt]`` alone.
            k = dual[tgt]
            if k >= j:
                out[(i, j, k)] = coeff * entry[k]
    return MappingProxyType(out)


def scaling_weight(w: Weights, alpha: MultiIndex) -> Fraction:
    """``d(alpha) = 3 - n + sum_k alpha_k (sigma(k) - 1)``."""
    sigma = spectrum(w)
    return 3 - w.n + sum(
        (alpha[k] * (sigma[k] - 1) for k in range(len(alpha)) if alpha[k]),
        Fraction(0),
    )


@dataclass
class Potential:
    """A truncated potential: every coefficient with ``3 <= |alpha| <=
    max_length`` is determined; absent keys in that range are exact zeros.
    """

    weights: Weights
    max_length: int
    coeffs: dict[MultiIndex, Fraction]

    def coeff(self, alpha: MultiIndex) -> Fraction:
        alpha = _multi_index(alpha, self.weights.mu)
        total = sum(alpha)
        if total < 3:
            raise ValueError("coefficients of length < 3 are not part of the data")
        if total > self.max_length:
            raise ValueError(
                f"length {total} exceeds reconstruction depth {self.max_length}"
            )
        return self.coeffs.get(alpha, Fraction(0))

    def nonzero_items(self) -> list[tuple[MultiIndex, Fraction]]:
        return sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))


def _multi_index(alpha, mu: int) -> MultiIndex:
    """``alpha`` as a tuple, or ``ValueError`` unless it lies in N^mu."""
    alpha = tuple(alpha)
    if len(alpha) != mu or not all(isinstance(x, int) and x >= 0 for x in alpha):
        raise ValueError(f"multi-index {alpha} is not in N^{mu}")
    return alpha


@lru_cache(maxsize=None)
def _metric_diagonal(w: Weights) -> tuple[tuple[int, ...], tuple[Fraction, ...]]:
    """The metric partner ``a*`` of each index ``a`` and the inverse metric
    entry ``1 / g(e_a, e_{a*})``."""
    dual, entry = bside.metric_diagonal(w)
    return dual, tuple(1 / entry[b] for b in dual)


def _bump(base: MultiIndex, x: int, y: int, z: int) -> MultiIndex:
    """``base + e_x + e_y + e_z``."""
    out = list(base)
    out[x] += 1
    out[y] += 1
    out[z] += 1
    return tuple(out)


def _charge(alpha: MultiIndex) -> int:
    """``sum_k k alpha_k``, the charge of ``alpha`` in the selection rule."""
    return sum(k * x for k, x in enumerate(alpha) if x)


def _sub_indices(alpha: MultiIndex):
    """All ``beta <= alpha`` componentwise with the product of binomials."""
    ranges = [range(x + 1) for x in alpha]
    for beta in iter_product(*ranges):
        b = 1
        for x, y in zip(alpha, beta):
            if y:
                b *= math.comb(x, y)
        yield beta, b


class _Reconstructor:
    """Memoized coefficient solver; see the module docstring for the rules."""

    def __init__(self, w: Weights):
        if w.mu < 2:
            raise ValueError("reconstruction needs mu >= 2")
        self.w = w
        self.mu = w.mu
        self.dual, self.ginv = _metric_diagonal(w)
        # Every coefficient solved so far, seeded with the nonzero cubic data.
        zero = (0,) * w.mu
        self.memo: dict[MultiIndex, Fraction] = {
            _bump(zero, *triple): value for triple, value in initial_coeffs(w).items()
        }

    # -- basic rules ------------------------------------------------------

    def admissible(self, alpha: MultiIndex) -> bool:
        """The selection rule: ``A(alpha)`` can be nonzero only if ``alpha``
        passes the charge rule and ``d(alpha) >= 0``."""
        if _charge(alpha) % self.mu != (self.w.n + sum(alpha) - 3) % self.mu:
            return False
        return scaling_weight(self.w, alpha) >= 0

    def coeff(self, key: MultiIndex) -> Fraction:
        # The memo holds admissible keys only (the nonzero cubic data passes
        # the rule), so a hit needs no rule check.
        got = self.memo.get(key)
        if got is not None:
            return got
        if not self.admissible(key):
            return Fraction(0)
        if key[0] >= 1 or sum(key) == 3:
            # The flat unit, or cubic data the seed holds no value for.
            value = Fraction(0)
        elif key[1] >= 1:
            prev = (key[0], key[1] - 1) + key[2:]
            value = self.coeff(prev) * scaling_weight(self.w, prev) / self.mu
        else:
            value = self._chain(key)
        self.memo[key] = value
        return value

    # -- the WDVV chain ---------------------------------------------------

    def _chain(self, key: MultiIndex) -> Fraction:
        """Solve for ``A(key)`` with ``key`` supported on indices >= 2."""
        mu = self.mu
        support = [i for i, x in enumerate(key) if x]
        m = support[0]
        rest = list(key)
        rest[m] -= 1
        k_slot = max(i for i, x in enumerate(rest) if x)
        rest[k_slot] -= 1
        l0 = max(i for i, x in enumerate(rest) if x)
        rest[l0] -= 1
        alpha = tuple(rest)

        def state_key(t: int) -> MultiIndex:
            out = list(alpha)
            out[m - t] += 1
            out[k_slot] += 1
            out[(l0 + t) % mu] += 1
            return tuple(out)

        # Walk forward until a directly-known state.  Every state has the
        # charge of ``key``; one that fails the degree rule is a known zero.
        t_stop = 1
        while True:
            kt = state_key(t_stop)
            if (
                kt in self.memo
                or (m - t_stop) <= 1
                or (l0 + t_stop) % mu <= 1
                or not self.admissible(kt)
            ):
                break
            t_stop += 1
        # The equation at ``t`` reads state ``t + 1``: the step before it
        # memoised that state, or ``coeff`` settles it for ``t + 1 = t_stop``.
        for t in range(t_stop - 1, -1, -1):
            value = self._solve_equation(alpha, m - t - 1, k_slot, (l0 + t) % mu)
            self.memo[state_key(t)] = value
        return value

    def _solve_equation(self, alpha: MultiIndex, j: int, k: int, l: int) -> Fraction:
        """Isolate the leading unknown of WDVV ``(1, j, k, l)`` at ``alpha``.

        The unknown ``A(alpha + e_{1+j} + e_k + e_l)`` is the left-side term
        at ``beta = 0``; every other term is known, including the other
        top-length one ``A(alpha + e_j + e_k + e_{(1+l) mod mu})`` (right side,
        ``beta = alpha``).
        """
        mu = self.mu
        n = self.w.n
        dual = self.dual
        ginv = self.ginv
        total = Fraction(0)
        pivot = Fraction(0)
        # Of each sum over ``a`` only the one ``a`` that gives the first
        # factor the right charge can be nonzero.
        for beta, binom in _sub_indices(alpha):
            gamma = tuple(x - y for x, y in zip(alpha, beta))
            shift = n + sum(beta) - _charge(beta) - j
            a = (shift - 1) % mu
            f1 = self.coeff(_bump(beta, 1, j, a))
            if not any(beta):
                # The unknown's own term: keep its coefficient as the pivot.
                pivot = ginv[a] * f1
            elif f1:
                total -= binom * ginv[a] * f1 * self.coeff(_bump(gamma, dual[a], k, l))
            a = (shift - k) % mu
            h1 = self.coeff(_bump(beta, j, k, a))
            if h1:
                total += binom * ginv[a] * h1 * self.coeff(_bump(gamma, dual[a], 1, l))
        if not pivot:
            raise InternalConsistencyError(
                f"zero pivot in WDVV equation (1,{j},{k},{l}) at alpha={alpha}"
            )
        return total / pivot


def _compositions(total: int, parts: int):
    """All tuples in N^parts with the given sum, lexicographically."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def reconstruct(w: Weights, max_length: int) -> Potential:
    """Determine every coefficient with ``3 <= |alpha| <= max_length``.

    >>> p = reconstruct(Weights(1, 1), 5)
    >>> [p.coeff((0, k)) for k in range(3, 6)]
    [Fraction(1, 1), Fraction(1, 1), Fraction(1, 1)]
    """
    rec = _Reconstructor(w)
    if max_length < 3:
        raise ValueError("max_length must be at least 3")
    for length in range(4, max_length + 1):
        # Multi-indices with a unit slot are zero and never walked.
        for tail in _compositions(length, w.mu - 1):
            rec.coeff((0,) + tail)
    coeffs = {key: value for key, value in rec.memo.items() if value}
    return Potential(weights=w, max_length=max_length, coeffs=coeffs)


def wdvv_residual(
    p: Potential, i: int, j: int, k: int, l: int, alpha: MultiIndex
) -> Fraction:
    """Coefficient of ``t^alpha / alpha!`` in the associativity equation
    ``(i, j, k, l)``; exactly zero on a consistent potential.

    Every sum over ``a`` runs over all of ``range(mu)``, where the solver
    keeps only the charge-compatible term: this check does not use the
    selection rule, so a sweep can still catch a wrong coefficient on either
    side of it.

    Raises ``ValueError`` if an index is not an integer in ``[0, mu)``, if
    ``alpha`` is not in N^mu, or if the potential is too shallow to evaluate
    it.
    """
    mu = p.weights.mu
    alpha = _multi_index(alpha, mu)
    if not all(isinstance(x, int) and 0 <= x < mu for x in (i, j, k, l)):
        raise ValueError(
            f"equation ({i},{j},{k},{l}) needs integer indices in [0, {mu})"
        )
    if sum(alpha) + 3 > p.max_length:
        raise ValueError(
            f"residual at |alpha|={sum(alpha)} needs depth {sum(alpha) + 3}, "
            f"potential has {p.max_length}"
        )
    dual, ginv = _metric_diagonal(p.weights)
    get = p.coeffs.get
    zero = Fraction(0)
    total = zero
    for beta, binom in _sub_indices(alpha):
        gamma = tuple(x - y for x, y in zip(alpha, beta))
        for a in range(mu):
            f1 = get(_bump(beta, i, j, a), zero)
            if f1:
                f2 = get(_bump(gamma, dual[a], k, l), zero)
                if f2:
                    total += binom * ginv[a] * f1 * f2
            h1 = get(_bump(beta, j, k, a), zero)
            if h1:
                h2 = get(_bump(gamma, dual[a], i, l), zero)
                if h2:
                    total -= binom * ginv[a] * h1 * h2
    return total
