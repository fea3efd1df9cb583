"""The Landau-Ginzburg side: exact shadow of the Jacobian ring of
``f = u_0 + ... + u_n`` on the torus ``prod u_i^{w_i} = 1``.

The whole structure is combinatorial.  An integer-vector recursion

    a(0) = 0,  a(k+1) = a(k) + e_{i(k)},
    i(k)  = smallest j attaining min_j a(k)_j / w_j

produces monomial exponents whose running minima reproduce the s-sequence;
:func:`omega_frame` returns them, ``a(0), ..., a(2 mu - 2)``, as a tuple.
The rank-``mu`` quotient has basis ``[omega_0], ..., [omega_{mu-1}]`` with

* product: ``[omega_i] * [omega_j]`` is a pure weight power times
  ``[omega_{(i+j) mod mu}]``, with exponent
  ``a(k(i)) + a(k(j)) - a(k(i+j)) + a((i+j) mod mu) - a(i+j)`` where
  ``k(i)`` is ``k_min`` of ``s(i)``; since ``a(k + mu) = a(k) + w``, this
  is a ratio of the per-index integers ``prod w_l^a(k(i))_l`` (or of their
  cofactors in ``prod w_l^w_l`` once ``i + j >= mu``),
* residue metric: ``g(e_j, e_k) = prod(1/w_i, i in I(s(k)))`` when
  ``j + k = n mod mu``, else 0,
* degree-one tensor ``((omega_1, omega_j, omega_k)) = g(e_1 * e_j, e_k)``
  in closed form,
* the Euler multiplication matrix ``A0`` (weighted cyclic shift), whose
  characteristic polynomial is ``X^mu - mu^mu * prod w_i^{-w_i}``.

``I(.)``, ``k_min`` and the inverse-weight products are read from
:func:`~orbimirror.combinatorics.sector_table` at the s-values, never at
the recursion's coordinates ``i(k)``, so every output depends only on the
multiset of weights, not on their order.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .combinatorics import ZERO, SectorData, Weights, s_sequence, sector_table, spectrum


@lru_cache(maxsize=None)
def omega_frame(w: Weights) -> tuple[tuple[int, ...], ...]:
    """The exponents ``a(0), ..., a(2 mu - 2)`` of the recursion.
    :func:`product` reads only the rows ``a(k_min(s(k)))``, all below
    ``mu``; the rows ``a(i + j)`` past ``mu - 1`` are read only by the test
    oracle ``tests/_oracles.b_product_exponents``.

    >>> omega_frame(Weights(1, 2))
    ((0, 0), (1, 0), (1, 1), (1, 2), (2, 2))
    """
    mu = w.mu
    steps = max(2 * mu - 2, 0)
    scale = [w.lcm // wj for wj in w]
    a = [(0,) * len(w)]
    idx = [0]
    for k in range(steps):
        cur = list(a[k])
        cur[idx[k]] += 1
        nxt = tuple(cur)
        a.append(nxt)
        # The first coordinate with the least nxt[j] / w[j], scaled by lcm(w)
        # to an int: the same order, ties included.
        idx.append(min(range(len(w)), key=lambda j: nxt[j] * scale[j]))
    return tuple(a)


@lru_cache(maxsize=None)
def _index_sectors(w: Weights) -> tuple[SectorData, ...]:
    """Sector-table record of each s-value ``s(k)``, for ``k = 0 .. mu - 1``."""
    table = sector_table(w)
    return tuple(table[v] for v in s_sequence(w))


@lru_cache(maxsize=None)
def _index_powers(w: Weights) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """For each index ``k``: ``prod w_l^a(k_min(s(k)))_l``, and its cofactor
    ``prod w_l^(w_l - a(k_min(s(k)))_l)`` in ``prod w_l^w_l``."""
    a = omega_frame(w)
    low = [a[s.k_min] for s in _index_sectors(w)]
    up = tuple(math.prod(wi**e for wi, e in zip(w, x)) for x in low)
    down = tuple(math.prod(wi ** (wi - e) for wi, e in zip(w, x)) for x in low)
    return up, down


def product(w: Weights, i: int, j: int) -> tuple[Fraction, int]:
    """``[omega_i] * [omega_j]``: an exact coefficient and the target index
    ``(i + j) mod mu``.

    >>> product(Weights(1, 2), 1, 1)
    (Fraction(1, 2), 2)
    """
    up, down = _index_powers(w)
    tgt = i + j
    if tgt < w.mu:
        return Fraction(up[i] * up[j], up[tgt]), tgt
    # a(i + j) = a(tgt) + w: over prod w_l^w_l, written with the cofactors
    # so that no factor exceeds it.
    tgt -= w.mu
    return Fraction(down[tgt], down[i] * down[j]), tgt


@lru_cache(maxsize=None)
def metric_diagonal(w: Weights) -> tuple[tuple[int, ...], tuple[Fraction, ...]]:
    """The metric partner ``k* = (n - k) mod mu`` of each index ``k``, and the
    pairing entry ``g(e_{k*}, e_k) = prod(1/w_i, i in I(s(k)))``.  The residue
    metric vanishes off these pairs.
    """
    mu = w.mu
    dual = tuple((w.n - k) % mu for k in range(mu))
    return dual, tuple(s.inv_weight_product for s in _index_sectors(w))


@lru_cache(maxsize=None)
def metric_matrix(w: Weights) -> tuple[tuple[Fraction, ...], ...]:
    """The residue metric as rows: :func:`metric_diagonal` written into rows
    of :data:`~orbimirror.combinatorics.ZERO`, one entry per column."""
    dual, entry = metric_diagonal(w)
    rows = [[ZERO] * w.mu for _ in range(w.mu)]
    for k, j in enumerate(dual):
        rows[j][k] = entry[k]
    return tuple(map(tuple, rows))


def three_tensor(w: Weights, j: int, k: int) -> Fraction:
    """The degree-one tensor ``((omega_1, omega_j, omega_k))`` in closed form.

    Zero unless ``1 + j + k = n mod mu``; otherwise a product of inverse
    weights over one or both fixed-index sets depending on whether the
    spectrum is additive on the triple.
    """
    dual, entry = metric_diagonal(w)
    if dual[(1 + j) % w.mu] != k:
        return ZERO
    sig = spectrum(w)
    if sig[1] + sig[j] + sig[k] == w.n:
        return entry[j]
    return entry[j] * entry[k]


def a0_matrix(w: Weights) -> list[list[Fraction]]:
    """Euler multiplication matrix, a fresh list of rows: a weighted cyclic
    shift.

    Entry ``((j+1) mod mu, j)`` is ``mu`` inside a block of equal s-values
    and ``mu * prod(1/w_i, i in I(s(j)))`` across a block boundary.
    """
    mu = w.mu
    secs = _index_sectors(w)
    m = [[ZERO] * mu for _ in range(mu)]
    for j in range(mu):
        row = (j + 1) % mu
        if secs[row].gamma == secs[j].gamma:
            m[row][j] = Fraction(mu)
        else:
            m[row][j] = mu * secs[j].inv_weight_product
    return m

