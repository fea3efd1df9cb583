"""The two mirror correspondence checkers.

The index bijection sends the basis class ``eta_g^d`` to position
``k_min(g^{-1}) + d`` on the B side.  It is stated once, as a table by
basis position, in :func:`index_table`.  It must intertwine, exactly:

* both pairings,
* the classical products (cup against the graded part of the B product,
  where "graded" keeps a term iff the spectrum is additive),
* both gradings (half orbifold degree = spectrum),
* both Euler multiplication matrices at the origin (``Q = 1``),
* the unit and the degree-one 3-point tensors.

The checkers verify every statement on every basis pair and report either
PASS or the list of counterexamples in basis order.  They are regression
instruments: a failure carries the offending pair, both exact values and
the mapped indices.

They read tables by position, not classes by hash: the index table, the
Gram matrix, the cup table, :func:`~orbimirror.aquantum.hyperplane_table`
(the 3-point numbers too) and the spectrum as integers scaled by
``D = lcm(w)``.  Both checkers walk one cached tuple of basis pairs, built
from the index table once per weight vector.  Each pair compares an A
table at basis positions ``(p, q)`` with a B table at ``(ia, ib)``, so no
``P^T X P`` copy is made.  Zero entries are the one shared
:data:`~orbimirror.combinatorics.ZERO`, which :meth:`CheckReport.compare`
passes by identity.
"""

from __future__ import annotations

from functools import lru_cache

from . import aquantum, bside
from .acohomology import BasisClass, cup_table, degree, gram_matrix, ordered_basis
from .combinatorics import ZERO, Weights, sector_table, spectrum
from .errors import InternalConsistencyError


def _text(value):
    """A compared value as a failure record shows it: a string, or a dict of
    strings for a sparse vector."""
    if isinstance(value, dict):
        return {k: str(v) for k, v in value.items()}
    return str(value)


class CheckReport:
    """Outcome of an exact checker: PASS, or every counterexample found."""

    def __init__(self, name: str):
        self.name = name
        self.checks = 0
        self.failures: list[dict] = []

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def expect(self, condition: bool, **info) -> None:
        self.checks += 1
        if not condition:
            self.failures.append(info)

    def compare(
        self, check: str, a_side, b_side, *, sides=("a_side", "b_side"), **where
    ) -> None:
        """Count one check that ``a_side == b_side``.  A failure records
        ``check``, then ``where``, then both values as text under the two
        keys ``sides``; nothing is turned into text while the check passes,
        and one object passes without being compared."""
        self.checks += 1
        if a_side is not b_side and a_side != b_side:
            a_key, b_key = sides
            self.failures.append(
                {"check": check, **where, a_key: _text(a_side), b_key: _text(b_side)}
            )


@lru_cache(maxsize=None)
def index_table(w: Weights) -> tuple[int, ...]:
    """The index bijection by basis position: entry ``p`` is the B index
    ``k_min(g^{-1}) + d`` of ``ordered_basis(w)[p] = eta_g^d``.  Anything but
    a bijection onto ``0 .. mu - 1`` is an internal error.

    >>> index_table(Weights(1, 3))
    (0, 1, 3, 2)
    """
    table = sector_table(w)
    indices = tuple(
        table[s.inverse].k_min + d for s in table.values() for d in range(s.dim + 1)
    )
    if sorted(indices) != list(range(w.mu)):
        raise InternalConsistencyError(
            f"index map {indices} is not a bijection onto 0..{w.mu - 1}"
        )
    return indices


def basis_label(bc: BasisClass) -> tuple[str, int]:
    """How a failure record names a basis class."""
    return str(bc.gamma), bc.d


@lru_cache(maxsize=None)
def _basis_pairs(w: Weights) -> tuple[tuple, ...]:
    """Every ordered pair of basis positions, in basis order, as ``(p, q,
    ia, ib, pair, indices)``: the positions, their B indices and the
    failure-record fields ``pair`` and ``indices``."""
    rows = list(enumerate(zip(map(basis_label, ordered_basis(w)), index_table(w))))
    return tuple(
        (p, q, ia, ib, (la, lb), (ia, ib))
        for p, (la, ia) in rows
        for q, (lb, ib) in rows
    )


def _transports(a_table, b_table, pairs) -> bool:
    """Whether ``a_table[p][q] == b_table[ia][ib]`` on every pair: ``P^T X P
    == Y`` for the permutation matrix ``P`` of the index map."""
    return [a_table[p][q] for p, q, _, _, _, _ in pairs] == [
        b_table[ia][ib] for _, _, ia, ib, _, _ in pairs
    ]


def check_classical(w: Weights) -> CheckReport:
    """Exact comparison of the two graded Frobenius algebras."""
    report = CheckReport("classical")
    xi = index_table(w)
    sigma = spectrum(w)

    for bc, k in zip(ordered_basis(w), xi):
        report.compare(
            "grading",
            degree(w, bc) / 2,
            sigma[k],
            sides=("half_degree", "sigma"),
            cls=basis_label(bc),
            index=k,
        )

    pairs = _basis_pairs(w)
    gram = gram_matrix(w)
    metric = bside.metric_matrix(w)
    for p, q, ia, ib, pair, indices in pairs:
        report.compare("pairing", gram[p][q], metric[ia][ib], pair=pair, indices=indices)

    # D * sigma as integers.
    lcm = w.lcm
    scaled = [(lcm * x).numerator for x in sigma]
    cups = cup_table(w)
    for p, q, ia, ib, pair, indices in pairs:
        coeff, target = cups[p][q]
        a_vec = {xi[target]: coeff} if target is not None else {}
        bcoeff, btarget = bside.product(w, ia, ib)
        graded = scaled[ia] + scaled[ib] == scaled[btarget]
        b_vec = {btarget: bcoeff} if graded else {}
        report.compare("graded_product", a_vec, b_vec, pair=pair, indices=indices)
    return report


def check_quantum(w: Weights) -> CheckReport:
    """Exact comparison of the quantum initial data through the index map.

    Defined for spaces of positive dimension (at least two weights): the
    comparison inserts the hyperplane class, which is a basis element only
    for ``n >= 1``.
    """
    if w.n < 1:
        raise ValueError(
            "quantum comparison needs a positive-dimensional space "
            "(at least two weights)"
        )
    report = CheckReport("quantum")
    xi = index_table(w)
    sigma = spectrum(w)

    pairs = _basis_pairs(w)
    gram = gram_matrix(w)
    a0_a, a0_b = aquantum.a0_matrix(w), bside.a0_matrix(w)
    report.expect(
        _transports(gram, bside.metric_matrix(w), pairs),
        check="gram_transport",
        detail="P^T * gram_A * P != gram_B",
    )
    report.expect(
        _transports(a0_a, a0_b, pairs),
        check="a0_transport",
        detail="P^T * A0_A * P != A0_B at Q=1",
    )
    for p, q, ia, ib, pair, indices in pairs:
        report.compare("a0_entry", a0_a[p][q], a0_b[ia][ib], pair=pair, indices=indices)

    for bc, k in zip(ordered_basis(w), xi):
        half = degree(w, bc) / 2
        report.compare(
            "a_infinity_transport",
            half,
            sigma[k],
            sides=("half_degree", "sigma"),
            cls=basis_label(bc),
        )
        report.expect(
            1 - half == 1 - sigma[k], check="euler_coefficients", cls=basis_label(bc)
        )

    # The unit eta_1^0 sits at position 0.
    report.expect(xi[0] == 0, check="unit_transport", index=xi[0])

    # The 3-point number ((eta_1^1, a, b)) = g(eta_1^1 * a, b) at Q = 1: the
    # scalar of a's image times one Gram entry, or the shared zero when that
    # entry is zero.
    action = aquantum.hyperplane_table(w)
    for p, q, ia, ib, pair, indices in pairs:
        scalar, _, target = action[p]
        entry = gram[target][q]
        report.compare(
            "three_point_tensor",
            scalar * entry if entry else ZERO,
            bside.three_tensor(w, ia, ib),
            pair=pair,
            indices=indices,
        )
    return report
