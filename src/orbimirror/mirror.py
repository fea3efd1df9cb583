"""The two mirror correspondence checkers.

The index bijection sends the basis class ``eta_g^d`` to position
``k_min(g^{-1}) + d`` on the B side.  It must intertwine, exactly:

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

They read tables by position, not classes by hash: the cup product from
:func:`~orbimirror.acohomology.cup_table`, its target positions moved to B
indices through one list, and the spectrum as integers scaled by
``D = lcm(w)``.  Zero entries are the one shared
:data:`~orbimirror.combinatorics.ZERO`, which
:meth:`CheckReport.compare` passes by identity.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import aquantum, bside
from .acohomology import (
    BasisClass,
    basis_position,
    cup_table,
    degree,
    gram_matrix,
    ordered_basis,
)
from .combinatorics import ZERO, Weights, sector_table, spectrum
from .errors import InternalConsistencyError


class MirrorIndexMap(namedtuple("MirrorIndexMap", "forward inverse")):
    """Bijection basis class <-> B-side index ``k_min(g^{-1}) + d``."""

    __slots__ = ()


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


def mirror_index_map(w: Weights) -> MirrorIndexMap:
    """Build the index bijection; a collision is an internal error.

    >>> m = mirror_index_map(Weights(1, 3))
    >>> [m.forward[bc] for bc in ordered_basis(Weights(1, 3))]
    [0, 1, 3, 2]
    """
    table = sector_table(w)
    forward = {}
    inverse = {}
    for bc in ordered_basis(w):
        idx = table[table[bc.gamma].inverse].k_min + bc.d
        if idx in inverse:
            raise InternalConsistencyError(
                f"index map collision: {bc} and {inverse[idx]} both map to {idx}"
            )
        forward[bc] = idx
        inverse[idx] = bc
    if set(inverse) != set(range(w.mu)):
        raise InternalConsistencyError("index map is not onto 0..mu-1")
    return MirrorIndexMap(forward, inverse)


def basis_label(bc: BasisClass) -> tuple[str, int]:
    """How a failure record names a basis class."""
    return str(bc.gamma), bc.d


def _basis_pairs(w: Weights, xi: MirrorIndexMap) -> list:
    """Every ordered pair of basis positions ``p, q``, in basis order, with
    their B indices and the failure-record fields ``pair`` and ``indices``."""
    rows = [(p, basis_label(bc), xi.forward[bc]) for p, bc in enumerate(ordered_basis(w))]
    return [
        (p, q, ia, ib, {"pair": (la, lb), "indices": (ia, ib)})
        for p, la, ia in rows
        for q, lb, ib in rows
    ]


def _at_b_indices(w: Weights, xi: MirrorIndexMap, *tables) -> list:
    """Each A-side table over the ordered basis moved to B indices: entry
    ``[j][k]`` is ``X[order[j]][order[k]]``, where ``order[k]`` is the basis
    position of ``xi.inverse[k]``.  This is ``P^T X P`` for the permutation
    matrix ``P`` of the index map."""
    order = [basis_position(w, xi.inverse[k]) for k in range(w.mu)]
    return [[[x[p][q] for q in order] for p in order] for x in tables]


def check_classical(w: Weights) -> CheckReport:
    """Exact comparison of the two graded Frobenius algebras."""
    report = CheckReport("classical")
    xi = mirror_index_map(w)
    sigma = spectrum(w)
    basis = ordered_basis(w)

    for bc in basis:
        k = xi.forward[bc]
        report.compare(
            "grading",
            degree(w, bc) / 2,
            sigma[k],
            sides=("half_degree", "sigma"),
            cls=basis_label(bc),
            index=k,
        )

    pairs = _basis_pairs(w, xi)
    (gram,) = _at_b_indices(w, xi, gram_matrix(w))
    metric = bside.metric_matrix(w)
    for _, _, ia, ib, where in pairs:
        report.compare("pairing", gram[ia][ib], metric[ia][ib], **where)

    # B index of each basis position, and D * sigma as integers.
    to_b = [xi.forward[bc] for bc in basis]
    lcm = w.lcm
    scaled = [(lcm * x).numerator for x in sigma]
    cups = cup_table(w)
    for p, q, ia, ib, where in pairs:
        coeff, target = cups[p][q]
        a_vec = {to_b[target]: coeff} if target is not None else {}
        bcoeff, btarget = bside.product(w, ia, ib)
        graded = scaled[ia] + scaled[ib] == scaled[btarget]
        b_vec = {btarget: bcoeff} if graded else {}
        report.compare("graded_product", a_vec, b_vec, **where)
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
    xi = mirror_index_map(w)
    sigma = spectrum(w)

    gram_a, a0_a = _at_b_indices(w, xi, gram_matrix(w), aquantum.a0_matrix(w))
    a0_b = bside.a0_matrix(w)
    report.expect(
        gram_a == [list(row) for row in bside.metric_matrix(w)],
        check="gram_transport",
        detail="P^T * gram_A * P != gram_B",
    )
    report.expect(
        a0_a == a0_b,
        check="a0_transport",
        detail="P^T * A0_A * P != A0_B at Q=1",
    )
    pairs = _basis_pairs(w, xi)
    for _, _, ia, ib, where in pairs:
        report.compare("a0_entry", a0_a[ia][ib], a0_b[ia][ib], **where)

    for bc in ordered_basis(w):
        half = degree(w, bc) / 2
        k = xi.forward[bc]
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

    unit_class = BasisClass(Fraction(0), 0)
    report.expect(
        xi.forward[unit_class] == 0,
        check="unit_transport",
        index=xi.forward[unit_class],
    )

    # Column a of A0 is mu * (eta_1^1 * a) at Q = 1, so the 3-point number
    # ((eta_1^1, a, b)) = g(eta_1^1 * a, b) is (A0^T G)[a][b] / mu; both
    # tables are already at B indices.  The sum skips zero terms and starts
    # from the shared zero, so a vanishing number is that zero.
    images = [
        [(r, a0_a[r][j] / w.mu) for r in range(w.mu) if a0_a[r][j]] for j in range(w.mu)
    ]
    for _, _, ia, ib, where in pairs:
        report.compare(
            "three_point_tensor",
            sum((c * gram_a[r][ib] for r, c in images[ia] if gram_a[r][ib]), ZERO),
            bside.three_tensor(w, ia, ib),
            **where,
        )
    return report
