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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import aquantum, bside
from .acohomology import (
    BasisClass,
    basis_index,
    cup_basis,
    degree,
    gram_matrix,
    ordered_basis,
)
from .combinatorics import Weights, sector_table, spectrum
from .errors import InternalConsistencyError
from .linalg import matmul, permutation_matrix, transpose


@dataclass(frozen=True)
class MirrorIndexMap:
    """Bijection basis class <-> B-side index ``k_min(g^{-1}) + d``."""

    forward: dict[BasisClass, int]
    inverse: dict[int, BasisClass]

    def __getitem__(self, bc: BasisClass) -> int:
        return self.forward[bc]


@dataclass
class CheckReport:
    """Outcome of an exact checker: PASS, or every counterexample found."""

    name: str
    weights: tuple[int, ...]
    checks: int = 0
    failures: list[dict] = field(default_factory=list)

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


def check_classical(w: Weights) -> CheckReport:
    """Exact comparison of the two graded Frobenius algebras."""
    report = CheckReport("classical", w.w)
    xi = mirror_index_map(w)
    basis = ordered_basis(w)
    sigma = spectrum(w)

    for bc in basis:
        report.expect(
            degree(w, bc) / 2 == sigma[xi.forward[bc]],
            check="grading",
            cls=(str(bc.gamma), bc.d),
            half_degree=str(degree(w, bc) / 2),
            sigma=str(sigma[xi.forward[bc]]),
            index=xi.forward[bc],
        )

    gram = gram_matrix(w)
    index = basis_index(w)
    for a in basis:
        for b in basis:
            ia, ib = xi.forward[a], xi.forward[b]
            pa = gram[index[a]][index[b]]
            pb = bside.metric(w, ia, ib)
            report.expect(
                pa == pb,
                check="pairing",
                pair=((str(a.gamma), a.d), (str(b.gamma), b.d)),
                indices=(ia, ib),
                a_side=str(pa),
                b_side=str(pb),
            )

    for a in basis:
        for b in basis:
            ia, ib = xi.forward[a], xi.forward[b]
            coeff, target = cup_basis(w, a, b)
            a_vec = {xi.forward[target]: coeff} if target is not None else {}
            bcoeff, btarget = bside.product(w, ia, ib)
            graded = sigma[ia] + sigma[ib] == sigma[btarget]
            b_vec = {btarget: bcoeff} if graded else {}
            report.expect(
                a_vec == b_vec,
                check="graded_product",
                pair=((str(a.gamma), a.d), (str(b.gamma), b.d)),
                indices=(ia, ib),
                a_side={k: str(v) for k, v in a_vec.items()},
                b_side={k: str(v) for k, v in b_vec.items()},
            )
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
    report = CheckReport("quantum", w.w)
    xi = mirror_index_map(w)
    basis = ordered_basis(w)
    sigma = spectrum(w)

    gram_a = [list(row) for row in gram_matrix(w)]
    gram_b = [list(row) for row in bside.metric_matrix(w)]
    a0_a = aquantum.a0_matrix(w)
    a0_b = bside.a0_matrix(w)

    perm = permutation_matrix([xi.forward[bc] for bc in basis])
    pt = transpose(perm)
    report.expect(
        matmul(pt, matmul(gram_a, perm)) == gram_b,
        check="gram_transport",
        detail="P^T * gram_A * P != gram_B",
    )
    report.expect(
        matmul(pt, matmul(a0_a, perm)) == a0_b,
        check="a0_transport",
        detail="P^T * A0_A * P != A0_B at Q=1",
    )
    for bidx, bc in enumerate(basis):
        for bidx2, bc2 in enumerate(basis):
            report.expect(
                a0_a[bidx][bidx2] == a0_b[xi.forward[bc]][xi.forward[bc2]],
                check="a0_entry",
                pair=((str(bc.gamma), bc.d), (str(bc2.gamma), bc2.d)),
                indices=(xi.forward[bc], xi.forward[bc2]),
                a_side=str(a0_a[bidx][bidx2]),
                b_side=str(a0_b[xi.forward[bc]][xi.forward[bc2]]),
            )

    for bc in basis:
        k = xi.forward[bc]
        report.expect(
            degree(w, bc) / 2 == sigma[k],
            check="a_infinity_transport",
            cls=(str(bc.gamma), bc.d),
            half_degree=str(degree(w, bc) / 2),
            sigma=str(sigma[k]),
        )
        report.expect(
            1 - degree(w, bc) / 2 == 1 - sigma[k],
            check="euler_coefficients",
            cls=(str(bc.gamma), bc.d),
        )

    unit_class = BasisClass(Fraction(0), 0)
    report.expect(
        xi.forward[unit_class] == 0,
        check="unit_transport",
        index=xi.forward[unit_class],
    )

    for a in basis:
        for b in basis:
            lhs = aquantum.three_point(w, a.gamma, a.d, b.gamma, b.d)
            rhs = bside.three_tensor(w, xi.forward[a], xi.forward[b])
            report.expect(
                lhs == rhs,
                check="three_point_tensor",
                pair=((str(a.gamma), a.d), (str(b.gamma), b.d)),
                indices=(xi.forward[a], xi.forward[b]),
                a_side=str(lhs),
                b_side=str(rhs),
            )
    return report
