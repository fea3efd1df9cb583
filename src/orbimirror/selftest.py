"""Exhaustive exact invariant suite for one weight vector.

Runs every structural identity the two sides must satisfy: basis count,
grading self-adjointness, cup associativity / commutativity / Frobenius
symmetry / unit / degree additivity, B-product associativity and Frobenius
symmetry, tie-invariance of all B-side outputs, and the three index
identities tying ``k_min``, the spectrum and the basis degrees together.
Everything is checked for every element (or pair, or triple), not sampled.
"""

from __future__ import annotations

from fractions import Fraction

from . import aquantum, bside
from .acohomology import (
    BasisClass,
    CohClass,
    a_infinity_matrix,
    basis_index,
    cup,
    cup_basis,
    degree,
    gram_matrix,
    ordered_basis,
    unit,
)
from .combinatorics import (
    Weights,
    age,
    fixed_indices,
    inverse_sector,
    k_min,
    s_sequence,
    sector_dim,
    sectors,
    spectrum,
)
from .linalg import det, mat_add, mat_inverse, matmul, scalar_mul, transpose, identity
from .mirror import CheckReport


def _check_basis_count(w: Weights, report: CheckReport) -> None:
    basis = ordered_basis(w)
    report.expect(
        len(basis) == w.mu, check="basis_count", got=len(basis), expected=w.mu
    )
    total = sum(len(fixed_indices(w, g)) for g in sectors(w))
    report.expect(
        total == w.mu, check="fixed_index_count", got=total, expected=w.mu
    )


def _check_grading_adjoint(w: Weights, report: CheckReport) -> None:
    # A side: A + G^-1 A^T G == n * Id for A = diag(deg / 2).
    mu = w.mu
    a_inf = a_infinity_matrix(w)
    gram = [list(row) for row in gram_matrix(w)]
    ginv = mat_inverse(gram)
    adjoint = matmul(ginv, matmul(transpose(a_inf), gram))
    expected = scalar_mul(Fraction(w.n), identity(mu))
    report.expect(
        mat_add(a_inf, adjoint) == expected,
        check="a_side_grading_adjoint",
        detail="diag(deg/2) + adjoint != n * Id",
    )
    # B side: same with diag(sigma) and the residue metric.
    sig = spectrum(w)
    b_inf = [[Fraction(0)] * mu for _ in range(mu)]
    for i in range(mu):
        b_inf[i][i] = sig[i]
    bmetric = [list(row) for row in bside.metric_matrix(w)]
    binv = mat_inverse(bmetric)
    badjoint = matmul(binv, matmul(transpose(b_inf), bmetric))
    report.expect(
        mat_add(b_inf, badjoint) == expected,
        check="b_side_grading_adjoint",
        detail="diag(sigma) + adjoint != n * Id",
    )
    report.expect(det(gram) != 0, check="pairing_nondegenerate")


def _check_cup_ring(w: Weights, report: CheckReport) -> None:
    basis = ordered_basis(w)
    one = unit(w)
    for a in basis:
        ca = CohClass.line(a)
        report.expect(
            cup(w, one, ca) == ca and cup(w, ca, one) == ca,
            check="cup_unit",
            cls=(str(a.gamma), a.d),
        )
    for a in basis:
        for b in basis:
            coeff, target = cup_basis(w, a, b)
            coeff_rev, target_rev = cup_basis(w, b, a)
            report.expect(
                (coeff, target) == (coeff_rev, target_rev),
                check="cup_commutative",
                pair=((str(a.gamma), a.d), (str(b.gamma), b.d)),
            )
            if target is not None:
                report.expect(
                    degree(w, target) == degree(w, a) + degree(w, b),
                    check="cup_degree_additive",
                    pair=((str(a.gamma), a.d), (str(b.gamma), b.d)),
                )
    index = basis_index(w)
    gram = gram_matrix(w)
    for a in basis:
        ca = CohClass.line(a)
        for b in basis:
            cb = CohClass.line(b)
            ab = cup(w, ca, cb)
            for c in basis:
                cc = CohClass.line(c)
                left = cup(w, ab, cc)
                right = cup(w, ca, cup(w, cb, cc))
                report.expect(
                    left == right,
                    check="cup_associative",
                    triple=(
                        (str(a.gamma), a.d),
                        (str(b.gamma), b.d),
                        (str(c.gamma), c.d),
                    ),
                )
                lhs = sum(
                    (
                        scalar * gram[index[bc]][index[c]]
                        for bc, qexp, scalar in ab.items()
                    ),
                    Fraction(0),
                )
                bc_class = cup(w, cb, cc)
                rhs = sum(
                    (
                        scalar * gram[index[a]][index[bc]]
                        for bc, qexp, scalar in bc_class.items()
                    ),
                    Fraction(0),
                )
                report.expect(
                    lhs == rhs,
                    check="cup_frobenius",
                    triple=(
                        (str(a.gamma), a.d),
                        (str(b.gamma), b.d),
                        (str(c.gamma), c.d),
                    ),
                )


def _check_b_ring(w: Weights, report: CheckReport) -> None:
    mu = w.mu
    for i in range(mu):
        for j in range(mu):
            cij, tij = bside.product(w, i, j)
            cji, tji = bside.product(w, j, i)
            report.expect(
                (cij, tij) == (cji, tji), check="b_product_commutative", pair=(i, j)
            )
            for k in range(mu):
                c1, t1 = bside.product(w, tij, k)
                c2, t2 = bside.product(w, j, k)
                c3, t3 = bside.product(w, i, t2)
                report.expect(
                    (cij * c1, t1) == (c2 * c3, t3),
                    check="b_product_associative",
                    triple=(i, j, k),
                )
    for i in range(mu):
        for j in range(mu):
            cij, tij = bside.product(w, i, j)
            for k in range(mu):
                base = cij * bside.metric(w, tij, k)
                cjk, tjk = bside.product(w, j, k)
                other = cjk * bside.metric(w, tjk, i)
                report.expect(
                    base == other, check="b_frobenius_symmetric", triple=(i, j, k)
                )
    if mu > 1:
        for j in range(mu):
            for k in range(mu):
                t = bside.three_tensor(w, j, k)
                c1j, t1j = bside.product(w, 1, j)
                direct = c1j * bside.metric(w, t1j, k)
                report.expect(
                    t == direct, check="three_tensor_matches_product", pair=(j, k)
                )
    sig = spectrum(w)
    for i in range(mu):
        for j in range(mu):
            tgt = (i + j) % mu
            report.expect(
                sig[i] + sig[j] >= sig[tgt],
                check="spectrum_filtration",
                pair=(i, j),
            )


def _check_tie_invariance(w: Weights, report: CheckReport) -> None:
    forward = s_sequence(w)
    reverse = s_sequence(w, reverse_ties=True)
    report.expect(
        forward.values == reverse.values,
        check="tie_invariant_values",
        detail="sorted value sequence changed under reversed tie order",
    )
    kmin_fwd = {}
    kmin_rev = {}
    for k, v in enumerate(forward.values):
        kmin_fwd.setdefault(v, k)
    for k, v in enumerate(reverse.values):
        kmin_rev.setdefault(v, k)
    report.expect(kmin_fwd == kmin_rev, check="tie_invariant_kmin")
    per_position = [
        fixed_indices(w, v) == fixed_indices(w, rv)
        for v, rv in zip(forward.values, reverse.values)
    ]
    report.expect(all(per_position), check="tie_invariant_fixed_sets")


def _check_index_identities(w: Weights, report: CheckReport) -> None:
    values = s_sequence(w).values
    sig = spectrum(w)
    mu = w.mu
    for g in sectors(w):
        closed = k_min(w, g)
        direct = values.index(g)
        report.expect(
            closed == direct,
            check="k_min_closed_form",
            sector=str(g),
            closed=closed,
            direct=direct,
        )
        ginv = inverse_sector(g)
        report.expect(
            age(w, g) + age(w, ginv) == w.n + 1 - len(fixed_indices(w, g)),
            check="age_inverse_sum",
            sector=str(g),
        )
        for d in range(sector_dim(w, g) + 1):
            report.expect(
                sig[k_min(w, ginv) + d] == d + age(w, g),
                check="spectrum_matches_degree",
                sector=str(g),
                d=d,
            )
    for g in sectors(w):
        for d in range(sector_dim(w, g) + 1):
            for g2 in sectors(w):
                for d2 in range(sector_dim(w, g2) + 1):
                    lhs = (
                        k_min(w, inverse_sector(g))
                        + d
                        + k_min(w, inverse_sector(g2))
                        + d2
                    ) % mu == w.n % mu
                    rhs = (
                        g2 == inverse_sector(g) and d + d2 == sector_dim(w, g)
                    )
                    report.expect(
                        lhs == rhs,
                        check="dual_index_congruence",
                        pair=((str(g), d), (str(g2), d2)),
                    )


def _check_quantum_relations(w: Weights, report: CheckReport) -> None:
    mu = w.mu
    power = unit(w)
    for _ in range(mu):
        power = aquantum.hyperplane_quantum_mult(w, power)
    denom = 1
    for wi in w:
        denom *= wi**wi
    expected = CohClass.line(BasisClass(Fraction(0), 0), Fraction(1, denom), 1)
    report.expect(
        power == expected,
        check="hyperplane_power_mu",
        detail="(eta_1^1)^mu != Q * prod w^-w",
    )
    for g in sectors(w):
        if g == 0:
            continue
        power = unit(w)
        for _ in range(k_min(w, g)):
            power = aquantum.hyperplane_quantum_mult(w, power)
        expected = CohClass.line(
            BasisClass(inverse_sector(g), 0), aquantum.sector_constant(w, g), g
        )
        report.expect(
            power == expected,
            check="hyperplane_power_kmin",
            sector=str(g),
        )


def run_selftest(w: Weights) -> CheckReport:
    """Run the full invariant suite for one weight vector."""
    report = CheckReport("selftest", w.w)
    _check_basis_count(w, report)
    _check_grading_adjoint(w, report)
    _check_cup_ring(w, report)
    _check_b_ring(w, report)
    _check_tie_invariance(w, report)
    _check_index_identities(w, report)
    _check_quantum_relations(w, report)
    return report
