"""Exhaustive exact invariant suite for one weight vector.

Runs every structural identity the two sides must satisfy: basis count,
grading self-adjointness, the ring laws of the cup and the B product,
the cup unit and degree additivity, tie-invariance of all B-side outputs,
the three index identities tying ``k_min``, the spectrum and the basis
degrees together, and the hyperplane power relations.  Everything is
checked for every element (or pair, or triple), not sampled.

The ring laws (commutativity, associativity and Frobenius symmetry
``g(ab, c) = g(a, bc)``) are stated once, in :func:`_check_ring`, over a
table of ``(coefficient, target position)`` pairs; the cup and the B
product each build their table and call it.
"""

from __future__ import annotations

from fractions import Fraction

from . import aquantum, bside
from .acohomology import (
    BasisClass,
    CohClass,
    a_infinity_matrix,
    basis_index,
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
from .mirror import CheckReport, basis_label


def _check_basis_count(w: Weights, report: CheckReport) -> None:
    basis = ordered_basis(w)
    report.expect(
        len(basis) == w.mu, check="basis_count", got=len(basis), expected=w.mu
    )
    total = sum(len(fixed_indices(w, g)) for g in sectors(w))
    report.expect(
        total == w.mu, check="fixed_index_count", got=total, expected=w.mu
    )


def _adjoint_sum(grading, metric) -> list[list[Fraction]]:
    """``A + G^-1 A^T G`` for a grading matrix ``A`` and a metric ``G``."""
    g = [list(row) for row in metric]
    return mat_add(grading, matmul(mat_inverse(g), matmul(transpose(grading), g)))


def _check_grading_adjoint(w: Weights, report: CheckReport) -> None:
    # Both sides: A + G^-1 A^T G == n * Id, for A = diag(deg / 2) with the
    # pairing, and for A = diag(sigma) with the residue metric.
    mu = w.mu
    expected = scalar_mul(Fraction(w.n), identity(mu))
    report.expect(
        _adjoint_sum(a_infinity_matrix(w), gram_matrix(w)) == expected,
        check="a_side_grading_adjoint",
        detail="diag(deg/2) + adjoint != n * Id",
    )
    sig = spectrum(w)
    b_inf = [[sig[i] if i == j else Fraction(0) for j in range(mu)] for i in range(mu)]
    report.expect(
        _adjoint_sum(b_inf, bside.metric_matrix(w)) == expected,
        check="b_side_grading_adjoint",
        detail="diag(sigma) + adjoint != n * Id",
    )
    report.expect(det(gram_matrix(w)) != 0, check="pairing_nondegenerate")


def _check_ring(report: CheckReport, prods, metric, labels, names) -> None:
    """Commutativity, associativity and Frobenius symmetry ``g(ab, c) =
    g(a, bc)`` of a product table: ``prods[p][q]`` is ``(coeff, target
    position)``, with ``(0, None)`` for zero.  ``names`` are the three check
    names and ``labels`` name the positions in failure records."""
    commutative, associative, frobenius = names
    zero = (0, None)
    for p, la in enumerate(labels):
        for q, lb in enumerate(labels):
            report.expect(prods[p][q] == prods[q][p], check=commutative, pair=(la, lb))
            c_ab, ab = prods[p][q]
            for r, lc in enumerate(labels):
                c_bc, bc = prods[q][r]
                c_left, left = zero if ab is None else prods[ab][r]
                c_right, right = zero if bc is None else prods[p][bc]
                triple = (la, lb, lc)
                report.expect(
                    (c_ab * c_left, left) == (c_bc * c_right, right),
                    check=associative,
                    triple=triple,
                )
                # The metric is sparse: multiply only by its nonzero entries.
                lhs = 0 if ab is None or not metric[ab][r] else c_ab * metric[ab][r]
                rhs = 0 if bc is None or not metric[p][bc] else c_bc * metric[p][bc]
                report.expect(lhs == rhs, check=frobenius, triple=triple)


def _check_cup_ring(w: Weights, report: CheckReport) -> None:
    basis = ordered_basis(w)
    index = basis_index(w)
    labels = [basis_label(bc) for bc in basis]
    cups = [[cup_basis(w, a, b) for b in basis] for a in basis]
    one = index[BasisClass(Fraction(0), 0)]
    for p, a in enumerate(basis):
        report.expect(
            cups[one][p] == (1, a) and cups[p][one] == (1, a),
            check="cup_unit",
            cls=labels[p],
        )
    # Each product as (coeff, target position), with (0, None) for zero.  A
    # cup coefficient is a product of weights, so the ring laws compare ints;
    # one that is not an integer stays a Fraction and fails them as such.
    prods = [
        [
            (0, None) if t is None or not c
            else (c.numerator if c.denominator == 1 else c, index[t])
            for c, t in row
        ]
        for row in cups
    ]
    _check_ring(
        report,
        prods,
        gram_matrix(w),
        labels,
        ("cup_commutative", "cup_associative", "cup_frobenius"),
    )
    for p, a in enumerate(basis):
        for q, b in enumerate(basis):
            target = cups[p][q][1]
            if target is not None:
                report.expect(
                    degree(w, target) == degree(w, a) + degree(w, b),
                    check="cup_degree_additive",
                    pair=(labels[p], labels[q]),
                )


def _check_b_ring(w: Weights, report: CheckReport) -> None:
    mu = w.mu
    prods = [[bside.product(w, i, j) for j in range(mu)] for i in range(mu)]
    metric = bside.metric_matrix(w)
    _check_ring(
        report,
        prods,
        metric,
        range(mu),
        ("b_product_commutative", "b_product_associative", "b_frobenius_symmetric"),
    )
    if mu > 1:
        for j in range(mu):
            c1j, t1j = prods[1][j]
            for k in range(mu):
                report.expect(
                    bside.three_tensor(w, j, k) == c1j * metric[t1j][k],
                    check="three_tensor_matches_product",
                    pair=(j, k),
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
    # Each class eta_g^d with its B index k_min(g^-1) + d.
    classes = []
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
            k = k_min(w, ginv) + d
            # A wrong ``k_min`` can put ``k`` outside the spectrum.
            report.expect(
                0 <= k < mu and sig[k] == d + age(w, g),
                check="spectrum_matches_degree",
                sector=str(g),
                d=d,
            )
            classes.append((g, d, k))
    for g, d, k in classes:
        partner = (inverse_sector(g), sector_dim(w, g) - d)
        for g2, d2, k2 in classes:
            report.expect(
                ((k + k2) % mu == w.n % mu) == ((g2, d2) == partner),
                check="dual_index_congruence",
                pair=((str(g), d), (str(g2), d2)),
            )


def _check_quantum_relations(w: Weights, report: CheckReport) -> None:
    # powers[k] is (eta_1^1)^k, for k = 0..mu.
    powers = [unit(w)]
    for _ in range(w.mu):
        powers.append(aquantum.hyperplane_quantum_mult(w, powers[-1]))
    denom = 1
    for wi in w:
        denom *= wi**wi
    expected = CohClass.line(BasisClass(Fraction(0), 0), Fraction(1, denom), 1)
    report.expect(
        powers[w.mu] == expected,
        check="hyperplane_power_mu",
        detail="(eta_1^1)^mu != Q * prod w^-w",
    )
    for g in sectors(w):
        if g == 0:
            continue
        expected = CohClass.line(
            BasisClass(inverse_sector(g), 0), aquantum.sector_constant(w, g), g
        )
        k = k_min(w, g)
        report.expect(
            0 <= k < len(powers) and powers[k] == expected,
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
