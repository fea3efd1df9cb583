"""The contract of the record types.

``SectorData``, ``BasisClass`` and ``CohClass`` are immutable values:
fixed field names in a fixed order, no assignment or deletion, equality
and hash by their fields, and a copy or a pickle round trip gives an equal
record.  ``BasisClass`` orders by ``(gamma, d)``.
``CheckReport`` is the one mutable record.
"""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction as F

import pytest

from orbimirror.acohomology import BasisClass, CohClass, ordered_basis
from orbimirror.combinatorics import SectorData, Weights, sector_table
from orbimirror.mirror import CheckReport

W = Weights(1, 2, 2, 3, 3, 3)
BC = BasisClass(F(1, 3), 1)
RECORDS = {
    "SectorData": sector_table(W)[F(1, 3)],
    "BasisClass": BC,
    "CohClass": CohClass.line(BC, F(2, 3), F(1, 3)),
}
FIELDS = {
    "SectorData": (
        "gamma", "inverse", "parts", "fixed", "age", "dim", "inv_weight_product", "k_min",
    ),
    "BasisClass": ("gamma", "d"),
    "CohClass": ("bc", "scalar", "qexp"),
}
TYPES = {
    "SectorData": SectorData,
    "BasisClass": BasisClass,
    "CohClass": CohClass,
}
CLONES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda r: pickle.loads(pickle.dumps(r)),
    "pickle-0": lambda r: pickle.loads(pickle.dumps(r, 0)),
}


def field_values(record) -> tuple:
    return tuple(getattr(record, f) for f in FIELDS[type(record).__name__])


@pytest.mark.parametrize("name", RECORDS)
def test_fields_are_fixed_and_read_only(name):
    record = RECORDS[name]
    assert type(record) is TYPES[name]
    for field in FIELDS[name]:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert type(record)(*field_values(record)) == record


@pytest.mark.parametrize("name", RECORDS)
@pytest.mark.parametrize("clone", CLONES.values(), ids=list(CLONES))
def test_copies_are_equal_with_an_equal_hash(name, clone):
    record = RECORDS[name]
    twin = clone(record)
    assert type(twin) is type(record)
    assert twin == record and field_values(twin) == field_values(record)
    assert hash(twin) == hash(record) == hash(field_values(record))


def test_reprs_name_every_field():
    assert repr(BC) == "BasisClass(gamma=Fraction(1, 3), d=1)"
    assert repr(RECORDS["CohClass"]) == (
        "CohClass(bc=BasisClass(gamma=Fraction(1, 3), d=1), "
        "scalar=Fraction(2, 3), qexp=Fraction(1, 3))"
    )
    assert repr(RECORDS["SectorData"]).startswith(
        "SectorData(gamma=Fraction(1, 3), inverse=Fraction(2, 3), parts="
    )


def test_records_differ_by_any_field():
    assert BC != BasisClass(F(1, 3), 0)
    assert CohClass.line(BC, 2) != CohClass.line(BC, 2, 1)
    assert CohClass.line(BC) == CohClass(BC, F(1), F(0))


@pytest.mark.parametrize("w", [Weights(1, 2), W, Weights(5, 8, 9, 11, 15, 16)])
def test_ordered_basis_is_sorted_by_gamma_then_d(w):
    basis = ordered_basis(w)
    assert list(basis) == sorted(basis, key=lambda bc: (bc.gamma, bc.d))
    assert all(a < b for a, b in zip(basis, basis[1:]))


def test_check_reports_start_empty_and_share_nothing():
    a = CheckReport("classical")
    b = CheckReport("quantum")
    assert (a.name, a.checks, a.failures) == ("classical", 0, [])
    assert (b.checks, b.failures, b.status) == (0, [], "PASS")
    assert a.failures is not b.failures
    a.expect(False, check="demo")
    assert (a.checks, a.failures, a.status) == (1, [{"check": "demo"}], "FAIL")
    assert (b.checks, b.failures, b.status) == (0, [], "PASS")
