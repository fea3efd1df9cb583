"""Exact orbifold quantum cohomology of weighted projective spaces and the
matching Landau-Ginzburg data, with mirror checkers and genus-0 potential
reconstruction.  All arithmetic is exact rational arithmetic.
"""

from .combinatorics import (
    Sector,
    SectorData,
    Weights,
    age,
    fixed_indices,
    inverse_sector,
    k_min,
    s_sequence,
    sector_dim,
    sector_table,
    sectors,
    spectrum,
)
from .acohomology import (
    BasisClass,
    CohClass,
    cup_basis,
    degree,
    gram_matrix,
    ordered_basis,
    pairing,
    unit,
)
from .errors import InternalConsistencyError
from .mirror import CheckReport, MirrorIndexMap, check_classical, check_quantum, mirror_index_map
from .selftest import run_selftest
from .wdvv import Potential, initial_coeffs, reconstruct, wdvv_residual

__version__ = "0.1.0"

__all__ = [
    "BasisClass",
    "CheckReport",
    "CohClass",
    "InternalConsistencyError",
    "MirrorIndexMap",
    "Potential",
    "Sector",
    "SectorData",
    "Weights",
    "age",
    "check_classical",
    "check_quantum",
    "cup_basis",
    "degree",
    "fixed_indices",
    "gram_matrix",
    "initial_coeffs",
    "inverse_sector",
    "k_min",
    "mirror_index_map",
    "ordered_basis",
    "pairing",
    "reconstruct",
    "run_selftest",
    "s_sequence",
    "sector_dim",
    "sector_table",
    "sectors",
    "spectrum",
    "unit",
    "wdvv_residual",
]
