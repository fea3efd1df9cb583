"""Exact orbifold quantum cohomology of weighted projective spaces and the
matching Landau-Ginzburg data, with mirror checkers and genus-0 potential
reconstruction.  All arithmetic is exact rational arithmetic.

The exports load on first use (PEP 562): ``import orbimirror`` imports no
submodule, and ``orbimirror.reconstruct`` imports only ``wdvv`` and what it
needs.
"""

__version__ = "0.1.0"

# Each exported name and its home module.
_HOME = {
    name: module
    for module, names in {
        "combinatorics": "Sector SectorData Weights age fixed_indices inverse_sector k_min "
        "s_sequence sector_dim sector_table sectors spectrum",
        "acohomology": "BasisClass CohClass basis_position cup_basis cup_table degree gram_matrix "
        "ordered_basis pairing unit",
        "errors": "InternalConsistencyError",
        "mirror": "CheckReport check_classical check_quantum index_table",
        "selftest": "run_selftest",
        "wdvv": "Potential initial_coeffs reconstruct residual_table wdvv_residual",
    }.items()
    for name in names.split()
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
