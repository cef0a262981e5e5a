"""Construction and exact evaluation of Doppler-resilient complementary
sequence sets built from quasi-Florentine rectangles and Butson-type
Hadamard matrices."""

from .finite_field import FieldSpec, find_primitive_polynomial
from .rectangles import (
    Rectangle,
    build_circular_florentine,
    build_circular_quasi_florentine,
    build_extended_quasi_florentine,
    family_dimensions,
    product_construct,
    product_family,
    search_max_rows,
    truncate_columns,
    verify_c1,
    verify_c2,
)
from .hadamard import PhaseMatrix, dft_matrix, kronecker, load_seed, verify_bh, walsh_hadamard
from .drcs import DrcsSet, Zone, build_drcs, export_drcs, import_drcs
from .ambiguity import AfGrid, ThetaReport, af_grid, af_pair, theta_max
from .bounds import BoundReport, af_lower_bound, asymptotic_check, optimality_factor

__version__ = "0.1.0"

__all__ = [
    "AfGrid",
    "BoundReport",
    "DrcsSet",
    "FieldSpec",
    "PhaseMatrix",
    "Rectangle",
    "ThetaReport",
    "Zone",
    "af_grid",
    "af_lower_bound",
    "af_pair",
    "asymptotic_check",
    "build_circular_florentine",
    "build_circular_quasi_florentine",
    "build_drcs",
    "build_extended_quasi_florentine",
    "dft_matrix",
    "export_drcs",
    "family_dimensions",
    "find_primitive_polynomial",
    "import_drcs",
    "kronecker",
    "load_seed",
    "optimality_factor",
    "product_construct",
    "product_family",
    "search_max_rows",
    "theta_max",
    "truncate_columns",
    "verify_bh",
    "verify_c1",
    "verify_c2",
    "walsh_hadamard",
]
