"""Construction and exact evaluation of Doppler-resilient complementary
sequence sets built from quasi-Florentine rectangles and Butson-type
Hadamard matrices.

_LAYERS names each public name once, under the layer module that defines
it, and __all__ is read from it. Importing the package loads no layer:
the first lookup of a name imports its layer (PEP 562), and nothing is
cached here, so drcs_forge.<name> is always the layer's current binding.
"""

import importlib

__version__ = "0.1.0"

_LAYERS = {
    "finite_field": ("FieldSpec", "find_primitive_polynomial"),
    "rectangles": ("Rectangle", "build_circular_florentine", "build_circular_quasi_florentine",
                   "build_extended_quasi_florentine", "family_dimensions", "product_construct",
                   "product_family", "search_max_rows", "truncate_columns", "verify_c1",
                   "verify_c2"),
    "hadamard": ("PhaseMatrix", "dft_matrix", "kronecker", "load_seed", "verify_bh",
                 "walsh_hadamard"),
    "drcs": ("DrcsSet", "Zone", "build_drcs", "export_drcs", "import_drcs"),
    "ambiguity": ("AfGrid", "ThetaReport", "af_grid", "af_pair", "theta_max"),
    "bounds": ("BoundReport", "af_lower_bound", "asymptotic_check", "optimality_factor"),
}
_LAYER_OF = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = sorted(_LAYER_OF)


def __getattr__(name):
    if name not in _LAYER_OF:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(importlib.import_module("." + _LAYER_OF[name], __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
