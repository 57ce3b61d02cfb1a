"""Deformed-rotor description of nuclear rotational bands.

The deformation parameter is not fitted: each band's spin content fixes
the dimension of a finite angle/angular-momentum phase space, and with it
tau = 2*pi/dim.  A single inertia parameter A is then fitted per band.
The package also verifies, at the matrix level, the operator algebra the
model is built on.

The exported names resolve lazily, each from its submodule on first use,
so ``import qrotor`` loads no numpy and ``python -m qrotor`` can set
OpenBLAS's thread count before numpy starts it.
"""

import importlib

__version__ = "0.1.0"

# Exported name -> the submodule that defines it; the one such map (cli reads it too).
_HOME = {
    **dict.fromkeys(["QParameter", "RegimeError", "bracket", "in_regime", "qbracket", "casimir_eigenvalue"], "qnum"),
    **dict.fromkeys(["BPSpace", "build_space", "check_quantum_plane", "check_cyclic_shift", "check_shift_power",
                     "BP_CHECKS"], "bp_space"),
    **dict.fromkeys(["IrrepMatrices", "build_irrep", "check_commutators", "check_casimir", "IRREP_CHECKS"], "suq2"),
    **dict.fromkeys(["BandData", "twice_spin", "spin_str", "space_size", "q_parameter_from_band", "energy"], "model"),
    **dict.fromkeys(["FitResult", "Fits", "fit_A", "chi2_at", "compare", "compare_batch"], "fit"),
    **dict.fromkeys(["BandError", "BandParseError"], "reader"),
    **dict.fromkeys(
        ["BandFile", "parse_band", "parse_band_file", "read_band_file", "read_bands", "write_band", "write_report",
         "write_plot_data"],
        "ingest",
    ),
}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
