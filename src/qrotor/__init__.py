"""Deformed-rotor description of nuclear rotational bands.

The deformation parameter is not fitted: each band's spin content fixes
the dimension of a finite angle/angular-momentum phase space, and with it
tau = 2*pi/dim.  A single inertia parameter A is then fitted per band.
The package also verifies, at the matrix level, the operator algebra the
model is built on.
"""

__version__ = "0.1.0"

from .bp_space import BPSpace, build_space, check_cyclic_shift, check_quantum_plane
from .fit import FitResult, Variant, chi2_at, compare, compare_batch, fit_A, fit_batch
from .ingest import (
    BandFile,
    BandParseError,
    emit_plot_data,
    parse_band,
    parse_band_file,
    read_band_file,
    write_band,
    write_report,
)
from .model import (
    BandData,
    BandError,
    energy,
    q_parameter_from_band,
    space_size,
    spin_str,
    twice_spin,
)
from .qnum import QParameter, RegimeError, bracket, casimir_eigenvalue, in_regime, qbracket
from .suq2 import IrrepMatrices, build_irrep, check_casimir, check_commutators

__all__ = [
    "__version__",
    "QParameter",
    "RegimeError",
    "bracket",
    "in_regime",
    "qbracket",
    "casimir_eigenvalue",
    "BPSpace",
    "build_space",
    "check_quantum_plane",
    "check_cyclic_shift",
    "IrrepMatrices",
    "build_irrep",
    "check_commutators",
    "check_casimir",
    "BandData",
    "BandError",
    "twice_spin",
    "spin_str",
    "space_size",
    "q_parameter_from_band",
    "energy",
    "Variant",
    "FitResult",
    "fit_A",
    "fit_batch",
    "chi2_at",
    "compare",
    "compare_batch",
    "BandFile",
    "BandParseError",
    "parse_band",
    "parse_band_file",
    "read_band_file",
    "write_band",
    "write_report",
    "emit_plot_data",
]
