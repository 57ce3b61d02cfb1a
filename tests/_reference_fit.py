"""Per-band scalar references for the columnar fit kernel.

One band at a time, one level at a time: eigenvalue factors [j][j+1]
from ``math.sin``, independent of the ``qnum.bracket`` kernel the fit uses,
and sums with numpy dot products.  ``reference_fit``
raises the same exception types with the same messages, in the same order,
as the kernel is documented to, so batch results can be compared with it
band by band.  ``fit_A_oracle`` finds A without the closed form at all.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from qrotor.fit import KEV_PER_MEV, FitError
from qrotor.model import BandData, q_parameter_from_band
from qrotor.qnum import QParameter, RegimeError


class LevelResidual(NamedTuple):
    j: float
    exp_kev: float
    theo_kev: float
    diff_kev: float


def _factor(j: float, qp: QParameter | None) -> float:
    """[j][j+1] = sin(tau j) sin(tau (j+1)) / sin(tau)^2, or j(j+1) for qp=None."""
    if qp is None:
        return j * (j + 1.0)
    sin_tau = math.sin(qp.tau)
    return (math.sin(qp.tau * j) / sin_tau) * (math.sin(qp.tau * (j + 1.0)) / sin_tau)


def _unreferenced(band: BandData, qp: QParameter | None) -> np.ndarray:
    """The eigenvalue factors [j][j+1] of the band's levels, not referenced."""
    if qp is not None and qp.tau * (band.j_max + 1.0) >= math.pi:
        raise RegimeError(f"tau*(j_max+1) >= pi for band '{band.name}' at dim={qp.dim}")
    return np.array([_factor(j, qp) for j in band.spins])


def _referenced(band: BandData, qp: QParameter | None) -> tuple[np.ndarray, np.ndarray]:
    """Experimental energies and eigenvalue factors, both referenced to the
    band head so the model is strictly linear in A."""
    factors = _unreferenced(band, qp)
    energies = np.array(band.energies)
    with np.errstate(all="ignore"):
        return energies - energies[0], factors - factors[0]


def reference_fit(band: BandData, qp: QParameter | None):
    """(A, chi2, rms, residuals) of the closed-form fit, or the exception raised."""
    e, f = _referenced(band, qp)
    with np.errstate(all="ignore"):
        sff = float(f @ f)
        if sff == 0.0:
            raise FitError(f"band '{band.name}' has no spread in the model term")
        A = float(e @ f) / sff
        if A <= 0.0:
            raise FitError(f"fitted A = {A:.4g} keV is not positive for band '{band.name}'")
        diffs = e - A * f
        chi2 = float(np.sum((diffs / KEV_PER_MEV) ** 2))
        rms = KEV_PER_MEV * math.sqrt(chi2 / len(band.levels)) if math.isfinite(chi2) else math.nan
    if not (math.isfinite(A) and math.isfinite(chi2) and math.isfinite(rms)):
        raise FitError(f"band '{band.name}' has no finite fit: A, chi2 or rms is not finite")
    # the subtraction's rounding error against the factors it leaves: under
    # six significant digits fail
    if np.finfo(float).eps * np.max(np.abs(_unreferenced(band, qp))) > 1e-6 * np.max(np.abs(f)):
        raise FitError(f"band '{band.name}' has no accurate fit: "
                       "its eigenvalue factors keep under 6 significant digits")
    head = band.energies[0]
    residuals = tuple(
        LevelResidual(j, float(exp), float(head + A * fv), float(d))
        for j, exp, fv, d in zip(band.spins, band.energies, f, diffs)
    )
    return A, chi2, rms, residuals


def reference_compare(band: BandData, classical_only: bool = False):
    """(deformed fit or None, classical fit) as ``reference_fit`` tuples,
    checked classical first, then deformed."""
    fit_cl = reference_fit(band, None)
    if classical_only:
        return None, fit_cl
    return reference_fit(band, q_parameter_from_band(band)), fit_cl


def fit_A_oracle(band: BandData, qp: QParameter | None, grid: tuple[float, float, int]) -> float:
    """Brute-force verifier of the closed-form A: exhaustive grid scan over A
    followed by a golden-section refinement inside the bracketing interval.

    ``grid`` is (A_lo, A_hi, n) with n >= 1000 subintervals.  Raises
    FitError if the scan minimum sits on the grid boundary, since the true
    optimum is then not bracketed.
    """
    a_lo, a_hi, n = grid
    if not a_lo < a_hi:
        raise ValueError(f"need A_lo < A_hi, got ({a_lo}, {a_hi})")
    if n < 1000:
        raise ValueError(f"need at least 1000 grid points, got {n}")
    e, f = _referenced(band, qp)

    a_grid = np.linspace(a_lo, a_hi, n + 1)
    chi2s = np.sum((e[None, :] - a_grid[:, None] * f[None, :]) ** 2, axis=1)
    k = int(np.argmin(chi2s))
    if k == 0 or k == n:
        raise FitError(f"objective minimum lies on the grid boundary near A={a_grid[k]:.4g}")

    def objective(a: float) -> float:
        return float(np.sum((e - a * f) ** 2))

    lo, hi = float(a_grid[k - 1]), float(a_grid[k + 1])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = objective(c), objective(d)
    while hi - lo > 1e-12 * max(1.0, abs(a_grid[k])):
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = objective(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = objective(d)
    return 0.5 * (lo + hi)
