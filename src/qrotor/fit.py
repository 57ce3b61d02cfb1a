"""One-parameter least-squares fit of the inertia parameter A.

Theoretical level energies are linear in A once both sides are referenced
to the band head, so the least-squares optimum has the closed form
A* = sum(e*f)/sum(f*f) with e the referenced experimental energies and
f the referenced eigenvalue factors.  Energies are handled in keV; following the reporting
convention, chi-squared is quoted in MeV^2.

Every fit goes through one columnar kernel over ``model.Bands``, the one
level-column type, which the batch reader fills directly or gathers from
BandData objects once.  The eigenvalue factors come from ``qnum.bracket``
over a per-band tau column (0.0 for the j(j+1) baseline), and the per-band
sums from ``Bands.sums``.  ``fit_A`` and ``compare`` are its one-band cases.
A ``FitResult`` holds its ``Bands`` and builds per-level residuals from the
columns only when read.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .model import BandData, Bands, q_parameters
from .qnum import QParameter, RegimeError, bracket, in_regime

__all__ = [
    "Variant",
    "FitError",
    "FitResult",
    "fit_A",
    "fit_batch",
    "chi2_at",
    "compare",
    "compare_batch",
]

KEV_PER_MEV = 1000.0


class Variant(enum.Enum):
    Q_DEFORMED = "q_deformed"
    CLASSICAL = "classical"


class FitError(ValueError):
    """The band admits no physical one-parameter fit."""


def factors(bands: Bands, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Head-referenced eigenvalue factors [j][j+1] at each band's ``tau``
    (0.0: j(j+1)), and per band whether it is in regime."""
    t = np.repeat(tau, bands.counts)
    with np.errstate(all="ignore"):
        f = bracket(bands.j, t) * bracket(bands.j + 1.0, t)
        f -= bands.head(f)
        return f, in_regime(tau, bands.j[bands.starts + bands.counts - 1])


def score(bands: Bands, f: np.ndarray, A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-band chi2 in MeV^2 and rms in keV at inertia parameters A."""
    with np.errstate(all="ignore"):
        diffs = (bands.de - np.repeat(A, bands.counts) * f) / KEV_PER_MEV
        chi2 = bands.sums(diffs**2)
        return chi2, KEV_PER_MEV * np.sqrt(chi2 / bands.counts)


@dataclass(frozen=True)
class FitResult:
    """Fitted A with its goodness-of-fit numbers for one model variant.

    ``chi2`` is the sum of squared residuals in MeV^2, ``rms`` the
    root-mean-square deviation sqrt(chi2/N) in keV over the N fitted
    levels.  ``qp`` is None for the classical variant, which ``variant``
    reads.  ``residual_columns`` is computed from the batch columns each
    time it is read.
    """

    A: float
    chi2: float
    rms: float
    qp: QParameter | None
    _bands: Bands = field(repr=False, compare=False)
    _factors: np.ndarray = field(repr=False, compare=False)
    _band: int = field(repr=False, compare=False)

    @property
    def variant(self) -> Variant:
        return Variant.CLASSICAL if self.qp is None else Variant.Q_DEFORMED

    def residual_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The band's levels as float columns: spin j, experimental energy,
        theoretical energy (on the experimental band head) and their
        difference, all in keV."""
        bands = self._bands
        lo = int(bands.starts[self._band])
        hi = lo + int(bands.counts[self._band])
        f = self._factors[lo:hi]
        theo = bands.e[lo] + self.A * f
        diffs = bands.de[lo:hi] - self.A * f
        return bands.j[lo:hi], bands.e[lo:hi], theo, diffs


def _regime_error(band: BandData, qp: QParameter) -> RegimeError:
    return RegimeError(f"tau*(j_max+1) >= pi for band '{band.name}' at dim={qp.dim}")


def _tau_column(qps: Sequence[QParameter | None]) -> np.ndarray:
    return np.fromiter((0.0 if qp is None else qp.tau for qp in qps), float, len(qps))


def _fit(bands: Bands, qps: Sequence[QParameter | None]) -> list[FitResult | FitError | RegimeError]:
    """The kernel: closed-form A, chi2 and rms of every band at once, at
    each band's tau, then each band's checks in order (regime, spread,
    A > 0, finite results)."""
    f, regime = factors(bands, _tau_column(qps))
    with np.errstate(all="ignore"):
        sff = bands.sums(f * f)
        A = bands.sums(bands.de * f) / sff
    chi2, rms = score(bands, f, A)
    ok = regime & (sff != 0.0) & (A > 0.0) & np.isfinite(A) & np.isfinite(chi2) & np.isfinite(rms)

    results: list[FitResult | FitError | RegimeError] = []
    for k, (passed, qp, a, c, r) in enumerate(zip(ok.tolist(), qps, A.tolist(), chi2.tolist(), rms.tolist())):
        if passed:
            results.append(FitResult(a, c, r, qp, bands, f, k))
            continue
        band = bands[k]
        if not regime[k]:
            results.append(_regime_error(band, qp))
        elif sff[k] == 0.0:
            results.append(FitError(f"band '{band.name}' has no spread in the model term"))
        elif a <= 0.0:
            results.append(FitError(f"fitted A = {a:.4g} keV is not positive for band '{band.name}'"))
        else:
            results.append(FitError(f"band '{band.name}' has no finite fit: A, chi2 or rms overflows"))
    return results


def fit_batch(
    bands: Sequence[BandData], qps: Sequence[QParameter | None]
) -> list[FitResult | FitError | RegimeError]:
    """Closed-form least-squares fit of A for every band, band k with the
    deformation ``qps[k]`` (None: the j(j+1) baseline), in one columnar pass.

    Returns, per band, its FitResult or the exception ``fit_A`` raises for
    it: RegimeError when tau*(j_max+1) >= pi, FitError when the eigenvalue
    factors have no spread, when the optimum lands at a nonpositive A
    (unphysical inertia), or when A, chi2 or rms is not finite.
    """
    if len(bands) != len(qps):
        raise ValueError(f"got {len(bands)} bands but {len(qps)} deformation parameters")
    return _fit(Bands.of(bands), qps)


def fit_A(band: BandData, qp: QParameter | None) -> FitResult:
    """Closed-form least-squares fit of A over the band's levels: the
    one-band case of ``fit_batch``, raising what it returns for the band."""
    result = fit_batch([band], [qp])[0]
    if isinstance(result, ValueError):
        raise result
    return result


def compare_batch(
    bands: Sequence[BandData], classical_only: bool = False
) -> list[tuple[FitResult | None, FitResult] | ValueError]:
    """``compare`` over a batch: per band (deformed fit, or None when
    ``classical_only``; classical fit), or the first exception its checks
    raise, in the order classical FitError, BandError from the tau rule,
    RegimeError, deformed FitError.

    With tau from the rule, a valid band never leaves the regime: its
    three levels or more give j_max >= 2s, s the spin
    step, so dim >= 6*j_max - 6s + 3 >= 3*j_max + 3 > 2*(j_max + 1), and
    tau*(j_max + 1)/pi = 2*(j_max + 1)/dim is at most 2/3.  The RegimeError
    branch stays for library callers who pick tau by hand.
    """
    bands = Bands.of(bands)
    classical = _fit(bands, [None] * len(bands))
    if classical_only:
        return [fit if isinstance(fit, ValueError) else (None, fit) for fit in classical]

    qps = [None if isinstance(fit, ValueError) else qp for qp, fit in zip(q_parameters(bands), classical)]
    # Bands that already failed are fitted classically here; that result is dropped.
    deformed = _fit(bands, [qp if isinstance(qp, QParameter) else None for qp in qps])
    outcomes: list[tuple[FitResult | None, FitResult] | ValueError] = []
    for fit_cl, qp, fit_q in zip(classical, qps, deformed):
        failures = [x for x in (fit_cl, qp, fit_q) if isinstance(x, ValueError)]
        outcomes.append(failures[0] if failures else (fit_q, fit_cl))
    return outcomes


def compare(band: BandData) -> tuple[FitResult, FitResult]:
    """Fit both variants: deformed with tau fixed by the band's spin
    content, and the undeformed j(j+1) baseline."""
    outcome = compare_batch([band])[0]
    if isinstance(outcome, ValueError):
        raise outcome
    return outcome


def chi2_at(band: BandData, qp: QParameter | None, A: float) -> float:
    """Least-squares objective at a given A, in MeV^2."""
    bands = Bands.of([band])
    f, regime = factors(bands, _tau_column([qp]))
    if not regime[0]:
        raise _regime_error(band, qp)
    chi2, _ = score(bands, f, np.array([A], dtype=float))
    return float(chi2[0])
