"""One-parameter least-squares fit of the inertia parameter A.

Theoretical level energies are linear in A once both sides are referenced
to the band head, so the least-squares optimum has the closed form
A* = sum(e*f)/sum(f*f) with e the referenced experimental energies and
f the referenced eigenvalue factors.  Energies are handled in keV; following the reporting
convention, chi-squared is quoted in MeV^2.

Every fit goes through one columnar kernel over ``model.Bands``, the one
level-column type, which the batch reader fills directly or gathers from
BandData objects once.  ``factors`` forms the eigenvalue factors from
``qnum.bracket`` over a tau matrix, one row per variant (0.0 for the j(j+1)
baseline), and makes each band's regime and six-digit tests there, once;
the per-band sums come from ``Bands.sums``.  ``_failure`` alone orders the
checks a failing fit breaks, for the kernel and ``chi2_at`` alike.  The
kernel takes odd space dimensions (0: the baseline), one row per variant,
and returns its columns as a ``Fits``, the one input of the report writers;
``compare_batch`` runs it over the baseline and ``model.space_dims`` and
builds no ``QParameter``.  ``fit_A`` and ``compare`` are its one-band cases,
which build a ``FitResult`` per row and raise the band's first failure;
``compare`` fits both variants in one pass.  A ``FitResult`` is the value
(A, chi2, rms, qp): per-level residuals are read from ``Fits.residuals``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import BandData, Bands, _check_inertia, space_dims
from .qnum import QParameter, RegimeError, bracket, in_regime

__all__ = [
    "Variant",
    "FitError",
    "FitResult",
    "Fits",
    "fit_A",
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


def factors(bands: Bands, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Head-referenced eigenvalue factors f = [j][j+1] - [j0][j0+1] at each
    band's ``tau`` (0.0: j(j+1)), whether each band is in regime, and whether
    its factors keep six significant digits: 4*eps*max|[j][j+1]|, a bound on
    the rounding error the head subtraction can leave in them (2.67 at worst
    against a 50-digit oracle, in units of eps*max|[j][j+1]|), is at most
    1e-6*max|f|.  ``tau`` holds one value per band, or one row per variant."""
    t = np.repeat(tau, bands.counts, axis=-1)
    with np.errstate(all="ignore"):
        f = bracket(bands.j, t) * bracket(bands.j + 1.0, t)
        peak = np.maximum.reduceat(abs(f), bands.starts, axis=-1)
        f -= bands.head(f)
        accurate = 4.0 * np.finfo(float).eps * peak <= 1e-6 * np.maximum.reduceat(abs(f), bands.starts, axis=-1)
        return f, in_regime(tau, bands.j[bands.starts + bands.counts - 1]), accurate


def score(bands: Bands, f: np.ndarray, A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-band chi2 in MeV^2 and rms in keV at inertia parameters A, row by row."""
    with np.errstate(all="ignore"):
        diffs = (bands.de - np.repeat(A, bands.counts, axis=-1) * f) / KEV_PER_MEV
        chi2 = bands.sums(diffs**2)
        return chi2, KEV_PER_MEV * np.sqrt(chi2 / bands.counts)


@dataclass(frozen=True)
class FitResult:
    """Fitted A with its goodness-of-fit numbers for one model variant.

    ``chi2`` is the sum of squared residuals in MeV^2, ``rms`` the
    root-mean-square deviation sqrt(chi2/N) in keV over the N fitted
    levels.  ``qp`` is None for the classical variant, which ``variant``
    reads.
    """

    A: float
    chi2: float
    rms: float
    qp: QParameter | None

    @property
    def variant(self) -> Variant:
        return Variant.CLASSICAL if self.qp is None else Variant.Q_DEFORMED


def _failure(name: str, dim: int, regime: bool, A: float, finite: bool) -> FitError | RegimeError:
    """The first check a failing fit at ``dim`` breaks: regime, A > 0, finite
    results, eigenvalue factors that did not cancel (``factors``' six-digit mask)."""
    if not regime:
        return RegimeError(f"tau*(j_max+1) >= pi for band '{name}' at dim={dim}")
    if A <= 0.0:
        return FitError(f"fitted A = {A:.4g} keV is not positive for band '{name}'")
    if not finite:
        return FitError(f"band '{name}' has no finite fit: A, chi2 or rms is not finite")
    return FitError(f"band '{name}' has no accurate fit: its eigenvalue factors keep under 6 significant digits")


class Fits:
    """The fits of a batch of bands as columns, one row per row of the tau
    matrix: per row and band the odd space dimension (``dims``, 0 for the j(j+1)
    baseline), ``tau``, ``A`` in keV, ``chi2`` in MeV^2 and ``rms`` in keV;
    per row and level the head-referenced eigenvalue factors ``f``; and per
    row the first check each failing band fails, by band index.  From
    ``compare_batch``, row 0 is the j(j+1) baseline and row 1, if any, the
    deformed fits.  A band that ``shown`` returns passed every row's checks."""

    __slots__ = ("bands", "dims", "tau", "f", "A", "chi2", "rms", "failures")

    def __init__(self, bands: Bands, dims, tau, f, A, chi2, rms, failures: list[dict[int, ValueError]]):
        self.bands, self.dims, self.tau, self.f = bands, dims, tau, f
        self.A, self.chi2, self.rms, self.failures = A, chi2, rms, failures

    def failed(self) -> dict[int, ValueError]:
        """Each failing band's first failure, row 0's first."""
        first: dict[int, ValueError] = {}
        for failures in reversed(self.failures):
            first.update(failures)
        return first

    def shown(self) -> np.ndarray:
        """The indices of the bands with no failed fit, in batch order."""
        kept = np.ones(len(self.bands), dtype=bool)
        kept[list(self.failed())] = False
        return np.flatnonzero(kept)

    def residuals(self) -> tuple[np.ndarray, np.ndarray]:
        """Per row and level, the theoretical energy on the experimental band
        head and the experimental minus theoretical energy, in keV."""
        bands = self.bands
        with np.errstate(all="ignore"):
            model = np.repeat(self.A, bands.counts, axis=-1) * self.f
            return bands.head(bands.e) + model, bands.de - model


def _fit(bands: Bands, dims) -> Fits:
    """The kernel: closed-form A, chi2 and rms of every band at once for each
    row of odd space dimensions ``dims`` (0: the j(j+1) baseline; tau = 2*pi/dim,
    as ``QParameter.tau``), and per row the first check each failing band fails."""
    dims = np.asarray(dims)  # int64; object only for a library dimension past it
    tau = (2.0 * np.pi / np.where(dims == 0, np.inf, dims)).astype(float, copy=False)
    f, regime, accurate = factors(bands, tau)
    with np.errstate(all="ignore"):
        A = bands.sums(bands.de * f) / bands.sums(f * f)
    chi2, rms = score(bands, f, A)
    finite = np.isfinite(A) & np.isfinite(chi2) & np.isfinite(rms)
    ok = regime & (A > 0.0) & finite & accurate
    failures: list[dict[int, ValueError]] = [{} for _ in dims]
    for r, k in np.argwhere(~ok).tolist():
        failures[r][k] = _failure(bands.names[k], int(dims[r, k]), regime[r, k], float(A[r, k]), finite[r, k])
    return Fits(bands, dims, tau, f, A, chi2, rms, failures)


def _outcomes(fits: Fits, r: int) -> list[FitResult | FitError | RegimeError]:
    """Row ``r`` of the kernel's columns per band: its FitResult, or the
    first check it fails."""
    failures = fits.failures[r]
    columns = zip(fits.dims[r].tolist(), fits.A[r].tolist(), fits.chi2[r].tolist(), fits.rms[r].tolist())
    return [failures.get(k) or FitResult(a, c, s, QParameter(d) if d else None)
            for k, (d, a, c, s) in enumerate(columns)]


def _one_band(fits: Fits) -> list[FitResult]:
    """The FitResult of each row of a one-band ``fits``; raises the band's
    first failure, row 0's first."""
    if 0 in (failed := fits.failed()):
        raise failed[0]
    return [_outcomes(fits, r)[0] for r in range(len(fits.dims))]


def fit_A(band: BandData, qp: QParameter | None) -> FitResult:
    """Closed-form least-squares fit of A over the band's levels at the
    deformation ``qp`` (None: the j(j+1) baseline): the one-band case of the
    kernel.

    Raises RegimeError when tau*(j_max+1) >= pi, FitError when the optimum
    lands at a nonpositive A (unphysical inertia), when A, chi2 or rms is
    not finite, or when the head subtraction in the eigenvalue factors
    leaves fewer than six significant digits, as ``factors`` tests:
    4*eps*max|[j][j+1]| exceeds 1e-6*max|f|.  Bands fitted with the tau rule
    keep more than six even at the spin cap; a tau picked by hand near the
    top of the [j][j+1] arch, at huge spins, can leave none.
    """
    return _one_band(_fit(Bands.of([band]), [[0 if qp is None else qp.dim]]))[0]


def compare_batch(bands: Sequence[BandData], classical_only: bool = False) -> Fits:
    """The kernel over a batch (a list of BandData or a ``Bands``) and two
    tau rows, the j(j+1) baseline and the tau rule's, or the baseline alone
    when ``classical_only``: the columns the report writers take.

    With tau from the rule, a valid band never leaves the regime: its
    three levels or more give j_max >= 2s, s the spin
    step, so dim >= 6*j_max - 6s + 3 >= 3*j_max + 3 > 2*(j_max + 1), and
    tau*(j_max + 1)/pi = 2*(j_max + 1)/dim is at most 2/3.  The RegimeError
    branch stays for library callers who pick tau by hand.
    """
    bands = Bands.of(bands)
    baseline = np.zeros(len(bands), dtype=np.int64)
    return _fit(bands, [baseline] if classical_only else [baseline, space_dims(bands)])


def compare(band: BandData) -> tuple[FitResult, FitResult]:
    """Fit both variants: deformed with tau fixed by the band's spin
    content, and the undeformed j(j+1) baseline; raises the band's first
    failure, the baseline's first."""
    fit_cl, fit_q = _one_band(compare_batch([band]))
    return fit_q, fit_cl


def chi2_at(band: BandData, qp: QParameter | None, A: float) -> float:
    """Least-squares objective at a given finite A > 0, in MeV^2; ValueError if it overflows,
    and the RegimeError or FitError of ``fit_A`` if the band is out of regime or its
    eigenvalue factors keep under six digits."""
    _check_inertia(A)
    bands, tau = Bands.of([band]), np.array([0.0 if qp is None else qp.tau])
    f, regime, accurate = factors(bands, tau)
    if not (regime[0] and accurate[0]):
        raise _failure(band.name, 0 if qp is None else qp.dim, regime[0], A, finite=True)
    chi2 = score(bands, f, np.array([A], dtype=float))[0][0]
    if not np.isfinite(chi2):
        raise ValueError(f"chi2 at A={A} overflows for band '{band.name}'")
    return float(chi2)
