"""Seeded synthetic band corpora and their independent numpy reference.

Bands are written as band-file text directly; nothing here imports
``qrotor``.  The spin mix follows the synthetic bands of the test suite
(head spin, spin step and noise level drawn from the same sets), so every
generated band is valid input: at least three levels, a constant spin
step, strictly increasing energies, and tau*(j_max+1) < pi.

The reference fit is recomputed from the generated numbers alone:
dim = sum of (2j+1) over the arithmetic spin series (bumped to odd),
tau = 2*pi/dim, and A = sum(e*f)/sum(f*f) on head-referenced energies e
and eigenvalue factors f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

J_MINS = (0.0, 1.0, 1.5, 2.0, 3.5, 4.0)
STEPS = (0.5, 1.0, 2.0)
KEV_PER_MEV = 1000.0


@dataclass(frozen=True)
class Fit:
    """Reference fit of one model variant; ``dim`` and ``tau`` are None for
    the undeformed j(j+1) baseline."""

    dim: int | None
    tau: float | None
    A: float
    chi2: float
    rms: float
    theo: np.ndarray
    chi2_scale: float


@dataclass(frozen=True)
class Band:
    name: str
    spins: np.ndarray
    energies: np.ndarray
    q: Fit
    cl: Fit


def space_dim(j_min: float, step: float, count: int) -> int:
    """Sum of (2j+1) over j = j_min + k*step, k < count, bumped to odd."""
    twoj0, twostep = round(2 * j_min), round(2 * step)
    total = count * (twoj0 + 1) + twostep * count * (count - 1) // 2
    return total if total % 2 else total + 1


def _deformed(spins: np.ndarray, tau: float) -> np.ndarray:
    return np.sin(tau * spins) * np.sin(tau * (spins + 1.0)) / math.sin(tau) ** 2


def _fit(spins: np.ndarray, energies: np.ndarray, dim: int | None) -> Fit:
    tau = None if dim is None else 2.0 * math.pi / dim
    factors = spins * (spins + 1.0) if tau is None else _deformed(spins, tau)
    e = energies - energies[0]
    f = factors - factors[0]
    A = float(e @ f) / float(f @ f)
    diffs = e - A * f
    chi2 = float(np.sum((diffs / KEV_PER_MEV) ** 2))
    rms = KEV_PER_MEV * math.sqrt(chi2 / len(spins))
    # chi2 is a difference of terms of this size, so it is only ever
    # accurate relative to it, not relative to itself.
    chi2_scale = float(np.sum((e / KEV_PER_MEV) ** 2))
    return Fit(dim, tau, A, chi2, rms, energies[0] + A * f, chi2_scale)


def spin_text(j: float) -> str:
    return str(int(j)) if j == int(j) else f"{j:.1f}"


def draw_band(rng: np.random.Generator, name: str, min_levels: int, max_levels: int) -> tuple[Band, str]:
    """One random band and its file text.

    Energies follow a0*[j][j+1] at the band's own tau plus Gaussian noise,
    clipped to 45% of the adjacent spacings so the levels stay ordered.
    """
    j_min = float(rng.choice(J_MINS))
    step = float(rng.choice(STEPS))
    count = int(rng.integers(min_levels, max_levels + 1))
    a0 = float(rng.uniform(1.0, 20.0))
    sigma = float(rng.uniform(0.0, 50.0))
    spins = j_min + step * np.arange(count)
    dim = space_dim(j_min, step, count)
    clean = a0 * _deformed(spins, 2.0 * math.pi / dim)
    spacing = np.diff(clean)
    bound = 0.45 * np.minimum(np.r_[spacing[0], spacing], np.r_[spacing, spacing[-1]])
    lo = -bound
    lo[0] = max(lo[0], -clean[0])
    noisy = clean + np.clip(rng.normal(0.0, sigma, count), lo, bound)

    lines = [f"# nucleus: {name}", "# note: synthetic"]
    values = []
    for j, energy in zip(spins, noisy):
        text = f"{energy:.3f}"
        lines.append(f"{spin_text(j)} {text}")
        values.append(float(text))
    energies = np.array(values)
    band = Band(name, spins, energies, _fit(spins, energies, dim), _fit(spins, energies, None))
    return band, "\n".join(lines) + "\n"


def write_corpus(directory: Path, seed: int, n_bands: int, min_levels: int, max_levels: int) -> tuple[list[Band], int]:
    """Write ``n_bands`` band files named so that sorted order is draw order.

    Returns the reference bands in that order and the total bytes written.
    """
    rng = np.random.default_rng(seed)
    directory.mkdir()
    bands = []
    total = 0
    for k in range(n_bands):
        band, text = draw_band(rng, f"s{seed}-{k}", min_levels, max_levels)
        data = text.encode("utf-8")
        (directory / f"b{k:06d}.band").write_bytes(data)
        total += len(data)
        bands.append(band)
    return bands, total
