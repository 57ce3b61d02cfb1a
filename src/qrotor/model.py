"""The q-rotor model: space-size rule and band energy formula.

A rotational band fixes the deformation a priori: the embedding space must
be just large enough to contain the multiplets of every observed level,

    dim = sum over observed j of (2j+1),  bumped to the next odd number,

and tau = 2*pi/dim.  Level energies are then A*[j][j+1] with a single
inertia parameter A in keV.  Spins are stored internally as twice-spin
integers so half-integer bands need no fractional arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .qnum import QParameter, RegimeError, casimir_eigenvalue, in_regime

__all__ = [
    "BandError",
    "BandData",
    "twice_spin",
    "spin_str",
    "space_size",
    "q_parameter_from_band",
    "energy",
]


class BandError(ValueError):
    """A band violates the level-list invariants; ``level`` is the index of
    the offending level, or None when no single level is at fault."""

    def __init__(self, message: str, level: int | None = None):
        super().__init__(message)
        self.level = level


def twice_spin(j: float) -> int:
    """Convert a decimal spin (integer or half-integer) to a twice-spin int."""
    doubled = 2 * float(j)
    if not math.isfinite(doubled):
        raise ValueError(f"spin must be finite, got {j}")
    twoj = round(doubled)
    if abs(doubled - twoj) > 1e-9:
        raise ValueError(f"spin must be an integer or half-integer, got {j}")
    return int(twoj)


def spin_str(twoj: int) -> str:
    """Decimal text for a twice-spin integer: 4 -> '2', 15 -> '7.5'."""
    if twoj % 2 == 0:
        return str(twoj // 2)
    return f"{twoj / 2:.1f}"


@dataclass(frozen=True)
class BandData:
    """One named rotational band: ordered (twice-spin, energy keV) levels.

    Levels must be at least three, with nonnegative spins increasing by a
    constant step, a head energy >= 0, and finite energies strictly
    increasing with spin.  This is the one place those rules are checked.
    """

    name: str
    levels: tuple[tuple[int, float], ...]

    def __post_init__(self):
        if not self.name:
            raise BandError("band needs a nonempty name")
        # Each level is checked once against its predecessor, so the error
        # names the level whose own spin or energy breaks a rule.  The level
        # count comes last, so a fault in a two-level band still names its level.
        levels = self.levels
        twostep = self.twostep if len(levels) > 1 else 0
        for index, (twoj, e) in enumerate(levels):
            if index == 0:
                if twoj < 0:
                    raise BandError(f"spins must be nonnegative, got {spin_str(twoj)}", index)
                if e < 0:
                    raise BandError(f"lowest level energy must be >= 0, got {e}", index)
            else:
                prev_j, prev_e = levels[index - 1]
                if twoj == prev_j:
                    raise BandError(f"duplicate spin {spin_str(twoj)}", index)
                if twoj < prev_j:
                    raise BandError("spins must be strictly increasing", index)
                if twoj - prev_j != twostep:
                    raise BandError(f"inconsistent spin step: {(twoj - prev_j) / 2} after {twostep / 2}", index)
                if e <= prev_e:
                    raise BandError("energies must be strictly increasing", index)
            if not math.isfinite(e):
                raise BandError(f"energy must be finite, got {e}", index)
        if len(levels) < 3:
            raise BandError(f"band needs at least 3 levels, got {len(levels)}")

    @classmethod
    def from_levels(cls, name: str, levels) -> "BandData":
        """Build from (decimal spin, energy keV) pairs."""
        return cls(name=name, levels=tuple((twice_spin(j), float(e)) for j, e in levels))

    @property
    def j_min(self) -> float:
        return self.levels[0][0] / 2.0

    @property
    def j_max(self) -> float:
        return self.levels[-1][0] / 2.0

    @property
    def twostep(self) -> int:
        """Twice the spin step, from the first two levels."""
        return self.levels[1][0] - self.levels[0][0]

    @property
    def step(self) -> float:
        return self.twostep / 2.0

    @property
    def spins(self) -> tuple[float, ...]:
        return tuple(twoj / 2.0 for twoj, _ in self.levels)

    @property
    def energies(self) -> tuple[float, ...]:
        return tuple(e for _, e in self.levels)


def space_size(j_min: float, j_max: float, step: float) -> int:
    """Odd embedding dimension from a spin range: sum of (2j+1), bumped by
    one if the sum comes out even."""
    a, b, s = twice_spin(j_min), twice_spin(j_max), twice_spin(step)
    if a < 0:
        raise ValueError(f"j_min must be nonnegative, got {j_min}")
    if s <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if b < a or (b - a) % s != 0:
        raise ValueError(f"spin range {j_min}..{j_max} is not aligned with step {step}")
    # n terms of the arithmetic series (a + 1) + (a + 1 + s) + ... of 2j+1
    n = (b - a) // s + 1
    total = n * (a + 1) + s * n * (n - 1) // 2
    if total % 2 == 0:
        total += 1
    return total


def q_parameter_from_band(band: BandData) -> QParameter:
    """Deformation parameter fixed by the band's own spin content."""
    dim = space_size(band.j_min, band.j_max, band.step)
    if dim < 5:
        raise BandError(f"embedding dimension {dim} from band '{band.name}' is too small")
    return QParameter.from_dim(dim)


def energy(j: float, A: float, qp: QParameter | None) -> float:
    """Level energy A*[j][j+1] in keV; undeformed A*j*(j+1) for ``qp=None``.

    Requires A > 0 and, in the deformed case, tau*(j+1) < pi so the band
    stays in the monotone regime.
    """
    if not (A > 0):
        raise ValueError(f"inertia parameter A must be positive, got {A}")
    if qp is not None and not in_regime(qp.tau, j):
        raise RegimeError(
            f"tau*(j+1) = {qp.tau * (j + 1.0):.4f} >= pi at j={j}, dim={qp.dim}; "
            "energies would leave the monotone regime"
        )
    return A * casimir_eigenvalue(j, qp)

