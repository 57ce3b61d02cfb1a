"""q-number arithmetic for a pure-phase deformation parameter.

The deformed number [x] = sin(tau*x)/sin(tau) is real for q = exp(i*tau)
on the unit circle and reduces to the ordinary number x as tau -> 0.
``bracket`` is the one place it is computed: elementwise over arrays of x
and tau, with tau = 0 giving x itself, so band energies, fits over a tau
column and irrep matrices all share it.  ``in_regime`` is the one test of
the monotone regime tau*(j_max+1) < pi, and ``twice_spins`` the one test
that spins are finite and on the half-integer grid.  A ``QParameter`` is its
odd space dimension alone, stored as an ``int``; tau = 2*pi/dim is derived
from it on read.  Everything here is a pure function of immutable values.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QParameter",
    "RegimeError",
    "twice_spin",
    "twice_spins",
    "bracket",
    "in_regime",
    "qbracket",
    "casimir_eigenvalue",
]


class RegimeError(ValueError):
    """Parameters left the regime where the model is defined (large space,
    small spin), e.g. a bracket under a square root went negative."""


# Every float at least this large in magnitude is an integer, so its twice
# is exact as a Python int even where 2.0 * spin overflows.
_INTEGRAL_FLOATS = 2.0**52


def twice_spins(spins: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The half-integer grid test over a column of spins: each spin's exact
    twice-spin (0 where the test fails) and whether it passes, that is,
    whether it is finite and within 1e-9 of the half-integer grid.

    The twice-spins are int64 while every spin is below 2**52 in magnitude;
    otherwise they are Python ints, with 2*int(j) for the larger spins.
    """
    spins = np.asarray(spins, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        doubled = np.round(2.0 * spins)
        integral = np.isfinite(spins) & (np.abs(spins) >= _INTEGRAL_FLOATS)
        on_grid = integral | (np.abs(2.0 * spins - doubled) <= 1e-9)
    if not integral.any():
        return np.where(on_grid, doubled, 0.0).astype(np.int64), on_grid
    exact = [2 * int(j) if big else int(d) if ok else 0
             for j, d, big, ok in zip(spins.tolist(), doubled.tolist(), integral.tolist(), on_grid.tolist())]
    return np.array(exact, dtype=object), on_grid


def twice_spin(j: float) -> int:
    """Convert a decimal spin (integer or half-integer) to a twice-spin int:
    the one-spin case of ``twice_spins``."""
    value = float(j)
    twoj, on_grid = twice_spins(np.array([value]))
    if not math.isfinite(value):
        raise ValueError(f"spin must be finite, got {j}")
    if not on_grid[0]:
        raise ValueError(f"spin must be an integer or half-integer, got {j}")
    return int(twoj[0])


def _check_dim(dim) -> None:
    if not (3 <= dim <= sys.float_info.max and dim == int(dim) and dim % 2 == 1):
        raise ValueError(f"space dimension must be an odd integer from 3 to {sys.float_info.max:g}, got {_shown(dim)}")


def _shown(value) -> str:
    """``value`` as text, or the digit count of an integer too long to print."""
    if not isinstance(value, int) or value.bit_length() <= 64:
        return f"{value}"
    digits = int(value.bit_length() * math.log10(2)) + 1  # one too many at most
    return f"an integer of {digits - (abs(value) < 10 ** (digits - 1))} digits"


@dataclass(frozen=True)
class QParameter:
    """Deformation parameter of an odd space dimension: tau = 2*pi/dim,
    derived on read."""

    dim: int

    def __post_init__(self):
        _check_dim(self.dim)
        object.__setattr__(self, "dim", int(self.dim))

    @classmethod
    def from_dim(cls, dim: int) -> "QParameter":
        """Build the parameter for a given odd space dimension."""
        return cls(dim)

    @property
    def tau(self) -> float:
        return 2.0 * math.pi / self.dim

    @property
    def q(self) -> complex:
        """The pure-phase deformation q = exp(i*tau)."""
        return complex(math.cos(self.tau), math.sin(self.tau))


def bracket(x, tau) -> np.ndarray:
    """Deformed number [x] = sin(tau*x)/sin(tau), elementwise over the
    broadcast of ``x`` and ``tau``; exactly x where tau == 0.

    Exact at the anchors: [0] = 0 and [1] = 1.  Antisymmetric in x.
    Raises ValueError if any x is not finite.
    """
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError(f"bracket argument must be finite, got {x[~np.isfinite(x)].flat[0]}")
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(tau == 0.0, x, np.sin(tau * x) / np.sin(tau))


def in_regime(tau, j_max):
    """Whether tau*(j_max+1) < pi, the monotone regime where the model's
    levels are defined; elementwise over arrays, and true at tau = 0 for
    any finite j_max."""
    return tau * (j_max + 1.0) < math.pi


def max_abs(a: np.ndarray) -> float:
    """Max-norm of an array: the deviation every identity check reports."""
    return float(np.max(np.abs(a)))


def qbracket(x: float, qp: QParameter) -> float:
    """``bracket`` of one finite real x at the deformation ``qp``, as a float."""
    return float(bracket(x, qp.tau))


def casimir_eigenvalue(j: float, qp: QParameter | None) -> float:
    """Invariant-operator eigenvalue [j][j+1] on the spin-j multiplet.

    With ``qp=None`` returns the undeformed j*(j+1).
    """
    if not (j >= 0):
        raise ValueError(f"spin must be nonnegative, got {j}")
    tau = 0.0 if qp is None else qp.tau
    return float(bracket(j, tau) * bracket(j + 1.0, tau))
