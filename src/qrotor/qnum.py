"""q-number arithmetic for a pure-phase deformation parameter.

The deformed number [x] = sin(tau*x)/sin(tau) is real for q = exp(i*tau)
on the unit circle and reduces to the ordinary number x as tau -> 0.
``bracket`` is the one place it is computed: elementwise over arrays of x
and tau, with tau = 0 giving x itself, so band energies, fits over a tau
column and irrep matrices all share it.  ``in_regime`` is the one test of
the monotone regime tau*(j_max+1) < pi.  A ``QParameter`` is its odd space
dimension alone; tau = 2*pi/dim is derived from it on read.  Everything
here is a pure function of immutable values.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QParameter",
    "RegimeError",
    "bracket",
    "in_regime",
    "qbracket",
    "casimir_eigenvalue",
]


class RegimeError(ValueError):
    """Parameters left the regime where the model is defined (large space,
    small spin), e.g. a bracket under a square root went negative."""


def _check_dim(dim) -> None:
    if not (3 <= dim <= sys.float_info.max and dim == int(dim) and dim % 2 == 1):
        raise ValueError(f"space dimension must be an odd integer from 3 to {sys.float_info.max:g}, got {dim}")


@dataclass(frozen=True)
class QParameter:
    """Deformation parameter of an odd space dimension: tau = 2*pi/dim,
    derived on read."""

    dim: int

    def __post_init__(self):
        _check_dim(self.dim)

    @classmethod
    def from_dim(cls, dim: int) -> "QParameter":
        """Build the parameter for a given odd space dimension."""
        _check_dim(dim)
        return cls(int(dim))

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
