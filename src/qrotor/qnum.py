"""q-number arithmetic for a pure-phase deformation parameter.

The deformed number [x] = sin(tau*x)/sin(tau) is real for q = exp(i*tau)
on the unit circle and reduces to the ordinary number x as tau -> 0.
``bracket`` is the one place it is computed: elementwise over arrays of x
and tau, with tau = 0 giving x itself, so band energies, fits over a tau
column and irrep matrices all share it.  ``in_regime`` is the one test of
the monotone regime tau*(j_max+1) < pi.  Everything here is a pure
function of immutable values.
"""

from __future__ import annotations

import math
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
    if dim != int(dim) or dim < 3 or dim % 2 == 0:
        raise ValueError(f"space dimension must be an odd integer >= 3, got {dim}")


@dataclass(frozen=True)
class QParameter:
    """Deformation parameter tau = 2*pi/dim derived from an odd space dimension.

    tau is stored redundantly next to the dimension it derives from; the
    relation is checked on construction.  theta0 is the reference angle of
    the discrete angle grid and never enters band energies.
    """

    tau: float
    dim: int
    theta0: float = 0.0

    def __post_init__(self):
        _check_dim(self.dim)
        if self.tau != 2.0 * math.pi / self.dim:
            raise ValueError(f"tau={self.tau!r} does not equal 2*pi/{self.dim}")
        if not math.isfinite(self.theta0):
            raise ValueError(f"theta0 must be finite, got {self.theta0}")

    @classmethod
    def from_dim(cls, dim: int, theta0: float = 0.0) -> "QParameter":
        """Build the parameter for a given odd space dimension."""
        _check_dim(dim)
        return cls(tau=2.0 * math.pi / dim, dim=int(dim), theta0=theta0)

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
