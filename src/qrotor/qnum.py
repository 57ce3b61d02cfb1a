"""q-number arithmetic for a pure-phase deformation parameter.

The deformed number [x] = sin(tau*x)/sin(tau) is real for q = exp(i*tau)
on the unit circle and reduces to the ordinary number x as tau -> 0.
``bracket`` is the one place it is computed: elementwise over arrays of x
and tau, with tau = 0 giving x itself, so band energies, fits over a tau
column and irrep matrices all share it.  ``in_regime`` is the one test of
the monotone regime tau*(j_max+1) < pi, and ``on_grid`` the one test
that a spin is finite, on the half-integer grid and at most ``MAX_SPIN`` in
magnitude, which keeps every twice-spin column int64.  ``MAX_DENSE_DIM``
caps the space dimension of both ``bp_space`` and ``suq2``, and lives here
so that the command line reads it without loading either.  A
``QParameter`` is its odd space dimension alone, an ``int`` below 2**62;
tau = 2*pi/dim is derived from it on read.  Everything here but
``_cores`` is a pure function of immutable values; ``_cores``, the count
of usable cores, lives here so that the phase-space threads of ``bp_space``
and the forked band scan of ``reader`` share it without loading each
other.  numpy loads on the first call of ``bracket`` or ``max_abs``, the
two array functions, not with this module, so the command line parses its
arguments without it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # for the annotations alone
    import numpy as np

__all__ = [
    "MAX_DENSE_DIM",
    "MAX_SPIN",
    "QParameter",
    "RegimeError",
    "on_grid",
    "twice_spin",
    "bracket",
    "in_regime",
    "qbracket",
    "casimir_eigenvalue",
]


class RegimeError(ValueError):
    """Parameters left the regime where the model is defined (large space,
    small spin), e.g. a bracket under a square root went negative."""


# The largest spin magnitude any entry point accepts; physical bands stay
# below j = 100.  With it, a valid band's sum of (2j+1) stays below 2**62.
MAX_SPIN = 2**30

# Largest space dimension, which ``build_space`` and ``build_irrep`` enforce.
# An irrep and shift-power's temporary exp(i*Phi) are dense, 16 MiB per
# complex matrix at the cap; the six checks ``verify`` runs stream row blocks
# and form no D x D array, but keep this cap.
MAX_DENSE_DIM = 1001

# Largest space dimension a ``QParameter`` takes, the tau rule's largest (``model.space_dims``): int64 holds it.
_MAX_DIM = (2 * MAX_SPIN + 1) * (MAX_SPIN + 1)


def on_grid(spin: float) -> int | None:
    """The half-integer grid test: the spin's twice-spin if it is finite, at
    most ``MAX_SPIN`` in magnitude and within 1e-9 of the half-integer grid,
    else None."""
    if not abs(spin) <= MAX_SPIN:  # also NaN
        return None
    twoj = round(2.0 * spin)
    return twoj if abs(2.0 * spin - twoj) <= 1e-9 else None


def _cores() -> int:
    """Cores this process may run on; macOS has no affinity call."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _decimal(token: str, kind: type = float):
    """kind(token) for an ASCII decimal; float() and int() also read "1_0" as 10, and non-ASCII digits."""
    if "_" in token or not token.isascii():
        raise ValueError(token)
    return kind(token)


def _checked_spin(j: float) -> float:
    """``j`` as a float; ValueError naming it if it is not finite or its
    magnitude is above ``MAX_SPIN``."""
    try:
        value = float(j)
    except OverflowError:  # an integer past the largest float
        raise ValueError(f"spin {_shown(j)} exceeds {MAX_SPIN}") from None
    if not math.isfinite(value):
        raise ValueError(f"spin must be finite, got {j}")
    if abs(value) > MAX_SPIN:
        raise ValueError(f"spin {j} exceeds {MAX_SPIN}")
    return value


def twice_spin(j: float) -> int:
    """Convert a decimal spin (integer or half-integer) to a twice-spin int:
    ``on_grid``, raising ValueError where it fails."""
    twoj = on_grid(_checked_spin(j))
    if twoj is None:
        raise ValueError(f"spin must be an integer or half-integer, got {j}")
    return twoj


def _check_dim(dim) -> None:
    if not (3 <= dim <= _MAX_DIM and dim == int(dim) and dim % 2 == 1):
        raise ValueError(f"space dimension must be an odd integer from 3 to {_MAX_DIM}, got {_shown(dim)}")


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
    import numpy as np  # here, so that a run which computes nothing loads no numpy

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
    import numpy as np

    return float(np.max(np.abs(a)))


def qbracket(x: float, qp: QParameter) -> float:
    """``bracket`` of one finite real x at the deformation ``qp``, as a float."""
    return float(bracket(x, qp.tau))


def casimir_eigenvalue(j: float, qp: QParameter | None) -> float:
    """Invariant-operator eigenvalue [j][j+1] on the spin-j multiplet.

    With ``qp=None`` returns the undeformed j*(j+1).  Raises ValueError for
    a spin that is negative, not finite or above ``MAX_SPIN``.
    """
    if _checked_spin(j) < 0:
        raise ValueError(f"spin must be nonnegative, got {j}")
    tau = 0.0 if qp is None else qp.tau
    return float(bracket(j, tau) * bracket(j + 1.0, tau))
