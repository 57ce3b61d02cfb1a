"""Finite angle / angular-momentum phase space and its identity checks.

An odd-dimensional space spanned by |m>, m = -l..l, carries a complete
orthonormal grid of angle states |theta_n>.  The exponentiated angle
operator is built here from its defining spectral sum over that grid, so
that its closed form (a one-step cyclic raising matrix) and the exchange
relation with the diagonal shift q^{Jz} can be verified against it
numerically rather than assumed.

The angle-state components A[n, m] = exp(-i*m*theta_n)/sqrt(D) are a
discrete Fourier transform up to diagonal phases (the Pegg-Barnett finite
phase space), so A is built from the D roots of unity, indexed by n*m mod D,
and one phase row.  Every D x D product below has A or conj(A) as one
factor, applied by an in-place FFT along rows in O(D^2 log D); the other
factor is the explicit matrix under test.  Each product is still formed in
full and all D^2 entries are compared with the identity or the raising
matrix.  A space stores two D x D matrices, read-only; a check works in one
D x D buffer of its own, plus the modulus array of the max-norm.

Sign convention: this module uses the shift phase q = exp(-i*tau), the
natural one for the angle grid.  Energy formulas elsewhere use the real
bracket ``qnum.bracket``, which is insensitive to the sign of tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qnum import QParameter, max_abs

__all__ = [
    "MAX_DENSE_DIM",
    "BPSpace",
    "build_space",
    "check_quantum_plane",
    "check_cyclic_shift",
    "check_unitarity",
    "check_angle_orthonormality",
    "check_angle_completeness",
    "check_angle_cycling",
    "check_shift_power",
]

# Dense-matrix cap; verification runs at small dimensions and real bands
# stay near 10^3, so dense storage is always tractable.
MAX_DENSE_DIM = 1001


@dataclass(frozen=True)
class BPSpace:
    """Matrix realization of the finite angle phase space.

    Basis ordering is m = -l..l (ascending).  ``theta0`` is the reference
    angle of the angle grid; ``angle_basis[n]`` holds the components of the
    n-th angle state over that basis; ``exp_iphi`` is the exponentiated angle
    operator and ``q_jz`` the diagonal of the shift q^{Jz}.
    """

    qp: QParameter
    theta0: float
    exp_iphi: np.ndarray
    q_jz: np.ndarray
    angle_basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.qp.dim

    @property
    def m_values(self) -> np.ndarray:
        return np.arange(self.dim, dtype=float) - (self.dim - 1) // 2


def _angles(dim: int, theta0: float) -> np.ndarray:
    return theta0 + 2.0 * math.pi * np.arange(dim) / dim


def _roots(dim: int) -> np.ndarray:
    """w_k = exp(-2*pi*i*k/D) for k < D: the D values exp(-2*pi*i*n*m/D)
    takes over integers n and m, at k = n*m mod D."""
    return np.exp(-2j * math.pi * np.arange(dim) / dim)


def _dft_phases(dim: int, theta0: float) -> tuple[np.ndarray, np.ndarray]:
    """s_n and p_m in A = diag(s) F diag(p) / sqrt(D), F the ``np.fft.fft``
    kernel; s_n = conj(w_k) at k = l*n mod D."""
    l = (dim - 1) // 2
    s = _roots(dim)[(l * np.arange(dim)) % dim].conj()
    return s, np.exp(-1j * theta0 * np.arange(-l, l + 1))


def _times_angle_transpose(x: np.ndarray, theta0: float) -> np.ndarray:
    """x @ A.T, as A.T = diag(p) F diag(s) / sqrt(D); the row-contiguous
    buffer ``x``, owned by the caller, is transformed in place and returned."""
    s, p = _dft_phases(x.shape[-1], theta0)
    x *= p
    np.fft.fft(x, axis=-1, out=x)
    x *= s / math.sqrt(len(s))
    return x


def _times_weighted_conj_angle(x: np.ndarray, weight: np.ndarray | float, theta0: float) -> np.ndarray:
    """x @ diag(weight) @ conj(A), as conj(A) = diag(conj(s)) conj(F)
    diag(conj(p)) / sqrt(D) and conj(F) / D is the ``np.fft.ifft`` kernel.
    Like ``_times_angle_transpose``, it transforms the row-contiguous buffer
    ``x`` in place and returns it."""
    s, p = _dft_phases(x.shape[-1], theta0)
    x *= weight * s.conj()
    np.fft.ifft(x, axis=-1, out=x)
    x *= math.sqrt(len(s)) * p.conj()
    return x


def build_space(l: float, theta0: float = 0.0) -> BPSpace:
    """Construct the (2l+1)-dimensional space with its operator matrices.

    The angle states are |theta_n> with components exp(-i*m*theta_n)/sqrt(D)
    and theta_n = theta0 + 2*pi*n/D, that is exp(-i*m*theta0) * w_k / sqrt(D)
    with w_k the D-th root of unity at k = n*m mod D.  The exponentiated
    angle operator is assembled from its spectral sum over these states;
    q^{Jz} is diagonal with entries exp(-i*m*2*pi/D).  The three arrays are
    read-only.

    Raises ValueError for l off the half-integer grid, for 2l+1 even or
    outside 3..MAX_DENSE_DIM, and for a non-finite theta0.
    """
    twol = round(2 * l)
    if abs(2 * l - twol) > 1e-9:
        raise ValueError(f"l must be an integer or half-integer, got {l}")
    dim = twol + 1
    if dim > MAX_DENSE_DIM:
        raise ValueError(f"2l+1 = {dim} exceeds the dense-matrix cap {MAX_DENSE_DIM}")
    qp = QParameter.from_dim(dim)
    if not math.isfinite(theta0):
        raise ValueError(f"theta0 must be finite, got {theta0}")

    m = np.arange(dim) - (dim - 1) // 2
    angle_basis = _roots(dim)[np.multiply.outer(np.arange(dim), m) % dim]
    angle_basis *= _dft_phases(dim, theta0)[1] / math.sqrt(dim)

    # exp(i*Phi) = sum_n exp(i*theta_n) |theta_n><theta_n| = A^T diag(exp(i*theta)) conj(A)
    exp_iphi = _times_weighted_conj_angle(angle_basis.T.copy(), np.exp(1j * _angles(dim, theta0)), theta0)

    q_jz = np.exp(-1j * qp.tau * m)

    for array in (angle_basis, exp_iphi, q_jz):
        array.setflags(write=False)
    return BPSpace(qp=qp, theta0=theta0, exp_iphi=exp_iphi, q_jz=q_jz, angle_basis=angle_basis)


def _identity_deviation(product: np.ndarray) -> float:
    """Max-norm of ``product`` minus identity; ``product`` is overwritten."""
    product.flat[:: len(product) + 1] -= 1.0
    return max_abs(product)


def check_quantum_plane(space: BPSpace) -> float:
    """Max-norm deviation of q^{Jz} e^{iPhi} - q e^{iPhi} q^{Jz} from zero,
    formed entrywise as (q_i - q*q_j) * e^{iPhi}_ij."""
    q = np.exp(-1j * space.qp.tau)
    deviation = np.subtract.outer(space.q_jz, q * space.q_jz)
    deviation *= space.exp_iphi
    return max_abs(deviation)


def check_cyclic_shift(space: BPSpace) -> float:
    """Max-norm deviation of exp_iphi from the one-step cyclic raising matrix,
    whose wrap-around corner carries the phase exp(i*D*theta0)."""
    dim = space.dim
    deviation = space.exp_iphi.copy()
    deviation.flat[dim :: dim + 1] -= 1.0
    deviation[0, dim - 1] -= np.exp(1j * dim * space.theta0)
    return max_abs(deviation)


def check_unitarity(space: BPSpace) -> float:
    """Max-norm deviation of U U^dagger from identity for U = exp_iphi, with
    U^dagger = A^T diag(exp(-i*theta)) conj(A), and of |q_m|^2 from one."""
    theta0 = space.theta0
    w_bar = np.exp(-1j * _angles(space.dim, theta0))
    product = _times_weighted_conj_angle(_times_angle_transpose(space.exp_iphi.copy(), theta0), w_bar, theta0)
    d1 = _identity_deviation(product)
    d2 = max_abs(np.abs(space.q_jz) ** 2 - 1.0)
    return max(d1, d2)


def check_angle_orthonormality(space: BPSpace) -> float:
    """Max-norm deviation of the angle-state Gram matrix from identity, taken
    on its transpose (A A^dagger)^T = conj(A) A^T."""
    return _identity_deviation(_times_angle_transpose(space.angle_basis.conj(), space.theta0))


def check_angle_completeness(space: BPSpace) -> float:
    """Max-norm deviation of sum_n |theta_n><theta_n| = A^T conj(A) from identity."""
    return _identity_deviation(_times_weighted_conj_angle(space.angle_basis.T.copy(), 1.0, space.theta0))


def check_angle_cycling(space: BPSpace) -> float:
    """q^{Jz} permutes angle states cyclically: |theta_n> -> |theta_{n+1}>.

    Returns the max-norm deviation of the shifted basis from the basis with
    its rows moved up by one; for integer m the wrap-around is phase-free.
    """
    basis = space.angle_basis
    deviation = basis * space.q_jz
    deviation[:-1] -= basis[1:]
    deviation[-1] -= basis[0]
    return max_abs(deviation)


def check_shift_power(space: BPSpace) -> float:
    """(exp_iphi)^D equals exp(i*D*theta0) times identity."""
    powered = np.linalg.matrix_power(space.exp_iphi, space.dim)
    target = np.exp(1j * space.dim * space.theta0) * np.eye(space.dim)
    return max_abs(powered - target)
