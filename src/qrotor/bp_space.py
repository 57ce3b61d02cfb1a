"""Finite angle / angular-momentum phase space and its identity checks.

An odd-dimensional space spanned by |m>, m = -l..l, carries a complete
orthonormal grid of angle states |theta_n>.  The exponentiated angle
operator is built here from its defining spectral sum over that grid, so
that its closed form (a one-step cyclic raising matrix) and the exchange
relation with the diagonal shift q^{Jz} can be verified against it
numerically rather than assumed.

The angle-state components A[n, m] = exp(-i*m*theta_n)/sqrt(D) are a
discrete Fourier transform up to diagonal phases (the Pegg-Barnett finite
phase space).  Every D x D product below has A or conj(A) as one factor,
applied by an FFT along rows in O(D^2 log D); the other factor is the
explicit matrix under test.  Each product is still formed in full and all
D^2 entries are compared with the identity or the raising matrix.

Sign convention: this module uses the shift phase q = exp(-i*tau), the
natural one for the angle grid.  Energy formulas elsewhere use the real
bracket ``qnum.bracket``, which is insensitive to the sign of tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qnum import QParameter

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

    Basis ordering is m = -l..l (ascending).  ``angle_basis[n]`` holds the
    components of the n-th angle state over that basis; ``exp_iphi`` is the
    exponentiated angle operator and ``q_jz`` the diagonal of the shift
    q^{Jz}.
    """

    qp: QParameter
    dim: int
    exp_iphi: np.ndarray
    q_jz: np.ndarray
    angle_basis: np.ndarray

    @property
    def m_values(self) -> np.ndarray:
        l = (self.dim - 1) // 2
        return np.arange(-l, l + 1, dtype=float)


def _angles(dim: int, theta0: float) -> np.ndarray:
    return theta0 + 2.0 * math.pi * np.arange(dim) / dim


def _dft_phases(dim: int, theta0: float) -> tuple[np.ndarray, np.ndarray]:
    """s_n and p_m in A = diag(s) F diag(p) / sqrt(D), F the ``np.fft.fft``
    kernel; l*n is reduced modulo D so that s keeps full precision."""
    l = (dim - 1) // 2
    s = np.exp(2j * math.pi * ((l * np.arange(dim)) % dim) / dim)
    return s, np.exp(-1j * theta0 * np.arange(-l, l + 1))


def _times_angle_transpose(x: np.ndarray, theta0: float) -> np.ndarray:
    """x @ A.T, as A.T = diag(p) F diag(s) / sqrt(D)."""
    s, p = _dft_phases(x.shape[-1], theta0)
    out = np.fft.fft(x * p, axis=-1)
    out *= s / math.sqrt(len(s))
    return out


def _times_weighted_conj_angle(x: np.ndarray, weight: np.ndarray | float, theta0: float) -> np.ndarray:
    """x @ diag(weight) @ conj(A), as conj(A) = diag(conj(s)) conj(F)
    diag(conj(p)) / sqrt(D) and conj(F) / D is the ``np.fft.ifft`` kernel.
    ``x`` may be a transposed view; the FFT runs on a row-contiguous copy."""
    s, p = _dft_phases(x.shape[-1], theta0)
    out = np.fft.ifft(np.multiply(x, weight * s.conj(), order="C"), axis=-1)
    out *= math.sqrt(len(s)) * p.conj()
    return out


def build_space(l: float, theta0: float = 0.0, max_dim: int = MAX_DENSE_DIM) -> BPSpace:
    """Construct the (2l+1)-dimensional space with its operator matrices.

    The angle states are |theta_n> with components exp(-i*m*theta_n)/sqrt(D)
    and theta_n = theta0 + 2*pi*n/D.  The exponentiated angle operator is
    assembled from its spectral sum over these states; q^{Jz} is diagonal
    with entries exp(-i*m*2*pi/D).

    Raises ValueError for l off the half-integer grid or 2l+1 < 3; an even
    2l+1 (half-integer l) is rejected by the parameter's oddness invariant.
    """
    twol = round(2 * l)
    if abs(2 * l - twol) > 1e-9:
        raise ValueError(f"l must be an integer or half-integer, got {l}")
    dim = twol + 1
    if dim < 3:
        raise ValueError(f"need 2l+1 >= 3, got 2l+1 = {dim}")
    if dim > max_dim:
        raise ValueError(f"2l+1 = {dim} exceeds the dense-matrix cap {max_dim}")
    qp = QParameter.from_dim(dim, theta0)

    lint = (dim - 1) // 2
    m = np.arange(-lint, lint + 1, dtype=float)
    theta = _angles(dim, theta0)

    angle_basis = np.exp(-1j * np.outer(theta, m)) / math.sqrt(dim)

    # exp(i*Phi) = sum_n exp(i*theta_n) |theta_n><theta_n| = A^T diag(exp(i*theta)) conj(A)
    exp_iphi = _times_weighted_conj_angle(angle_basis.T, np.exp(1j * theta), theta0)

    q_jz = np.exp(-1j * qp.tau * m)

    return BPSpace(qp=qp, dim=dim, exp_iphi=exp_iphi, q_jz=q_jz, angle_basis=angle_basis)


def _maxabs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a)))


def _identity_deviation(product: np.ndarray) -> float:
    """Max-norm of ``product`` minus identity; ``product`` is overwritten."""
    product.flat[:: len(product) + 1] -= 1.0
    return _maxabs(product)


def check_quantum_plane(space: BPSpace) -> float:
    """Max-norm deviation of q^{Jz} e^{iPhi} - q e^{iPhi} q^{Jz} from zero."""
    q = np.exp(-1j * space.qp.tau)
    qd = space.q_jz
    lhs = qd[:, None] * space.exp_iphi
    rhs = q * (space.exp_iphi * qd[None, :])
    return _maxabs(lhs - rhs)


def _cyclic_raising(dim: int, theta0: float) -> np.ndarray:
    """One-step cyclic raising matrix in the |m> basis with the wrap-around
    corner phase exp(i*D*theta0)."""
    ref = np.zeros((dim, dim), dtype=complex)
    ref[np.arange(1, dim), np.arange(dim - 1)] = 1.0
    ref[0, dim - 1] = np.exp(1j * dim * theta0)
    return ref


def check_cyclic_shift(space: BPSpace) -> float:
    """Max-norm deviation of exp_iphi from the cyclic raising matrix."""
    return _maxabs(space.exp_iphi - _cyclic_raising(space.dim, space.qp.theta0))


def check_unitarity(space: BPSpace) -> float:
    """Max-norm deviation of U U^dagger from identity for U = exp_iphi, with
    U^dagger = A^T diag(exp(-i*theta)) conj(A), and of |q_m|^2 from one."""
    theta0 = space.qp.theta0
    w_bar = np.exp(-1j * _angles(space.dim, theta0))
    product = _times_weighted_conj_angle(_times_angle_transpose(space.exp_iphi, theta0), w_bar, theta0)
    d1 = _identity_deviation(product)
    d2 = _maxabs(np.abs(space.q_jz) ** 2 - 1.0)
    return max(d1, d2)


def check_angle_orthonormality(space: BPSpace) -> float:
    """Max-norm deviation of the angle-state Gram matrix from identity, taken
    on its transpose (A A^dagger)^T = conj(A) A^T."""
    return _identity_deviation(_times_angle_transpose(space.angle_basis.conj(), space.qp.theta0))


def check_angle_completeness(space: BPSpace) -> float:
    """Max-norm deviation of sum_n |theta_n><theta_n| = A^T conj(A) from identity."""
    return _identity_deviation(_times_weighted_conj_angle(space.angle_basis.T, 1.0, space.qp.theta0))


def check_angle_cycling(space: BPSpace) -> float:
    """q^{Jz} permutes angle states cyclically: |theta_n> -> |theta_{n+1}>.

    Returns the max-norm deviation of the shifted basis from the rolled one;
    for integer m the wrap-around is phase-free.
    """
    shifted = space.angle_basis * space.q_jz[None, :]
    return _maxabs(shifted - np.roll(space.angle_basis, -1, axis=0))


def check_shift_power(space: BPSpace) -> float:
    """(exp_iphi)^D equals exp(i*D*theta0) times identity."""
    powered = np.linalg.matrix_power(space.exp_iphi, space.dim)
    target = np.exp(1j * space.dim * space.qp.theta0) * np.eye(space.dim)
    return _maxabs(powered - target)
