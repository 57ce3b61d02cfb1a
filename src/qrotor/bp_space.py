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
factor is the explicit matrix under test.  All D^2 entries of each product
are compared with the identity or the raising matrix, but every step is
row-local, so the products stream over blocks of ``_BLOCK_ROWS`` rows: a
check works in one block buffer of its own, plus the modulus array of the
max-norm, and folds each block's max-norm with ``np.max``, which keeps a
NaN that Python's ``max`` would drop.  A space stores two D x D matrices,
read-only, and ``build_space`` fills them block by block, in place.

Sign convention: this module uses the shift phase q = exp(-i*tau), the
natural one for the angle grid.  Energy formulas elsewhere use the real
bracket ``qnum.bracket``, which is insensitive to the sign of tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qnum import QParameter, max_abs, twice_spin

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

# Rows per block of a streamed product: 64 complex rows at D = 1001 are
# 1 MiB, so a block and the stored rows it reads stay within a 2 MiB-per-core
# L2 cache.
_BLOCK_ROWS = 64


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


def _times_angle_transpose(x: np.ndarray, phases: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """x @ A.T, as A.T = diag(p) F diag(s) / sqrt(D), with (s, p) = ``phases``
    from ``_dft_phases``; the row-contiguous buffer ``x``, owned by the
    caller, is transformed in place and returned."""
    s, p = phases
    x *= p
    np.fft.fft(x, axis=-1, out=x)
    x *= s / math.sqrt(len(s))
    return x


def _times_weighted_conj_angle(x: np.ndarray, weight: np.ndarray | float, phases: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """x @ diag(weight) @ conj(A), as conj(A) = diag(conj(s)) conj(F)
    diag(conj(p)) / sqrt(D) and conj(F) / D is the ``np.fft.ifft`` kernel.
    Like ``_times_angle_transpose``, it transforms the row-contiguous buffer
    ``x`` in place and returns it."""
    s, p = phases
    x *= weight * s.conj()
    np.fft.ifft(x, axis=-1, out=x)
    x *= math.sqrt(len(s)) * p.conj()
    return x


def _row_blocks(dim: int) -> list[slice]:
    """Consecutive slices of ``_BLOCK_ROWS`` rows, the last one shorter,
    that cover rows 0..dim-1."""
    return [slice(start, min(start + _BLOCK_ROWS, dim)) for start in range(0, dim, _BLOCK_ROWS)]


def build_space(l: float, theta0: float = 0.0) -> BPSpace:
    """Construct the (2l+1)-dimensional space with its operator matrices.

    The angle states are |theta_n> with components exp(-i*m*theta_n)/sqrt(D)
    and theta_n = theta0 + 2*pi*n/D, that is exp(-i*m*theta0) * w_k / sqrt(D)
    with w_k the D-th root of unity at k = n*m mod D.  The exponentiated
    angle operator is assembled from its spectral sum over these states;
    q^{Jz} is diagonal with entries exp(-i*m*2*pi/D).  Both matrices are
    filled a row block at a time, in place.  The three arrays are read-only.

    Raises ValueError for l not finite or off the half-integer grid, for
    2l+1 even or outside 3..MAX_DENSE_DIM, and for a non-finite theta0.
    """
    dim = twice_spin(l) + 1
    if dim > MAX_DENSE_DIM:
        raise ValueError(f"2l+1 = {dim} exceeds the dense-matrix cap {MAX_DENSE_DIM}")
    qp = QParameter.from_dim(dim)
    if not math.isfinite(theta0):
        raise ValueError(f"theta0 must be finite, got {theta0}")

    m = np.arange(dim) - (dim - 1) // 2
    roots, phases = _roots(dim), _dft_phases(dim, theta0)
    column_phase = phases[1] / math.sqrt(dim)
    angle_basis = np.empty((dim, dim), dtype=complex)
    for rows in _row_blocks(dim):
        k = np.multiply.outer(np.arange(rows.start, rows.stop), m)
        k %= dim
        np.take(roots, k, out=angle_basis[rows], mode="clip")  # "clip" writes into ``out`` unbuffered
        angle_basis[rows] *= column_phase

    # exp(i*Phi) = sum_n exp(i*theta_n) |theta_n><theta_n| = A^T diag(exp(i*theta)) conj(A)
    weight = np.exp(1j * _angles(dim, theta0))
    exp_iphi = np.empty((dim, dim), dtype=complex)
    for rows in _row_blocks(dim):
        exp_iphi[rows] = angle_basis[:, rows].T
        _times_weighted_conj_angle(exp_iphi[rows], weight, phases)

    q_jz = np.exp(-1j * qp.tau * m)

    for array in (angle_basis, exp_iphi, q_jz):
        array.setflags(write=False)
    return BPSpace(qp=qp, theta0=theta0, exp_iphi=exp_iphi, q_jz=q_jz, angle_basis=angle_basis)


def _identity_deviation(block: np.ndarray, rows: slice) -> float:
    """Max-norm of ``block``, the rows ``rows`` of a D x D product, minus
    the same rows of the identity; ``block`` is overwritten."""
    block.flat[rows.start :: block.shape[1] + 1] -= 1.0
    return max_abs(block)


def check_quantum_plane(space: BPSpace) -> float:
    """Max-norm deviation of q^{Jz} e^{iPhi} - q e^{iPhi} q^{Jz} from zero,
    formed entrywise as (q_i - q*q_j) * e^{iPhi}_ij."""
    q_shifted = np.exp(-1j * space.qp.tau) * space.q_jz

    def deviation(rows: slice) -> float:
        block = np.subtract.outer(space.q_jz[rows], q_shifted)
        block *= space.exp_iphi[rows]
        return max_abs(block)

    return max_abs([deviation(rows) for rows in _row_blocks(space.dim)])


def check_cyclic_shift(space: BPSpace) -> float:
    """Max-norm deviation of exp_iphi from the one-step cyclic raising matrix,
    whose wrap-around corner carries the phase exp(i*D*theta0)."""
    dim = space.dim

    def deviation(rows: slice) -> float:
        block = space.exp_iphi[rows].copy()
        i = np.arange(max(rows.start, 1), rows.stop)  # the rows with a one at (i, i-1)
        block[i - rows.start, i - 1] -= 1.0
        if rows.start == 0:
            block[0, dim - 1] -= np.exp(1j * dim * space.theta0)
        return max_abs(block)

    return max_abs([deviation(rows) for rows in _row_blocks(dim)])


def check_unitarity(space: BPSpace) -> float:
    """Max-norm deviation of U U^dagger from identity for U = exp_iphi, with
    U^dagger = A^T diag(exp(-i*theta)) conj(A), and of |q_m|^2 from one."""
    phases = _dft_phases(space.dim, space.theta0)
    w_bar = np.exp(-1j * _angles(space.dim, space.theta0))

    def deviation(rows: slice) -> float:
        block = _times_angle_transpose(space.exp_iphi[rows].copy(), phases)
        return _identity_deviation(_times_weighted_conj_angle(block, w_bar, phases), rows)

    d1 = max_abs([deviation(rows) for rows in _row_blocks(space.dim)])
    d2 = max_abs(np.abs(space.q_jz) ** 2 - 1.0)
    return max_abs([d1, d2])


def check_angle_orthonormality(space: BPSpace) -> float:
    """Max-norm deviation of the angle-state Gram matrix from identity, taken
    on its transpose (A A^dagger)^T = conj(A) A^T."""
    phases = _dft_phases(space.dim, space.theta0)
    return max_abs([
        _identity_deviation(_times_angle_transpose(space.angle_basis[rows].conj(), phases), rows)
        for rows in _row_blocks(space.dim)
    ])


def check_angle_completeness(space: BPSpace) -> float:
    """Max-norm deviation of sum_n |theta_n><theta_n| = A^T conj(A) from identity."""
    phases = _dft_phases(space.dim, space.theta0)
    return max_abs([
        _identity_deviation(_times_weighted_conj_angle(space.angle_basis[:, rows].T.copy(), 1.0, phases), rows)
        for rows in _row_blocks(space.dim)
    ])


def check_angle_cycling(space: BPSpace) -> float:
    """q^{Jz} permutes angle states cyclically: |theta_n> -> |theta_{n+1}>.

    Returns the max-norm deviation of the shifted basis from the basis with
    its rows moved up by one; for integer m the wrap-around is phase-free.
    """
    basis = space.angle_basis

    def deviation(rows: slice) -> float:
        block = basis[rows] * space.q_jz
        block[:-1] -= basis[rows.start + 1 : rows.stop]
        block[-1] -= basis[rows.stop % space.dim]
        return max_abs(block)

    return max_abs([deviation(rows) for rows in _row_blocks(space.dim)])


def check_shift_power(space: BPSpace) -> float:
    """(exp_iphi)^D equals exp(i*D*theta0) times identity."""
    powered = np.linalg.matrix_power(space.exp_iphi, space.dim)
    target = np.exp(1j * space.dim * space.theta0) * np.eye(space.dim)
    return max_abs(powered - target)
