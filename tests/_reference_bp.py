"""Whole-matrix and dense O(D^3) forms of the phase-space products.

``whole_build_space`` and ``WHOLE_CHECKS`` are ``qrotor.bp_space``'s
construction and identity checks as they were before they streamed over row
blocks: each product is formed as one D x D array, with the same FFT kernels
in the same order, so the blocked forms must match them bit for bit.
``whole_build_space`` returns a record, not a ``BPSpace``: a space holds no
array, and the record is the one holder of a space's whole angle basis,
exp(i*Phi) and q^{Jz} diagonal, which tests read and can swap a faulty array
into.  Every function here takes such a record.

The dense forms are the matrix products ``qrotor.bp_space`` formed with
``@`` before it applied the angle-basis factor by FFT: the spectral sum for
exp(i*Phi), U U^dagger, the angle-state Gram matrix and
sum_n |theta_n><theta_n|.  Tests compare the FFT path with them.
``matrix_power_shift_power`` is shift-power with its power taken by
``np.linalg.matrix_power`` (BLAS), the oracle for the einsum power.
"""

from __future__ import annotations

import math
import types

import numpy as np

from qrotor.bp_space import (
    _angles,
    _dft_phases,
    _roots,
    _times_angle_transpose,
    _times_weighted_conj_angle,
)
from qrotor.qnum import QParameter, max_abs, twice_spin


def whole_build_space(l: float, theta0: float = 0.0) -> types.SimpleNamespace:
    """A space's whole arrays with the angle basis gathered through a D x D
    index array and exp(i*Phi) transformed from a transposed copy of it, in a
    record with ``qp``, ``theta0`` and ``dim``; for valid arguments only, and
    the arrays stay writable."""
    dim = twice_spin(l) + 1
    qp = QParameter.from_dim(dim)
    m = np.arange(dim) - (dim - 1) // 2
    phases = _dft_phases(dim, theta0)
    angle_basis = _roots(dim)[np.multiply.outer(np.arange(dim), m) % dim]
    angle_basis *= phases[1] / math.sqrt(dim)
    exp_iphi = _times_weighted_conj_angle(angle_basis.T.copy(), np.exp(1j * _angles(dim, theta0)), phases)
    q_jz = np.exp(-1j * qp.tau * m)
    return types.SimpleNamespace(
        qp=qp, theta0=theta0, dim=dim, exp_iphi=exp_iphi, q_jz=q_jz, angle_basis=angle_basis
    )


def _identity_deviation(product: np.ndarray) -> float:
    product.flat[:: len(product) + 1] -= 1.0
    return max_abs(product)


def whole_quantum_plane(space: types.SimpleNamespace) -> float:
    q = np.exp(-1j * space.qp.tau)
    deviation = np.subtract.outer(space.q_jz, q * space.q_jz)
    deviation *= space.exp_iphi
    return max_abs(deviation)


def whole_cyclic_shift(space: types.SimpleNamespace) -> float:
    dim = space.dim
    deviation = space.exp_iphi.copy()
    deviation.flat[dim :: dim + 1] -= 1.0
    deviation[0, dim - 1] -= np.exp(1j * dim * space.theta0)
    return max_abs(deviation)


def whole_unitarity(space: types.SimpleNamespace) -> float:
    phases = _dft_phases(space.dim, space.theta0)
    w_bar = np.exp(-1j * _angles(space.dim, space.theta0))
    product = _times_weighted_conj_angle(_times_angle_transpose(space.exp_iphi.copy(), phases), w_bar, phases)
    return max(_identity_deviation(product), max_abs(np.abs(space.q_jz) ** 2 - 1.0))


def whole_angle_orthonormality(space: types.SimpleNamespace) -> float:
    phases = _dft_phases(space.dim, space.theta0)
    return _identity_deviation(_times_angle_transpose(space.angle_basis.conj(), phases))


def whole_angle_completeness(space: types.SimpleNamespace) -> float:
    phases = _dft_phases(space.dim, space.theta0)
    return _identity_deviation(_times_weighted_conj_angle(space.angle_basis.T.copy(), 1.0, phases))


def whole_angle_cycling(space: types.SimpleNamespace) -> float:
    basis = space.angle_basis
    deviation = basis * space.q_jz
    deviation[:-1] -= basis[1:]
    deviation[-1] -= basis[0]
    return max_abs(deviation)


# Keyed by the names of ``qrotor.bp_space.BP_CHECKS``.
WHOLE_CHECKS = {
    "quantum-plane": whole_quantum_plane,
    "cyclic-shift": whole_cyclic_shift,
    "unitarity": whole_unitarity,
    "angle-orthonormality": whole_angle_orthonormality,
    "angle-completeness": whole_angle_completeness,
    "angle-cycling": whole_angle_cycling,
}


def dense_exp_iphi(angle_basis: np.ndarray, theta0: float) -> np.ndarray:
    """exp(i*Phi) = sum_n exp(i*theta_n) |theta_n><theta_n| by one matmul."""
    dim = len(angle_basis)
    theta = theta0 + 2.0 * math.pi * np.arange(dim) / dim
    return (angle_basis.T * np.exp(1j * theta)) @ angle_basis.conj()


def dense_unitarity(space: types.SimpleNamespace) -> float:
    eye = np.eye(space.dim)
    q_jz = np.diag(space.q_jz)
    d1 = max_abs(space.exp_iphi @ space.exp_iphi.conj().T - eye)
    d2 = max_abs(q_jz @ q_jz.conj().T - eye)
    return max(d1, d2)


def dense_orthonormality(space: types.SimpleNamespace) -> float:
    gram = space.angle_basis @ space.angle_basis.conj().T
    return max_abs(gram - np.eye(space.dim))


def dense_completeness(space: types.SimpleNamespace) -> float:
    proj = space.angle_basis.T @ space.angle_basis.conj()
    return max_abs(proj - np.eye(space.dim))


def matrix_power_shift_power(space: types.SimpleNamespace) -> float:
    """Max-norm deviation of (exp_iphi)^D from exp(i*D*theta0) times identity."""
    powered = np.linalg.matrix_power(space.exp_iphi, space.dim)
    return max_abs(powered - np.exp(1j * space.dim * space.theta0) * np.eye(space.dim))
