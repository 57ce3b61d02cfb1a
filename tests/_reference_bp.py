"""Dense O(D^3) forms of the phase-space products.

These are the matrix products ``qrotor.bp_space`` formed with ``@`` before
it applied the angle-basis factor by FFT: the spectral sum for exp(i*Phi),
U U^dagger, the angle-state Gram matrix and sum_n |theta_n><theta_n|.
Tests compare the FFT path with them.
"""

from __future__ import annotations

import math

import numpy as np

from qrotor.bp_space import BPSpace


def _maxabs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a)))


def dense_exp_iphi(angle_basis: np.ndarray, theta0: float) -> np.ndarray:
    """exp(i*Phi) = sum_n exp(i*theta_n) |theta_n><theta_n| by one matmul."""
    dim = len(angle_basis)
    theta = theta0 + 2.0 * math.pi * np.arange(dim) / dim
    return (angle_basis.T * np.exp(1j * theta)) @ angle_basis.conj()


def dense_unitarity(space: BPSpace) -> float:
    eye = np.eye(space.dim)
    q_jz = np.diag(space.q_jz)
    d1 = _maxabs(space.exp_iphi @ space.exp_iphi.conj().T - eye)
    d2 = _maxabs(q_jz @ q_jz.conj().T - eye)
    return max(d1, d2)


def dense_orthonormality(space: BPSpace) -> float:
    gram = space.angle_basis @ space.angle_basis.conj().T
    return _maxabs(gram - np.eye(space.dim))


def dense_completeness(space: BPSpace) -> float:
    proj = space.angle_basis.T @ space.angle_basis.conj()
    return _maxabs(proj - np.eye(space.dim))
