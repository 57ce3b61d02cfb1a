"""Deformed angular-momentum irrep matrices and their algebra checks.

For each spin j the ladder operators act inside the (2j+1)-dimensional
multiplet |j m> with matrix elements built from deformed numbers,

    <j,m+1| J+ |j,m> = sqrt([j-m][j+m+1]),

and J- is its transpose, read from J+ rather than stored.  In the operating
regime (space dimension much larger than 2j+1) every bracket under a square
root is nonnegative, so the matrices are real.  The commutation relations
and the invariant operator are verified numerically against the matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .qnum import MAX_DENSE_DIM, QParameter, RegimeError, bracket, casimir_eigenvalue, max_abs, twice_spin

__all__ = ["IrrepMatrices", "build_irrep", "check_commutators", "check_casimir", "IRREP_CHECKS"]


@dataclass(frozen=True)
class IrrepMatrices:
    """Matrices of Jz and the ladder operators on one spin-j multiplet.

    Basis ordering is m = j..-j (descending), putting J+ on the first
    superdiagonal; J- is read as the transpose of J+.  ``qp=None`` marks the undeformed (classical) variant.
    Equality and hashing go by ``j`` and ``qp``, which fix the matrices.
    """

    j: float
    qp: QParameter | None
    jz: np.ndarray = field(compare=False)
    jplus: np.ndarray = field(compare=False)

    @property
    def jminus(self) -> np.ndarray:
        return self.jplus.T

    @property
    def tau(self) -> float:
        """The deformation's tau, 0.0 for the classical variant."""
        return 0.0 if self.qp is None else self.qp.tau

    @property
    def m_values(self) -> np.ndarray:
        return np.diag(self.jz)


def build_irrep(j: float, qp: QParameter | None) -> IrrepMatrices:
    """Build the (2j+1)-dimensional irrep matrices at deformation qp.

    Raises ValueError for a negative spin or 2j+1 above MAX_DENSE_DIM, before
    any array is made, and RegimeError if any product [j-m][j+m+1] under a
    square root is negative, which signals that the embedding space is not
    large compared to the spin.
    """
    twoj = twice_spin(j)
    if twoj < 0:
        raise ValueError(f"spin must be nonnegative, got {j}")
    if twoj + 1 > MAX_DENSE_DIM:
        raise ValueError(f"2j+1 = {twoj + 1} exceeds the dense-matrix cap {MAX_DENSE_DIM}")
    tau = 0.0 if qp is None else qp.tau

    m = (twoj - 2.0 * np.arange(twoj + 1)) / 2.0
    source = m[1:]
    product = bracket(j - source, tau) * bracket(j + source + 1.0, tau)
    negative = np.flatnonzero(product < 0.0)
    if negative.size:
        k = negative[0]
        raise RegimeError(
            f"negative bracket product {product[k]:.3e} at j={j}, m={source[k]}"
            + ("" if qp is None else f", dim={qp.dim}")
            + "; the spin does not fit in the space"
        )
    return IrrepMatrices(j=float(j), qp=qp, jz=np.diag(m), jplus=np.diag(np.sqrt(product), 1))


def check_commutators(irrep: IrrepMatrices) -> float:
    """Max-norm deviation over the deformed commutation relations.

    Checks [J+, J-] = [2 Jz] (bracket applied to the spectrum of 2 Jz) and
    [Jz, J+-] = +- J+-.
    """
    target = np.diag(bracket(2.0 * irrep.m_values, irrep.tau))
    d1 = max_abs(irrep.jplus @ irrep.jminus - irrep.jminus @ irrep.jplus - target)
    d2 = max_abs(irrep.jz @ irrep.jplus - irrep.jplus @ irrep.jz - irrep.jplus)
    d3 = max_abs(irrep.jz @ irrep.jminus - irrep.jminus @ irrep.jz + irrep.jminus)
    return max_abs([d1, d2, d3])


def check_casimir(irrep: IrrepMatrices) -> float:
    """Max-norm deviation of [Jz][Jz+1] + J- J+ from [j][j+1] * identity."""
    m = irrep.m_values
    c2 = np.diag(bracket(m, irrep.tau) * bracket(m + 1.0, irrep.tau)) + irrep.jminus @ irrep.jplus
    ev = casimir_eigenvalue(irrep.j, irrep.qp)
    return max_abs(c2 - ev * np.eye(len(m)))


# The checks ``qrotor verify`` runs on every irrep, by name, in its report's order.
IRREP_CHECKS = (
    ("commutators", check_commutators),
    ("casimir", check_casimir),
)
