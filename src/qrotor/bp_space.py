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
row-local, so the products stream over blocks of ``_BLOCK_ROWS`` rows and
fold each block's max-norm with ``np.max``, which keeps a NaN that Python's
``max`` would drop.

Each identity has one kernel, which maps a block of rows to its max-norm
deviation.  A space holds no D x D array until a caller reads
``angle_basis`` or ``exp_iphi``; the read fills that array block by block,
in place, from the one block generator ``_Blocks``, and keeps it,
read-only.  The first check of a space makes one pass over row blocks that
feeds each block's inputs to all six kernels, and the space keeps the six
deviations for the other checks.  An input is a view of the rows of an
array the space holds, which is never written, or else is generated a block
at a time: basis rows (with the next row, for cycling), basis columns and
exp(i*Phi) rows.  Each thread generates those into two block buffers, and
the kernels, run in a fixed order, work in them, in place where a kernel is
an input's last reader; over stored rows they share one buffer.  A kernel
also allocates the modulus array of its max-norm.  ``qrotor verify`` reads
no array but shift-power's exp(i*Phi) at D <= 101, so at D = 1001 one
space's checks peak at 2.9 MiB traced, against 4.6 MiB with a block of each
input and a buffer per kernel and 32.1 MiB when each space stored both
matrices; its peak RSS is 32.5 MiB, against 35.0 and 62.3.

From D = ``_THREADED_MIN_DIM`` up, the blocks of each fill, check and pass are
shared out between two threads where two cores are usable, as numpy runs its
FFTs and elementwise loops without the GIL.  The two threads share the one
budget of ``_BLOCK_ROWS`` rows, 32 rows each, and every row is computed as
on one thread while the max-norm fold does not depend on order, so arrays
and deviations are bit-identical to the serial ones.  More cores do not
start more threads (``_MAX_WORKERS``), and smaller spaces stay serial:
there, starting threads costs more than it saves.  On 2 cores (Xeon, numpy
2.4.6), building a D = 1001 space and running its six checks takes about
90 ms on two threads and 135-155 ms on one.  Shift-power's D x D
matrix products run in numpy's einsum loops, not in BLAS, whose worker thread
spins on another core for about 0.13 s after a matmul: a D = 101 power takes
26 ms, against 2.2 ms in BLAS.

Sign convention: this module uses the shift phase q = exp(-i*tau), the
natural one for the angle grid.  Energy formulas elsewhere use the real
bracket ``qnum.bracket``, which is insensitive to the sign of tau.
"""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Callable
from dataclasses import dataclass, fields
from functools import cached_property

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

# Largest space dimension.  What a space stores once read (``angle_basis``,
# ``exp_iphi``, which shift-power reads) and an irrep are dense, 16 MiB per
# complex matrix at the cap; the six checks ``verify`` runs on an unread
# space stream row blocks and store nothing, but they keep this cap.
MAX_DENSE_DIM = 1001

# Rows in flight at once in a streamed product, shared by its threads: 64
# complex rows at D = 1001 are 1 MiB, so on one thread a block and the stored
# rows it reads stay within a 2 MiB-per-core L2 cache, and two threads take
# 32 rows each.
_BLOCK_ROWS = 64
# Most threads a streamed product runs on.  Speed, the cut-off below and the
# memory budget were measured with two threads on 2 cores only; more threads
# would shrink the blocks while per-thread scratch (pocketfft's work buffer,
# the ufunc buffer) does not shrink, so raise this only with measurements on
# that many cores.
_MAX_WORKERS = 2
# Smallest D whose streamed products run on threads.  Build and six checks of
# one space, one thread against two on 2 cores, median of 41 alternating
# pairs: 1.1 against 5.1 ms at D = 51 and 12.0 against 13.9 ms at D = 201
# (threads won no pair); from D = 251 to 375, within 10% either way,
# depending on the FFT length's factors; 47.7 against 36.6 ms at D = 401 and
# 76.3 against 54.3 ms at D = 501 (threads won 39 and 41 pairs).
_THREADED_MIN_DIM = 401
# Elements of the scratch buffer numpy allocates for each ufunc call that
# broadcasts an operand.  At numpy's default of 8192 it is 128 KiB of complex,
# one per thread, which would outgrow the modulus array of a thread's 32-row
# block and so the shared budget; at 1024 it is 16 KiB, and a 32 x 1001
# ``block *= row`` takes 24 us instead of 44.
_UFUNC_BUFFER = 1024


class _Array:
    """A ``BPSpace`` array field.  An array given to the constructor is kept
    as given; None, the default, leaves the space's own array to be built on
    the first read, by ``_BUILDERS``, and kept, read-only."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, space: BPSpace | None, owner: type | None = None) -> np.ndarray | None:
        if space is None:
            return None  # the field's default
        array = space.__dict__[self.name]
        if array is None:
            array = space.__dict__[self.name] = _BUILDERS[self.name](space)
            array.setflags(write=False)
        return array

    def __set__(self, space: BPSpace, array: np.ndarray | None) -> None:
        space.__dict__[self.name] = array


@dataclass(frozen=True)
class BPSpace:
    """Matrix realization of the finite angle phase space.

    Basis ordering is m = -l..l (ascending).  ``theta0`` is the reference
    angle of the angle grid; ``angle_basis[n]`` holds the components of the
    n-th angle state over that basis; ``exp_iphi`` is the exponentiated angle
    operator and ``q_jz`` the diagonal of the shift q^{Jz}.  An array left
    out is the space's own, built from ``qp`` and ``theta0`` when first read.
    The first ``check_*`` call measures all six identities and the space
    keeps their deviations, so an array passed in must not change after it.
    """

    qp: QParameter
    theta0: float
    exp_iphi: np.ndarray = _Array()
    q_jz: np.ndarray = _Array()
    angle_basis: np.ndarray = _Array()

    @property
    def dim(self) -> int:
        return self.qp.dim

    @property
    def m_values(self) -> np.ndarray:
        return np.arange(self.dim, dtype=float) - (self.dim - 1) // 2

    def __repr__(self) -> str:
        # what the space holds: an array not yet built shows as None and is not built for this
        return f"BPSpace({', '.join(f'{f.name}={self.__dict__[f.name]!r}' for f in fields(self))})"

    @cached_property
    def _deviations(self) -> dict:
        return _all_deviations(self)


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


def _cores() -> int:
    """Cores this process may run on; macOS has no affinity call."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _blockwise(dim: int, work: Callable[[slice], float | None]) -> list:
    """``work(rows)`` for each block of consecutive rows covering rows
    0..dim-1, in row order.

    From ``_THREADED_MIN_DIM`` up, the blocks are shared out in turn among
    one thread per core, this one included, ``_MAX_WORKERS`` at most, and
    the threads' blocks together hold ``_BLOCK_ROWS`` rows; below it, one
    thread works through blocks of ``_BLOCK_ROWS`` rows.  Each thread runs
    ``work`` under the caller's numpy error handling, with the ufunc buffer
    at ``_UFUNC_BUFFER`` elements.  The first exception, by block, is raised
    once every thread has joined.
    """
    workers = min(_cores(), _MAX_WORKERS) if dim >= _THREADED_MIN_DIM else 1
    size = _BLOCK_ROWS // workers
    blocks = [slice(start, min(start + size, dim)) for start in range(0, dim, size)]
    results: list = [None] * len(blocks)
    errors: list[tuple[int, BaseException]] = []
    caller_errstate = np.geterr()  # a started thread begins with numpy's defaults

    def share(first: int) -> None:
        with np.errstate(**caller_errstate):  # also restores the buffer size on exit
            np.setbufsize(_UFUNC_BUFFER)
            for k in range(first, len(blocks), workers):
                try:
                    results[k] = work(blocks[k])
                except BaseException as exc:  # raised in the calling thread below
                    errors.append((k, exc))
                    return

    threads = []
    try:
        for first in range(1, workers):
            thread = threading.Thread(target=share, args=(first,))
            thread.start()
            threads.append(thread)
        share(0)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise min(errors, key=lambda error: error[0])[1]
    return results


def build_space(l: float, theta0: float = 0.0) -> BPSpace:
    """Construct the (2l+1)-dimensional space with its operator matrices.

    The angle states are |theta_n> with components exp(-i*m*theta_n)/sqrt(D)
    and theta_n = theta0 + 2*pi*n/D, that is exp(-i*m*theta0) * w_k / sqrt(D)
    with w_k the D-th root of unity at k = n*m mod D.  The exponentiated
    angle operator is assembled from its spectral sum over these states;
    q^{Jz} is diagonal with entries exp(-i*m*2*pi/D).  The space holds none
    of the three arrays until one is read; each is then filled a row block
    at a time, in place, and kept read-only.

    Raises ValueError for l not finite or off the half-integer grid, for
    2l+1 even or outside 3..MAX_DENSE_DIM, and for a non-finite theta0.
    """
    dim = twice_spin(l) + 1
    if dim > MAX_DENSE_DIM:
        raise ValueError(f"2l+1 = {dim} exceeds the dense-matrix cap {MAX_DENSE_DIM}")
    qp = QParameter.from_dim(dim)
    if not math.isfinite(theta0):
        raise ValueError(f"theta0 must be finite, got {theta0}")
    return BPSpace(qp=qp, theta0=theta0)


class _Blocks:
    """Blocks of a space's own angle basis and exp(i*Phi), generated from the
    D roots of unity, taken at n*m mod D, and the space's ``_dft_phases``,
    given as ``phases`` or else computed; every entry is computed as in the
    whole array."""

    def __init__(self, space: BPSpace, phases: tuple[np.ndarray, np.ndarray] | None = None) -> None:
        dim = self.dim = space.dim
        self.roots, self.phases = _roots(dim), phases or _dft_phases(dim, space.theta0)
        self.column_phase = self.phases[1] / math.sqrt(dim)
        self.weight = np.exp(1j * _angles(dim, space.theta0))
        self.n = np.arange(dim, dtype=np.min_scalar_type(-dim * dim))  # holds every n*m, |n*m| < D^2 / 2
        self.m = self.n - (dim - 1) // 2

    def _roots_at(self, n: np.ndarray, m: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        k = np.multiply.outer(n, m)
        k %= self.dim
        return np.take(self.roots, k, out=out, mode="clip")  # "clip" writes into ``out`` unbuffered

    def basis(self, n: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Rows ``n`` of the angle basis."""
        out = self._roots_at(n, self.m, out)
        out *= self.column_phase
        return out

    def columns(self, rows: slice, out: np.ndarray | None = None) -> np.ndarray:
        """Columns ``rows`` of the angle basis, transposed."""
        out = self._roots_at(self.m[rows], self.n, out)
        out *= self.column_phase[rows, None]
        return out

    def exp_iphi(self, columns: np.ndarray) -> np.ndarray:
        """The same rows of exp(i*Phi) = sum_n exp(i*theta_n) |theta_n><theta_n|
        = A^T diag(exp(i*theta)) conj(A), transformed in place from ``columns``."""
        return _times_weighted_conj_angle(columns, self.weight, self.phases)


def _build_angle_basis(space: BPSpace) -> np.ndarray:
    blocks, basis = _Blocks(space), np.empty((space.dim, space.dim), dtype=complex)
    _blockwise(space.dim, lambda rows: blocks.basis(blocks.n[rows], out=basis[rows]))
    return basis


def _build_exp_iphi(space: BPSpace) -> np.ndarray:
    blocks, exp_iphi = _Blocks(space), np.empty((space.dim, space.dim), dtype=complex)
    _blockwise(space.dim, lambda rows: blocks.exp_iphi(blocks.columns(rows, out=exp_iphi[rows])))
    return exp_iphi


def _build_q_jz(space: BPSpace) -> np.ndarray:
    return np.exp(-1j * space.qp.tau * (np.arange(space.dim) - (space.dim - 1) // 2))


_BUILDERS = {"angle_basis": _build_angle_basis, "exp_iphi": _build_exp_iphi, "q_jz": _build_q_jz}


def _identity_deviation(block: np.ndarray, rows: slice) -> float:
    """Max-norm of ``block``, the rows ``rows`` of a D x D product, minus
    the same rows of the identity; ``block`` is overwritten."""
    block.flat[rows.start :: block.shape[1] + 1] -= 1.0
    return max_abs(block)


# One kernel per identity: ``kernel(space, phases)``, with ``phases`` the
# space's ``_dft_phases``, returns ``deviation(rows, out, *inputs)``, the
# max-norm deviation of a block of rows, computed from one of the block's
# three inputs: its rows of exp(i*Phi); its rows of the angle basis and the
# row after them, cyclically; or its columns of the angle basis, transposed.
# It works in the block buffer ``out``: either the input itself, which it
# then consumes, or a buffer the input does not overlap, which it overwrites.


def _into(out: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``out`` holding ``x``, copied unless ``out`` is ``x`` itself."""
    if out is not x:
        np.copyto(out, x)
    return out


def _quantum_plane(space: BPSpace, _phases: tuple) -> Callable[..., float]:
    q_jz = space.q_jz
    q_shifted = np.exp(-1j * space.qp.tau) * q_jz

    def deviation(rows: slice, out: np.ndarray, exp_iphi: np.ndarray) -> float:
        np.subtract.outer(q_jz[rows], q_shifted, out=out)
        out *= exp_iphi
        return max_abs(out)

    return deviation


def _cyclic_shift(space: BPSpace, _phases: tuple) -> Callable[..., float]:
    dim, corner = space.dim, np.exp(1j * space.dim * space.theta0)

    def deviation(rows: slice, out: np.ndarray, exp_iphi: np.ndarray) -> float:
        block = _into(out, exp_iphi)
        i = np.arange(max(rows.start, 1), rows.stop)  # the rows with a one at (i, i-1)
        block[i - rows.start, i - 1] -= 1.0
        if rows.start == 0:
            block[0, dim - 1] -= corner
        return max_abs(block)

    return deviation


def _unitarity(space: BPSpace, phases: tuple) -> Callable[..., float]:
    w_bar = np.exp(-1j * _angles(space.dim, space.theta0))
    q_deviation = max_abs(np.abs(space.q_jz) ** 2 - 1.0)

    def deviation(rows: slice, out: np.ndarray, exp_iphi: np.ndarray) -> float:
        block = _times_angle_transpose(_into(out, exp_iphi), phases)
        return max_abs([_identity_deviation(_times_weighted_conj_angle(block, w_bar, phases), rows), q_deviation])

    return deviation


def _angle_orthonormality(space: BPSpace, phases: tuple) -> Callable[..., float]:

    def deviation(rows: slice, out: np.ndarray, basis: np.ndarray) -> float:
        return _identity_deviation(_times_angle_transpose(np.conjugate(basis, out=out), phases), rows)

    return deviation


def _angle_completeness(space: BPSpace, phases: tuple) -> Callable[..., float]:

    def deviation(rows: slice, out: np.ndarray, columns: np.ndarray) -> float:
        return _identity_deviation(_times_weighted_conj_angle(_into(out, columns), 1.0, phases), rows)

    return deviation


def _angle_cycling(space: BPSpace, _phases: tuple) -> Callable[..., float]:
    q_jz = space.q_jz

    def deviation(rows: slice, out: np.ndarray, basis: np.ndarray, after: np.ndarray) -> float:
        np.multiply(basis, q_jz, out=out)
        out[:-1] -= basis[1:]
        out[-1] -= after
        return max_abs(out)

    return deviation


# In the order ``_all_deviations`` runs them.
_KERNELS = (_angle_cycling, _angle_orthonormality, _angle_completeness, _quantum_plane, _cyclic_shift, _unitarity)


def _all_deviations(space: BPSpace) -> dict:
    """Every kernel's deviation, from one pass over row blocks, in which each
    thread works in two block buffers of its own, A and B, and no D x D
    complex array is formed.

    A block's inputs are views of the arrays the space holds, never written,
    or, for an array the space does not hold, generated into A and B: the
    basis rows and the row after them into A, which cycling reads into B and
    orthonormality then consumes; the columns into A, copied to B and turned
    into exp(i*Phi) there; completeness consumes A, quantum-plane and
    cyclic-shift read B into A, and unitarity consumes B.  A kernel whose
    input is stored works in A.  Every entry goes through the operations it
    would in a whole-matrix product, so each deviation is bit-identical."""
    dim, phases = space.dim, _dft_phases(space.dim, space.theta0)
    basis, exp_iphi = space.__dict__["angle_basis"], space.__dict__["exp_iphi"]
    blocks = _Blocks(space, phases) if basis is None or exp_iphi is None else None
    cycling, orthonormality, completeness, quantum_plane, cyclic_shift, unitarity = (
        kernel(space, phases) for kernel in _KERNELS)

    # Each thread makes its buffers at its first block, the largest, and
    # reuses them.  With new buffers for every block, about 3 MiB at
    # D = 1001, glibc trimmed its heap as each block was freed and faulted
    # the pages in again for the next: `verify --max-dim 1001` took 37,000
    # more page faults and 0.13 s more CPU (median of 12 runs).
    buffers: dict[int, tuple[np.ndarray, np.ndarray | None]] = {}

    def deviations(rows: slice) -> list[float]:
        size = rows.stop - rows.start
        if threading.get_ident() not in buffers:
            buffers[threading.get_ident()] = (np.empty((size + (basis is None), dim), dtype=complex),
                                              np.empty((size, dim), dtype=complex) if blocks else None)
        a_buffer, b_buffer = buffers[threading.get_ident()]
        a_next = a_buffer[: size + (basis is None)]  # A holds the row after its rows only for cycling
        a, b = a_next[:size], b_buffer if b_buffer is None else b_buffer[:size]
        if basis is None:
            blocks.basis(blocks.n.take(range(rows.start, rows.stop + 1), mode="wrap"), out=a_next)
            found = [cycling(rows, b, a, a_next[-1]), orthonormality(rows, a, a)]
        else:
            found = [cycling(rows, a, basis[rows], basis[rows.stop % dim]), orthonormality(rows, a, basis[rows])]
        if blocks:
            blocks.columns(rows, out=a)
        if exp_iphi is None:
            blocks.exp_iphi(_into(b, a))
        found.append(completeness(rows, a, a if basis is None else basis[:, rows].T))
        exp_rows = b if exp_iphi is None else exp_iphi[rows]
        found += [quantum_plane(rows, a, exp_rows), cyclic_shift(rows, a, exp_rows)]
        found.append(unitarity(rows, b if exp_iphi is None else a, exp_rows))
        return found

    per_block = _blockwise(dim, deviations)
    return {kernel: max_abs([block[k] for block in per_block]) for k, kernel in enumerate(_KERNELS)}


def check_quantum_plane(space: BPSpace) -> float:
    """Max-norm deviation of q^{Jz} e^{iPhi} - q e^{iPhi} q^{Jz} from zero,
    formed entrywise as (q_i - q*q_j) * e^{iPhi}_ij."""
    return space._deviations[_quantum_plane]


def check_cyclic_shift(space: BPSpace) -> float:
    """Max-norm deviation of exp_iphi from the one-step cyclic raising matrix,
    whose wrap-around corner carries the phase exp(i*D*theta0)."""
    return space._deviations[_cyclic_shift]


def check_unitarity(space: BPSpace) -> float:
    """Max-norm deviation of U U^dagger from identity for U = exp_iphi, with
    U^dagger = A^T diag(exp(-i*theta)) conj(A), and of |q_m|^2 from one."""
    return space._deviations[_unitarity]


def check_angle_orthonormality(space: BPSpace) -> float:
    """Max-norm deviation of the angle-state Gram matrix from identity, taken
    on its transpose (A A^dagger)^T = conj(A) A^T."""
    return space._deviations[_angle_orthonormality]


def check_angle_completeness(space: BPSpace) -> float:
    """Max-norm deviation of sum_n |theta_n><theta_n| = A^T conj(A) from identity."""
    return space._deviations[_angle_completeness]


def check_angle_cycling(space: BPSpace) -> float:
    """q^{Jz} permutes angle states cyclically: |theta_n> -> |theta_{n+1}>.

    Returns the max-norm deviation of the shifted basis from the basis with
    its rows moved up by one; for integer m the wrap-around is phase-free.
    """
    return space._deviations[_angle_cycling]


def check_shift_power(space: BPSpace) -> float:
    """(exp_iphi)^D equals exp(i*D*theta0) times identity, the power squared
    and multiplied from D's lowest bit up, as ``np.linalg.matrix_power`` does."""
    powered, squared = None, space.exp_iphi
    for k, bit in enumerate(reversed(f"{space.dim:b}")):
        squared = np.einsum("ij,kj->ik", squared, squared.T.copy()) if k else squared
        if bit == "1":
            powered = squared if powered is None else np.einsum("ij,kj->ik", powered, squared.T.copy())
    target = np.exp(1j * space.dim * space.theta0) * np.eye(space.dim)
    return max_abs(powered - target)
