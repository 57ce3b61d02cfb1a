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

A space holds no array.  Its first check runs all six identities in one
pass over row blocks (``_all_deviations``), and the space keeps the six
deviations for the other checks.  The pass generates a block's inputs, its
rows of the angle basis with the row after them, its columns of the basis
and its rows of exp(i*Phi), from the one block generator ``_Blocks`` into
the two block buffers each thread keeps.  Per block the identities run as
one straight-line sequence in those buffers, each working in place or in the
buffer its input does not occupy, and each max-norm allocates its modulus
array.  Shift-power alone fills a whole exp(i*Phi), from the same generator,
into a D x D array of its own, and ``qrotor verify`` runs it only up to
D = 101, so at D = 1001 one space's checks peak at 2.9 MiB traced on two
threads.

From D = ``_THREADED_MIN_DIM`` up, the blocks of each pass and fill are
shared out between two threads where two cores are usable, as numpy runs its
FFTs and elementwise loops without the GIL.  The two threads share the one
budget of ``_BLOCK_ROWS`` rows, 32 rows each, and every row is computed as
on one thread while the max-norm fold does not depend on order, so arrays
and deviations are bit-identical to the serial ones.  More cores do not
start more threads (``_MAX_WORKERS``), and smaller spaces stay serial:
there, starting threads costs more than it saves.  On 2 vCPUs (Xeon, numpy
2.4.6) with the second CPU free, a D = 1001 space's build and six checks
took 38-39 ms on two threads and 67-69 ms on one, in-process, and a spawned
``verify --max-dim 1001`` 0.184 s against 0.237 s with 0.249 s of CPU on
two (medians of 21 and 41 alternating runs; two faster in 41 of 41); with
it busy, both took 0.245 s.  Shift-power's matrix products run in numpy's
einsum loops, not in BLAS, whose worker thread spins on another core for
about 0.13 s after a matmul: a D = 101 power takes 26 ms, 2.2 ms in BLAS.

Sign convention: this module uses the shift phase q = exp(-i*tau), the
natural one for the angle grid.  Energy formulas elsewhere use the real
bracket ``qnum.bracket``, which is insensitive to the sign of tau.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .qnum import MAX_DENSE_DIM, QParameter, _cores, max_abs, twice_spin

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
    "BP_CHECKS",
]

# Rows in flight at once in a streamed product, shared by its threads: 64
# complex rows at D = 1001 are 1 MiB, so on one thread a block's two buffers
# stay within a 2 MiB-per-core L2 cache, and two threads take 32 rows each.
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


@dataclass(frozen=True)
class BPSpace:
    """Finite angle phase space, fixed by its dimension, ``qp.dim``, and
    ``theta0``, the reference angle of its angle grid, stored as a ``float``
    (a float32 angle would round the grid); equality, hashing and
    ``repr`` go by those two alone.  It holds no array: the first
    ``check_*`` call measures all six identities and the space keeps their
    deviations.

    However it is built, a space refuses a dimension above ``MAX_DENSE_DIM``
    and a theta0 that is not finite or beyond 2*pi in magnitude: theta0 and
    theta0 +- 2*pi give the same space, as m is an integer, and further out
    the angle grid loses its spacing to rounding, which the checks measure.
    """

    qp: QParameter
    theta0: float

    def __post_init__(self):
        if self.qp.dim > MAX_DENSE_DIM:
            raise ValueError(f"2l+1 = {self.qp.dim} exceeds the dense-matrix cap {MAX_DENSE_DIM}")
        if not math.fabs(self.theta0) <= 2.0 * math.pi:  # also NaN; TypeError if not real
            raise ValueError(f"theta0 must be finite, with |theta0| <= 2*pi, got {self.theta0}")
        object.__setattr__(self, "theta0", float(self.theta0))

    @property
    def dim(self) -> int:
        return self.qp.dim

    @cached_property
    def _deviations(self) -> dict[str, float]:
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


def _blockwise(dim: int, work: Callable[[slice], object]) -> list:
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
    """Construct the (2l+1)-dimensional space, basis ordering m = -l..l.

    The angle states are |theta_n> with components exp(-i*m*theta_n)/sqrt(D)
    and theta_n = theta0 + 2*pi*n/D, that is exp(-i*m*theta0) * w_k / sqrt(D)
    with w_k the D-th root of unity at k = n*m mod D.  The exponentiated
    angle operator is assembled from its spectral sum over these states;
    q^{Jz} is diagonal with entries exp(-i*m*2*pi/D).

    Raises ValueError for l not finite or off the half-integer grid, for
    2l+1 even or outside 3..MAX_DENSE_DIM, and, as ``BPSpace`` checks, for a
    theta0 that is not finite or beyond 2*pi in magnitude.
    """
    dim = twice_spin(l) + 1
    if dim < 3 or dim % 2 == 0:  # QParameter's own message would name neither 2l+1 nor the cap
        raise ValueError(f"2l+1 = {dim} must be odd, from 3 to the dense-matrix cap {MAX_DENSE_DIM}")
    return BPSpace(QParameter(dim), theta0)


class _Blocks:
    """Blocks of a space's angle basis and exp(i*Phi), generated from the D
    roots of unity, taken at n*m mod D, and the space's ``_dft_phases``;
    every entry is computed as in the whole array.  ``q_jz`` is the diagonal
    of q^{Jz}."""

    def __init__(self, space: BPSpace) -> None:
        dim = self.dim = space.dim
        self.roots, self.phases = _roots(dim), _dft_phases(dim, space.theta0)
        self.column_phase = self.phases[1] / math.sqrt(dim)
        self.weight = np.exp(1j * _angles(dim, space.theta0))
        self.n = np.arange(dim, dtype=np.min_scalar_type(-dim * dim))  # holds every n*m, |n*m| < D^2 / 2
        self.m = self.n - (dim - 1) // 2
        self.q_jz = np.exp(-1j * space.qp.tau * self.m)

    def _roots_at(self, n: np.ndarray, m: np.ndarray, out: np.ndarray) -> np.ndarray:
        k = np.multiply.outer(n, m)
        k %= self.dim
        return np.take(self.roots, k, out=out, mode="clip")  # "clip" writes into ``out`` unbuffered

    def basis(self, n: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Rows ``n`` of the angle basis, into ``out``."""
        out = self._roots_at(n, self.m, out)
        out *= self.column_phase
        return out

    def columns(self, rows: slice, out: np.ndarray) -> np.ndarray:
        """Columns ``rows`` of the angle basis, transposed, into ``out``."""
        out = self._roots_at(self.m[rows], self.n, out)
        out *= self.column_phase[rows, None]
        return out

    def exp_iphi(self, columns: np.ndarray) -> np.ndarray:
        """The same rows of exp(i*Phi) = sum_n exp(i*theta_n) |theta_n><theta_n|
        = A^T diag(exp(i*theta)) conj(A), transformed in place from ``columns``."""
        return _times_weighted_conj_angle(columns, self.weight, self.phases)


def _identity_deviation(block: np.ndarray, rows: slice) -> float:
    """Max-norm of ``block``, the rows ``rows`` of a D x D product, minus
    the same rows of the identity; ``block`` is overwritten."""
    block.flat[rows.start :: block.shape[1] + 1] -= 1.0
    return max_abs(block)


def _all_deviations(space: BPSpace) -> dict[str, float]:
    """Each identity's max-norm deviation, keyed by its name, from one pass
    over row blocks in which no D x D complex array is formed.

    Each thread works in two block buffers of its own, A and B, into which
    ``_Blocks`` generates a block's inputs: its basis rows and the row after
    them into A, then its columns into A, copied to B and turned into
    exp(i*Phi) rows there.  The six identities run in one order:
    angle-cycling works in B; angle-orthonormality conjugates the basis rows
    in A; angle-completeness consumes the columns in A; quantum-plane and
    cyclic-shift work in A from the exp(i*Phi) rows; unitarity consumes them
    in B.  Every entry goes through the operations it would in a
    whole-matrix product, so each deviation is bit-identical."""
    dim, blocks = space.dim, _Blocks(space)
    phases, q_jz = blocks.phases, blocks.q_jz
    q_shifted = np.exp(-1j * space.qp.tau) * q_jz
    corner = np.exp(1j * dim * space.theta0)  # cyclic-shift's wrap-around entry
    w_bar = np.exp(-1j * _angles(dim, space.theta0))
    q_deviation = max_abs(np.abs(q_jz) ** 2 - 1.0)

    # Each thread makes its buffers at its first block, the largest, and
    # reuses them.  With new buffers for every block, about 3 MiB at
    # D = 1001, glibc trimmed its heap as each block was freed and faulted
    # the pages in again for the next: `verify --max-dim 1001` took 37,000
    # more page faults and 0.13 s more CPU (median of 12 runs).
    buffers: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def deviations(rows: slice) -> dict[str, float]:
        size, found = rows.stop - rows.start, {}
        if threading.get_ident() not in buffers:
            a_buffer = np.empty((size + 1, dim), dtype=complex)  # the row after, for cycling
            buffers[threading.get_ident()] = (a_buffer, np.empty((size, dim), dtype=complex))
        a_buffer, b_buffer = buffers[threading.get_ident()]
        a, b = a_buffer[:size], b_buffer[:size]
        blocks.basis(blocks.n.take(range(rows.start, rows.stop + 1), mode="wrap"), out=a_buffer[: size + 1])

        np.multiply(a, q_jz, out=b)
        b[:-1] -= a[1:]
        b[-1] -= a_buffer[size]
        found["angle-cycling"] = max_abs(b)

        np.conjugate(a, out=a)
        found["angle-orthonormality"] = _identity_deviation(_times_angle_transpose(a, phases), rows)

        blocks.columns(rows, out=a)
        np.copyto(b, a)
        exp_rows = blocks.exp_iphi(b)
        found["angle-completeness"] = _identity_deviation(_times_weighted_conj_angle(a, 1.0, phases), rows)

        np.subtract.outer(q_jz[rows], q_shifted, out=a)
        a *= exp_rows
        found["quantum-plane"] = max_abs(a)

        np.copyto(a, exp_rows)
        i = np.arange(max(rows.start, 1), rows.stop)  # the rows with a one at (i, i-1)
        a[i - rows.start, i - 1] -= 1.0
        if rows.start == 0:
            a[0, dim - 1] -= corner
        found["cyclic-shift"] = max_abs(a)

        _times_weighted_conj_angle(_times_angle_transpose(exp_rows, phases), w_bar, phases)
        found["unitarity"] = max_abs([_identity_deviation(exp_rows, rows), q_deviation])
        return found

    per_block = _blockwise(dim, deviations)
    return {name: max_abs([block[name] for block in per_block]) for name in per_block[0]}


def check_quantum_plane(space: BPSpace) -> float:
    """Max-norm deviation of q^{Jz} e^{iPhi} - q e^{iPhi} q^{Jz} from zero,
    formed entrywise as (q_i - q*q_j) * e^{iPhi}_ij."""
    return space._deviations["quantum-plane"]


def check_cyclic_shift(space: BPSpace) -> float:
    """Max-norm deviation of exp(i*Phi) from the one-step cyclic raising matrix,
    whose wrap-around corner carries the phase exp(i*D*theta0)."""
    return space._deviations["cyclic-shift"]


def check_unitarity(space: BPSpace) -> float:
    """Max-norm deviation of U U^dagger from identity for U = exp(i*Phi), with
    U^dagger = A^T diag(exp(-i*theta)) conj(A), and of |q_m|^2 from one."""
    return space._deviations["unitarity"]


def check_angle_orthonormality(space: BPSpace) -> float:
    """Max-norm deviation of the angle-state Gram matrix from identity, taken
    on its transpose (A A^dagger)^T = conj(A) A^T."""
    return space._deviations["angle-orthonormality"]


def check_angle_completeness(space: BPSpace) -> float:
    """Max-norm deviation of sum_n |theta_n><theta_n| = A^T conj(A) from identity."""
    return space._deviations["angle-completeness"]


def check_angle_cycling(space: BPSpace) -> float:
    """q^{Jz} permutes angle states cyclically: |theta_n> -> |theta_{n+1}>.

    Returns the max-norm deviation of the shifted basis from the basis with
    its rows moved up by one; for integer m the wrap-around is phase-free.
    """
    return space._deviations["angle-cycling"]


def check_shift_power(space: BPSpace) -> float:
    """(exp(i*Phi))^D equals exp(i*D*theta0) times identity, the power squared
    and multiplied from D's lowest bit up, as ``np.linalg.matrix_power`` does;
    exp(i*Phi) is filled a row block at a time into a D x D array of its own,
    which the space does not keep."""
    blocks, exp_iphi = _Blocks(space), np.empty((space.dim, space.dim), dtype=complex)
    _blockwise(space.dim, lambda rows: blocks.exp_iphi(blocks.columns(rows, out=exp_iphi[rows])))
    powered, squared = None, exp_iphi
    for k, bit in enumerate(reversed(f"{space.dim:b}")):
        squared = np.einsum("ij,kj->ik", squared, squared.T.copy()) if k else squared
        if bit == "1":
            powered = squared if powered is None else np.einsum("ij,kj->ik", powered, squared.T.copy())
    target = np.exp(1j * space.dim * space.theta0) * np.eye(space.dim)
    return max_abs(powered - target)


# The six identities ``qrotor verify`` checks on every space, by name, in its
# report's order; shift-power, a D x D power, runs only up to D = 101.
BP_CHECKS = (
    ("quantum-plane", check_quantum_plane),
    ("cyclic-shift", check_cyclic_shift),
    ("unitarity", check_unitarity),
    ("angle-orthonormality", check_angle_orthonormality),
    ("angle-completeness", check_angle_completeness),
    ("angle-cycling", check_angle_cycling),
)
