import dataclasses
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from _reference_bp import (
    WHOLE_CHECKS,
    dense_completeness,
    dense_exp_iphi,
    dense_orthonormality,
    dense_unitarity,
    matrix_power_shift_power,
    whole_build_space,
)
from conftest import REPO_ROOT
from qrotor import bp_space
from qrotor.bp_space import (
    _BLOCK_ROWS,
    _THREADED_MIN_DIM,
    MAX_DENSE_DIM,
    BPSpace,
    build_space,
    check_angle_completeness,
    check_angle_cycling,
    check_angle_orthonormality,
    check_cyclic_shift,
    check_quantum_plane,
    check_shift_power,
    check_unitarity,
)
from qrotor.cli import BP_CHECKS, _bp_tolerance, main
from qrotor.qnum import QParameter


def basis_vector(dim, idx):
    v = np.zeros(dim, dtype=complex)
    v[idx] = 1.0
    return v


class _Served(bp_space._Blocks):
    """``_Blocks`` handing out the rows of a record's whole arrays, so that a
    space is checked as if those were its arrays."""

    def __init__(self, space, record):
        super().__init__(space)
        self.record, self.rows = record, {}

    def basis(self, n, out):
        out[...] = self.record.angle_basis[n]
        return out

    def columns(self, rows, out):
        self.rows[threading.get_ident()] = rows  # the rows ``exp_iphi`` hands out next on this thread
        out[...] = self.record.angle_basis[:, rows].T
        return out

    def exp_iphi(self, columns):
        columns[...] = self.record.exp_iphi[self.rows[threading.get_ident()]]
        return columns


def serve_rows(monkeypatch, *records):
    """From now on, a space with the dimension and reference angle of one of
    ``records``, from ``whole_build_space`` with a faulty array swapped in, is
    checked on that record's arrays: the fault enters at the one block
    generator.  Any other space is generated as before."""
    own, served = bp_space._Blocks, {(record.dim, record.theta0): record for record in records}

    def blocks(space):
        record = served.get((space.dim, space.theta0))
        return own(space) if record is None else _Served(space, record)

    monkeypatch.setattr(bp_space, "_Blocks", blocks)


class TestBuildSpace:
    def test_dimensions_and_parameter(self):
        space = build_space(1)
        assert space.dim == 3
        assert space.qp.dim == 3
        assert bp_space._Blocks(space).m.tolist() == [-1, 0, 1]

    def test_angle_states_orthonormal(self):
        whole = whole_build_space(1)
        overlap = np.vdot(whole.angle_basis[0], whole.angle_basis[1])
        assert abs(overlap) < 1e-12
        assert check_angle_orthonormality(build_space(1)) < 1e-12

    def test_raising_action_on_m_states(self):
        # basis index 0 is m=-1; the shift sends it to m=0
        out = whole_build_space(1).exp_iphi @ basis_vector(3, 0)
        assert np.max(np.abs(out - basis_vector(3, 1))) < 1e-12

    def test_wraparound_at_top_state(self):
        out = whole_build_space(1, theta0=0.0).exp_iphi @ basis_vector(3, 2)
        assert np.max(np.abs(out - basis_vector(3, 0))) < 1e-12

    def test_wraparound_phase_nonzero_theta0(self):
        out = whole_build_space(1, theta0=math.pi / 3).exp_iphi @ basis_vector(3, 2)
        # corner phase exp(i*3*pi/3) = -1
        assert np.max(np.abs(out - (-1.0) * basis_vector(3, 0))) < 1e-12

    def test_q_jz_diagonal_entries(self):
        whole = whole_build_space(2)
        expected = np.exp(-1j * whole.qp.tau * np.arange(-2, 3))
        assert np.max(np.abs(whole.q_jz - expected)) == 0.0
        assert whole.q_jz.ndim == 1

    @pytest.mark.parametrize("l", [0, 0.3, -1])
    def test_rejects_bad_l(self, l):
        with pytest.raises(ValueError):
            build_space(l)

    @pytest.mark.parametrize("l", [math.inf, math.nan], ids=["inf", "nan"])
    def test_rejects_non_finite_l(self, l):
        with pytest.raises(ValueError, match=f"^spin must be finite, got {l}$"):
            build_space(l)

    def test_spin_doubled_past_float_range_hits_dense_cap(self):
        # the spin cap comes first; the largest spin it admits hits the dense cap
        with pytest.raises(ValueError, match="^spin 1e\\+308 exceeds 1073741824$"):
            build_space(1e308)
        with pytest.raises(ValueError, match="^2l\\+1 = 2147483649 exceeds the dense-matrix cap 1001$"):
            build_space(2**30)

    def test_rejects_half_integer_l(self):
        # 2l+1 even contradicts the odd-dimension invariant
        with pytest.raises(ValueError, match="odd"):
            build_space(1.5)

    def test_rejects_above_dense_cap(self):
        with pytest.raises(ValueError, match="cap"):
            build_space((MAX_DENSE_DIM + 1) // 2 + 1)
        assert build_space((MAX_DENSE_DIM - 1) // 2).dim == MAX_DENSE_DIM

    @pytest.mark.parametrize("theta0", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_theta0(self, theta0):
        with pytest.raises(ValueError, match="theta0 must be finite"):
            build_space(1, theta0=theta0)

    @pytest.mark.parametrize("l", [0, 0.5, 1.5, 600.5])
    def test_bad_dimension_names_2l_plus_1_and_the_cap(self, l):
        dim = int(2 * l + 1)
        with pytest.raises(ValueError, match=f"^2l\\+1 = {dim} must be odd, from 3 to the dense-matrix cap 1001$"):
            build_space(l)

    def test_space_checks_itself_however_built(self):
        # BPSpace's own checks, not build_space's, so no route builds a space they refuse
        space = build_space(5, 0.6)
        with pytest.raises(ValueError, match="theta0 must be finite"):
            dataclasses.replace(space, theta0=math.nan)
        with pytest.raises(TypeError):
            dataclasses.replace(space, theta0=0.6j)
        with pytest.raises(ValueError, match="^2l\\+1 = 1003 exceeds the dense-matrix cap 1001$"):
            BPSpace(QParameter(MAX_DENSE_DIM + 2), 0.0)
        assert BPSpace(QParameter(11), 0.6) == space

    @pytest.mark.parametrize("dim", [11, 101, 1001])
    def test_stores_theta0_as_a_float(self, dim):
        # kept as float32, theta0 = 0.6 left cyclic-shift at 1.4e-7 (D = 11) to 1.3e-5 (D = 1001)
        space = build_space((dim - 1) // 2, np.float32(0.6))
        assert type(space.theta0) is float
        assert check_cyclic_shift(space) <= _bp_tolerance(dim)
        assert type(build_space(5, Fraction(3, 5)).theta0) is float

    @pytest.mark.parametrize("theta0", [1e6, -1e6, 2 * math.pi + 1e-9, 1e17])
    def test_rejects_theta0_past_two_pi(self, theta0):
        # at D = 11, theta0 = 1e6 already rounds the angle grid past quantum-plane's 1e-12 tier
        with pytest.raises(ValueError, match=r"theta0 must be finite, with \|theta0\| <= 2\*pi"):
            build_space(5, theta0)

    @pytest.mark.parametrize("theta0", [2 * math.pi, -2 * math.pi])
    def test_theta0_of_two_pi_builds_the_space_of_zero(self, theta0):
        # m is an integer, so theta0 and theta0 +- 2*pi give the same space, within the tier
        space = build_space(5, theta0)
        assert space.theta0 == theta0
        for name, check in BP_CHECKS:
            assert check(space) <= 1e-12, name

    def test_repr_builds_no_array(self):
        space = build_space(2, 0.6)
        assert repr(space) == f"BPSpace(qp={space.qp!r}, theta0=0.6)"
        assert vars(space).keys() == {"qp", "theta0"}
        check_quantum_plane(space)
        assert repr(space) == f"BPSpace(qp={space.qp!r}, theta0=0.6)"

    def test_stores_dimension_and_reference_angle_once(self):
        space = build_space(2, theta0=0.6)
        assert {f.name for f in dataclasses.fields(space)} == {"qp", "theta0"}
        assert space.dim == space.qp.dim == 5
        assert space.theta0 == 0.6


class TestQuantumPlane:
    @pytest.mark.parametrize("l", [1, 2, 5, 25])
    @pytest.mark.parametrize("theta0", [0.0, 0.6])
    def test_small_dims(self, l, theta0):
        assert check_quantum_plane(build_space(l, theta0)) <= 1e-12

    def test_l50(self):
        assert check_quantum_plane(build_space(50)) <= 1e-10


class TestCyclicShift:
    def test_l1_permutation(self):
        whole = whole_build_space(1, theta0=0.0)
        perm = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
        assert np.max(np.abs(whole.exp_iphi - perm)) < 1e-12

    def test_l2_permutation(self):
        whole = whole_build_space(2, theta0=0.0)
        perm = np.roll(np.eye(5, dtype=complex), 1, axis=0)
        assert np.max(np.abs(whole.exp_iphi - perm)) < 1e-12

    def test_corner_phase(self):
        whole = whole_build_space(1, theta0=math.pi / 3)
        assert abs(whole.exp_iphi[0, 2] - (-1.0)) < 1e-12

    @pytest.mark.parametrize("l", [1, 2, 5, 25])
    @pytest.mark.parametrize("theta0", [0.0, 0.6])
    def test_deviation_contract(self, l, theta0):
        assert check_cyclic_shift(build_space(l, theta0)) <= 1e-12


class TestInvariants:
    @pytest.mark.parametrize("l", [1, 2, 5, 25])
    @pytest.mark.parametrize("theta0", [0.0, 0.6])
    def test_unitarity_and_basis(self, l, theta0):
        space = build_space(l, theta0)
        assert check_unitarity(space) <= 1e-12
        assert check_angle_orthonormality(space) <= 1e-12
        assert check_angle_completeness(space) <= 1e-12

    @pytest.mark.parametrize("l", [1, 2, 5])
    def test_adjoint_lowers(self, l):
        assert check_cyclic_shift(build_space(l)) <= 1e-12
        # explicit: adjoint sends m=0 back to m=-l+... one step down
        whole = whole_build_space(l)
        down = whole.exp_iphi.conj().T @ basis_vector(whole.dim, 1)
        assert np.max(np.abs(down - basis_vector(whole.dim, 0))) < 1e-12

    @pytest.mark.parametrize("l,theta0", [(1, 0.0), (5, 0.0), (50, 0.6), (50, 0.0)])
    def test_shift_power_is_phase(self, l, theta0):
        assert check_shift_power(build_space(l, theta0)) <= 1e-10

    @pytest.mark.parametrize("l", [1, 2, 5, 25])
    def test_angle_state_cycling(self, l):
        assert check_angle_cycling(build_space(l, theta0=0.25)) <= 1e-12
        # overlap of the shifted state with its successor has modulus one
        whole = whole_build_space(l, theta0=0.25)
        shifted = whole.angle_basis[0] * whole.q_jz
        overlap = np.vdot(whole.angle_basis[1], shifted)
        assert abs(abs(overlap) - 1.0) < 1e-12


ORACLE_GRID = [(l, theta0) for l in (1, 2, 5, 25, 100) for theta0 in (0.0, 0.6, math.pi / 3)]


class TestDenseOracle:
    """The FFT-evaluated products against their dense O(D^3) forms."""

    @pytest.mark.parametrize("l,theta0", ORACLE_GRID)
    def test_exp_iphi_matches_dense_spectral_sum(self, l, theta0):
        whole = whole_build_space(l, theta0)
        dense = dense_exp_iphi(whole.angle_basis, theta0)
        assert np.max(np.abs(whole.exp_iphi - dense)) <= 1e-12

    @pytest.mark.parametrize("l,theta0", ORACLE_GRID)
    def test_checks_within_cli_tolerance(self, l, theta0):
        space, whole, oracle = build_space(l, theta0), whole_build_space(l, theta0), whole_build_space(l, theta0)
        oracle.exp_iphi = dense_exp_iphi(oracle.angle_basis, theta0)
        tol = _bp_tolerance(space.dim)
        for name, check in BP_CHECKS:
            assert check(space) <= tol, name
            assert WHOLE_CHECKS[name](oracle) <= tol, name
        for dense_check in (dense_unitarity, dense_orthonormality, dense_completeness):
            assert dense_check(whole) <= tol
            assert dense_check(oracle) <= tol

    @pytest.mark.parametrize("l", [1, 5, 25, 100])
    def test_unitarity_catches_one_perturbed_entry(self, monkeypatch, l):
        bumped = whole_build_space(l, 0.6)
        bumped.exp_iphi[l, l // 2] += 1e-9
        serve_rows(monkeypatch, bumped)
        assert check_unitarity(build_space(l, 0.6)) > 5e-10

    @pytest.mark.parametrize("l", [1, 5, 25, 100])
    def test_conjugated_basis_caught(self, monkeypatch, l):
        conjugated = whole_build_space(l, 0.6)
        conjugated.angle_basis = conjugated.angle_basis.conj()
        serve_rows(monkeypatch, conjugated)
        space = build_space(l, 0.6)
        assert check_angle_orthonormality(space) > 0.5
        assert check_angle_completeness(space) > 0.5
        # conj(A) is orthonormal and complete as well, so the dense Gram
        # forms alone pass it
        assert dense_orthonormality(conjugated) <= 1e-12
        assert dense_completeness(conjugated) <= 1e-12


class TestShiftPower:
    """The einsum power against ``np.linalg.matrix_power``, and no BLAS."""

    @pytest.mark.parametrize("theta0", [0.0, 0.6, math.pi / 3])
    @pytest.mark.parametrize("dim", [3, 5, 11, 21, 51, 53, 101])
    def test_matches_matrix_power_oracle(self, dim, theta0):
        space, whole = build_space((dim - 1) / 2, theta0), whole_build_space((dim - 1) / 2, theta0)
        assert abs(check_shift_power(space) - matrix_power_shift_power(whole)) <= 1e-15

    @pytest.mark.parametrize("dim", [3, 5, 51, 53, 101])
    def test_product_count_is_binary_exponentiation(self, monkeypatch, dim):
        # bench/spans.py counts bit_length - 1 squarings and popcount - 1 multiplies
        calls = []
        einsum = np.einsum
        monkeypatch.setattr(np, "einsum", lambda *args: calls.append(args[0]) or einsum(*args))
        check_shift_power(build_space((dim - 1) / 2))
        assert calls == ["ij,kj->ik"] * (dim.bit_length() - 1 + bin(dim).count("1") - 1)

    def test_leaves_no_thread_spinning(self):
        """A BLAS matmul at D = 101 leaves OpenBLAS's worker thread spinning
        on another core, about 135 ms of CPU in the next 0.3 s on 2 cores; the
        einsum power leaves none.  On one core OpenBLAS starts no worker, so
        there the test passes whatever the power uses.  The 0.5 s settle
        before the power lets the spin that follows OpenBLAS's start-up end,
        so the window times the power's aftermath only."""
        script = (
            "import resource, time\n"
            "from qrotor.bp_space import build_space, check_shift_power\n"
            "time.sleep(0.5)\n"
            "check_shift_power(build_space(50, 0.6))\n"
            "cpu = lambda: sum(resource.getrusage(resource.RUSAGE_SELF)[:2])\n"
            "before = cpu()\n"
            "time.sleep(0.3)\n"
            "print(cpu() - before)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, cwd=REPO_ROOT)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < 0.03


# Odd dims on both sides of one and two row blocks, and the largest space.
BLOCK_EDGE_DIMS = sorted({(_BLOCK_ROWS - 1) | 1, (_BLOCK_ROWS + 1) | 1, (2 * _BLOCK_ROWS + 1) | 1, MAX_DENSE_DIM})


def generated_arrays(space):
    """The whole angle basis and exp(i*Phi) of ``space``, each filled from
    ``_Blocks`` rows in the row blocks ``_blockwise`` hands out, as
    ``check_shift_power`` fills exp(i*Phi), and its q^{Jz} diagonal."""
    blocks, dim = bp_space._Blocks(space), space.dim
    basis, exp_iphi = np.empty((dim, dim), dtype=complex), np.empty((dim, dim), dtype=complex)
    bp_space._blockwise(dim, lambda rows: blocks.basis(blocks.n[rows], out=basis[rows]))
    bp_space._blockwise(dim, lambda rows: blocks.exp_iphi(blocks.columns(rows, out=exp_iphi[rows])))
    return {"angle_basis": basis, "exp_iphi": exp_iphi, "q_jz": blocks.q_jz}


class TestBlockedMatchesWholeMatrix:
    """Streaming over row blocks changes no bit of a deviation, and the block
    generator no bit of the whole arrays the tests read from
    ``whole_build_space``."""

    @pytest.mark.parametrize("theta0", [0.0, 0.6, math.pi / 3])
    @pytest.mark.parametrize("dim", BLOCK_EDGE_DIMS)
    def test_arrays_and_deviations_bit_identical(self, dim, theta0):
        whole = whole_build_space((dim - 1) // 2, theta0)
        expected = {name: WHOLE_CHECKS[name](whole) for name, _ in BP_CHECKS}
        assert {name: check(build_space((dim - 1) // 2, theta0)) for name, check in BP_CHECKS} == expected

    @pytest.mark.parametrize("cores", [1, 3])
    @pytest.mark.parametrize("theta0", [0.0, 0.6, math.pi / 3])
    @pytest.mark.parametrize("dim", BLOCK_EDGE_DIMS)
    def test_generator_rows_build_the_whole_arrays(self, monkeypatch, dim, theta0, cores):
        force_cores(monkeypatch, cores)
        whole = whole_build_space((dim - 1) // 2, theta0)
        for name, array in generated_arrays(build_space((dim - 1) // 2, theta0)).items():
            assert np.array_equal(array, getattr(whole, name)), name


class TestSpaceHoldsNoArray:
    @pytest.mark.parametrize("theta0", [0.0, 0.6])
    @pytest.mark.parametrize("dim", [3, 5, 11, 51, 101])
    def test_checks_leave_no_array_on_the_space(self, dim, theta0):
        space = build_space((dim - 1) // 2, theta0)
        for _, check in BP_CHECKS:
            check(space)
        power = check_shift_power(space)
        assert not any(isinstance(value, np.ndarray) for value in vars(space).values())
        assert check_shift_power(build_space((dim - 1) // 2, theta0)) == power


NAN_DIM = 2 * _BLOCK_ROWS + 1  # three row blocks, the last of one row
NAN_CHECKS = {
    "exp_iphi": ("quantum-plane", "cyclic-shift", "unitarity"),
    "angle_basis": ("angle-orthonormality", "angle-completeness", "angle-cycling"),
}


def _with_nan(theta0, name):
    """The whole arrays of the NAN_DIM space at ``theta0``, with its array
    ``name`` NaN in the last entry, which lies in the last row block and, for
    the completeness check, the last column block."""
    record = whole_build_space((NAN_DIM - 1) // 2, theta0)
    getattr(record, name)[-1, -1] = math.nan
    return record


class TestNaNPropagates:
    @pytest.mark.parametrize("array", sorted(NAN_CHECKS))
    def test_checks_return_nan(self, monkeypatch, array):
        serve_rows(monkeypatch, _with_nan(0.6, array))
        space = build_space((NAN_DIM - 1) // 2, 0.6)
        for name, check in BP_CHECKS:
            if name in NAN_CHECKS[array]:
                assert math.isnan(check(space)), name
            else:
                assert check(space) <= _bp_tolerance(NAN_DIM), name

    @pytest.mark.parametrize("array", sorted(NAN_CHECKS))
    def test_verify_fails(self, array, tmp_path, monkeypatch, capsys):
        serve_rows(monkeypatch, *(_with_nan(theta0, array) for theta0 in (0.0, 0.6)))
        out = tmp_path / "verify.txt"
        assert main(["verify", "--max-dim", str(NAN_DIM), "-o", str(out)]) == 1
        failed = [line for line in out.read_text().splitlines() if line.endswith(" FAIL")]
        assert [line.split()[0] for line in failed] == [
            name for _ in (0.0, 0.6) for name, _ in BP_CHECKS if name in NAN_CHECKS[array]
        ]
        assert all("dev=nan" in line for line in failed)
        assert capsys.readouterr().err.count("deviation nan exceeds") == len(failed)


class TestAngleBasisAccuracy:
    @pytest.mark.parametrize("theta0", [0.0, 0.6])
    def test_entries_match_mpmath(self, theta0):
        l = 500
        dim = 2 * l + 1
        blocks = bp_space._Blocks(build_space(l, theta0))
        rng = np.random.default_rng(20261018)
        rows = [*rng.integers(0, dim, 300), dim - 1, dim - 1, dim // 2]
        cols = [*rng.integers(0, dim, 300), 0, dim - 1, 0]  # the last three: largest |n*m|
        entries = blocks.basis(blocks.n[rows], out=np.empty((len(rows), dim), dtype=complex))[range(len(rows)), cols]
        with mpmath.workdps(40):
            scale = 1 / mpmath.sqrt(dim)
            worst = 0.0
            for n, k, entry in zip(rows, cols, entries.tolist()):
                theta_n = mpmath.mpf(theta0) + 2 * mpmath.pi * n / dim
                exact = mpmath.expj(-(k - l) * theta_n) * scale
                worst = max(worst, float(abs(mpmath.mpc(entry) - exact)))
        assert worst <= 2e-15


MEMORY_DIM = 501
# One complex block of rows plus the float modulus array of its max-norm.
BLOCK_BUDGET = 24 * _BLOCK_ROWS * MEMORY_DIM
# Allowance for phase vectors, FFT plan caches and work buffers and Python
# objects; at D = 501 they take about 30 KB per check and 0.22 MB per verify
# run.
CHECK_SLACK = 64 * 1024
RUN_SLACK = 1024 * 1024
# The two buffers the pass generates a block's inputs into and works in: one
# of its rows of the angle basis and the row after them, then of its columns,
# and one of its rows of exp(i*Phi).
GENERATED_BLOCKS = 16 * (2 * _BLOCK_ROWS + 1) * MEMORY_DIM


def _traced_peak(func, *args) -> int:
    """Peak bytes ``func(*args)`` allocates, as numpy reports its buffers
    to tracemalloc; what was allocated before the call does not count."""
    tracemalloc.start()
    try:
        func(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _checks_peak() -> int:
    """Traced peak of the six checks of a fresh D = MEMORY_DIM space, after a
    warm-up space's checks have loaded numpy's FFT module and plan cache."""
    check_quantum_plane(build_space((MEMORY_DIM - 1) // 2, 0.6))
    space = build_space((MEMORY_DIM - 1) // 2, 0.6)
    # the first check runs the pass, which also holds the generator's
    # phase and root vectors; the others return its deviations
    return _traced_peak(lambda: [check(space) for _, check in BP_CHECKS])


class TestMemory:
    def test_checks_generate_one_block_of_each_input(self):
        assert _checks_peak() <= GENERATED_BLOCKS + BLOCK_BUDGET + 2 * CHECK_SLACK

    def test_verify_keeps_one_space_alive(self, tmp_path):
        # no space stores a D x D array, so the run holds one pass's blocks
        peak = _traced_peak(main, ["verify", "--max-dim", str(MEMORY_DIM), "-o", str(tmp_path / "verify.txt")])
        assert peak <= GENERATED_BLOCKS + BLOCK_BUDGET + RUN_SLACK


def force_cores(monkeypatch, cores):
    """Make the process see ``cores`` usable cores."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)


def count_threads(monkeypatch) -> list:
    """The threads ``bp_space`` starts from now on, as they start."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(bp_space.threading, "Thread", Counted)
    return started


class TestThreads:
    """Threads change which rows a block holds, never a bit of the result."""

    @pytest.mark.parametrize("cores", [1, 3])
    def test_arrays_and_deviations_match_the_serial_whole_matrix(self, monkeypatch, cores):
        force_cores(monkeypatch, cores)
        started = count_threads(monkeypatch)
        for theta0 in (0.0, 0.6):
            space, whole = build_space(500, theta0), whole_build_space(500, theta0)
            for name, check in BP_CHECKS:
                assert check(space) == WHOLE_CHECKS[name](whole), (name, theta0)
        # one pass over each space, each on this thread and one more where a
        # second core is usable: a third core starts no third thread
        assert len(started) == 2 * (min(cores, 2) - 1)

    def test_checks_share_two_generated_blocks(self, monkeypatch):
        force_cores(monkeypatch, 3)
        assert _checks_peak() <= GENERATED_BLOCKS + BLOCK_BUDGET + 2 * CHECK_SLACK

    @pytest.mark.parametrize("dim,threads", [(_THREADED_MIN_DIM - 2, 0), (_THREADED_MIN_DIM, 1)])
    def test_small_spaces_stay_serial(self, monkeypatch, dim, threads):
        force_cores(monkeypatch, 3)
        started = count_threads(monkeypatch)
        check_cyclic_shift(build_space((dim - 1) // 2))
        assert len(started) == threads  # the one pass of the space

    def test_cores_from_affinity_or_cpu_count(self, monkeypatch):
        force_cores(monkeypatch, 3)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert bp_space._cores() == 3
        monkeypatch.delattr(os, "sched_getaffinity")  # as on macOS
        assert bp_space._cores() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert bp_space._cores() == 1

    # blocks go out in turn to two threads: the third to this one, the fourth to the started one
    @pytest.mark.parametrize("failing", [2, 3], ids=["third-block", "fourth-block"])
    def test_error_reaches_the_caller_after_every_thread_joined(self, monkeypatch, failing):
        force_cores(monkeypatch, 3)
        started = count_threads(monkeypatch)
        size = _BLOCK_ROWS // 2
        done = []

        def work(rows):
            if rows.start == failing * size:
                raise ArithmeticError(rows.start)
            # the started thread outlasts this one, which would otherwise return first
            time.sleep(0.001 if threading.current_thread() is threading.main_thread() else 0.004)
            done.append(rows.start)

        with pytest.raises(ArithmeticError):
            bp_space._blockwise(MAX_DENSE_DIM, work)
        assert len(started) == 1
        assert not started[0].is_alive()
        # every block of the other thread was worked through
        assert set(range((failing + 1) % 2 * size, MAX_DENSE_DIM, 2 * size)) <= set(done)

    def test_many_cores_start_one_thread_and_lose_no_result(self, monkeypatch):
        # an affinity set may report many cores, whatever the CPU quota
        force_cores(monkeypatch, 64)
        started = count_threads(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                starts = bp_space._blockwise(MAX_DENSE_DIM, lambda rows: rows.start)
                assert starts == list(range(0, MAX_DENSE_DIM, 32))
        finally:
            sys.setswitchinterval(interval)
        assert len(started) == 20

    def test_threads_keep_the_callers_error_handling(self, monkeypatch):
        force_cores(monkeypatch, 2)

        def work(rows):
            if rows.start == _BLOCK_ROWS // 2:  # the started thread's first block
                return np.ones(1) / np.zeros(1)

        with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
            bp_space._blockwise(MAX_DENSE_DIM, work)

    def test_first_error_by_block_is_raised(self, monkeypatch):
        force_cores(monkeypatch, 2)

        def work(rows):
            if rows.start > 0:
                time.sleep(0.01 if rows.start < 3 * _BLOCK_ROWS else 0.0)
                raise ArithmeticError(rows.start)

        with pytest.raises(ArithmeticError) as exc_info:
            bp_space._blockwise(MAX_DENSE_DIM, work)
        assert exc_info.value.args == (_BLOCK_ROWS // 2,)


def test_import_does_not_load_numpy_fft():
    """No qrotor module loads ``numpy.fft`` at import; ``qrotor.cli`` loads no numpy, so every module is named."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    modules = ", ".join(f"qrotor.{name}" for name in ("cli", "bp_space", "suq2", "fit", "ingest", "model"))
    proc = subprocess.run(
        [sys.executable, "-c", f"import {modules}, sys; assert 'numpy.fft' not in sys.modules"],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
