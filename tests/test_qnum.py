import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference_ingest import _twice_spin
from qrotor import qnum
from qrotor.fit import _fit
from qrotor.ingest import write_report
from qrotor.model import BandData, Bands
from qrotor.qnum import QParameter, bracket, casimir_eigenvalue, qbracket

DY_DIM = 189
YB_DIM = 231

odd_dims = st.integers(min_value=1, max_value=2000).map(lambda k: 2 * k + 1)
# QParameter's bound: the tau rule's largest dimension.
LARGEST_DIM = (2 * qnum.MAX_SPIN + 1) * (qnum.MAX_SPIN + 1)


class TestQParameter:
    def test_from_dim(self):
        qp = QParameter.from_dim(DY_DIM)
        assert qp.dim == DY_DIM
        assert qp.tau == 2.0 * math.pi / DY_DIM

    @given(odd_dims | st.integers(min_value=1, max_value=LARGEST_DIM // 2).map(lambda k: 2 * k + 1))
    def test_tau_is_two_pi_over_dim_bit_for_bit(self, dim):
        assert QParameter.from_dim(dim).tau == 2.0 * math.pi / dim

    def test_q_is_pure_phase(self):
        qp = QParameter.from_dim(DY_DIM)
        assert abs(abs(qp.q) - 1.0) < 1e-15
        assert qp.q.imag > 0

    @pytest.mark.parametrize("dim", [1, 2, 4, 0, -3, 188, 5.5, math.inf, math.nan])
    def test_rejects_bad_dims(self, dim):
        with pytest.raises(ValueError):
            QParameter.from_dim(dim)

    def test_dim_is_the_only_field(self):
        assert [f.name for f in dataclasses.fields(QParameter)] == ["dim"]
        assert QParameter(189) == QParameter.from_dim(189)
        with pytest.raises(TypeError):
            QParameter(tau=0.0332, dim=189)

    @pytest.mark.parametrize("dim", [10**400 + 1, 2**1025 + 1], ids=["10**400+1", "2**1025+1"])
    def test_rejects_dims_too_large_for_a_float(self, dim):
        with pytest.raises(ValueError, match="odd integer from 3"):
            QParameter.from_dim(dim)
        with pytest.raises(ValueError, match="odd integer from 3"):
            QParameter(dim)

    @pytest.mark.parametrize(
        "dim,digits",
        [(10**5000 + 1, 5001), (10**400 + 1, 401), (10**400 - 1, 400), (-(10**30), 31)],
        ids=["10**5000+1", "10**400+1", "10**400-1", "-10**30"],
    )
    def test_long_integer_named_by_digit_count(self, dim, digits):
        with pytest.raises(ValueError, match="odd integer from 3") as info:
            QParameter.from_dim(dim)
        assert str(info.value).endswith(f"got an integer of {digits} digits")
        assert len(str(info.value)) < 100

    def test_short_integer_printed_in_full(self):
        with pytest.raises(ValueError, match=r"got 10000000000000000000$"):
            QParameter.from_dim(10**19)

    @pytest.mark.parametrize("dim", [189.0, np.int64(189)], ids=["float", "numpy-int64"])
    def test_integral_dim_stored_as_int(self, dim):
        for qp in (QParameter(dim), QParameter.from_dim(dim)):
            assert type(qp.dim) is int and qp == QParameter(DY_DIM)
        band = BandData.from_levels("dy", [(j, 12.8 * j * (j + 1)) for j in range(2, 20, 2)])
        doc = json.loads(write_report(_fit(Bands.of([band]), [[0], [qp.dim]]), as_json=True))
        assert doc[0]["dim"] == DY_DIM and doc[0]["tau"] == 2.0 * math.pi / DY_DIM

    def test_from_dim_checks_once(self, monkeypatch):
        checked = []
        monkeypatch.setattr(qnum, "_check_dim", checked.append)
        QParameter.from_dim(DY_DIM)
        assert checked == [DY_DIM]

    def test_frozen(self):
        qp = QParameter.from_dim(5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            qp.tau = 1.0


def _sequential_twice_spin(j):
    try:
        return _twice_spin(j)
    except ValueError:
        return None


# Spins on and off the half-integer grid, where a float can hold a fraction,
# on both sides of the cap, 2**30; and integral floats from 2**52 up, far past
# the cap, whose doubles reach past the largest float.
FRACTIONAL_RANGE = [0.0, -0.0, 0.5, -0.5, 2.5, 7.5, 0.3, 0.25, 0.5 + 1e-10, 0.5 + 1e-8, 2.0**30 - 0.5,
                    2.0**30, -(2.0**30), 2.0**30 + 0.5, -(2.0**30) - 0.5, 2.0**30 + 1, 2.0**51 + 0.5,
                    2.0**52 - 0.5, math.inf, -math.inf, math.nan]
INTEGRAL_RANGE = [2.0**52, 2.0**53, 9007199254740993.0, 1e16, 1e300, 1e308, -1e308, 1.7976931348623157e308]


class TestGridColumn:
    @pytest.mark.parametrize("spins", [FRACTIONAL_RANGE, INTEGRAL_RANGE, FRACTIONAL_RANGE + INTEGRAL_RANGE],
                             ids=["fractional", "integral", "both"])
    def test_agrees_with_sequential_rule(self, spins):
        got = [qnum.on_grid(j) for j in spins]
        assert all(value is None or type(value) is int for value in got)
        assert got == [_sequential_twice_spin(j) for j in spins]
        for j, value in zip(spins, got):
            if value is None:
                with pytest.raises(ValueError):
                    qnum.twice_spin(j)
            else:
                assert qnum.twice_spin(j) == value


class TestQBracket:
    @given(odd_dims)
    def test_anchors_exact(self, dim):
        qp = QParameter.from_dim(dim)
        assert qbracket(0.0, qp) == 0.0
        assert qbracket(1.0, qp) == 1.0

    def test_two_at_dy_dim(self):
        qp = QParameter.from_dim(DY_DIM)
        # independent route: sin(2t)/sin(t) = 2 cos(t)
        assert qbracket(2.0, qp) == pytest.approx(2.0 * math.cos(qp.tau), abs=1e-15)
        assert qbracket(2.0, qp) == pytest.approx(1.9988949138653513, abs=1e-12)

    @given(st.floats(min_value=-1e4, max_value=1e4), odd_dims)
    def test_antisymmetry(self, x, dim):
        qp = QParameter.from_dim(dim)
        assert qbracket(-x, qp) == pytest.approx(-qbracket(x, qp), abs=1e-12)

    def test_rejects_non_finite(self):
        qp = QParameter.from_dim(5)
        with pytest.raises(ValueError):
            qbracket(math.inf, qp)
        with pytest.raises(ValueError):
            qbracket(math.nan, qp)

    def test_positive_in_operating_regime(self):
        # space far larger than any spin: every [j] stays positive
        for dim in (DY_DIM, YB_DIM, 435, 1083):
            qp = QParameter.from_dim(dim)
            j = 0.5
            while qp.tau * (j + 1.0) < math.pi:
                assert qbracket(j, qp) > 0.0
                j += 0.5

    @pytest.mark.parametrize("x", [2.0, 4.0, 8.0])
    def test_classical_limit_monotone(self, x):
        errors = [abs(qbracket(x, QParameter.from_dim(d)) - x) for d in (101, 1001, 10001)]
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 1e-4

    def test_classical_limit_tight_at_huge_dim(self):
        qp = QParameter.from_dim(1_000_001)
        assert abs(qbracket(4.0, qp) - 4.0) < 1e-9


class TestClassicalBracket:
    """``bracket`` at tau = 0: the identity map."""

    @pytest.mark.parametrize("x,expected", [(7.0, 7.0), (0.0, 0.0), (-3.5, -3.5)])
    def test_identity(self, x, expected):
        assert bracket(x, 0.0) == expected

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            bracket(math.inf, 0.0)


class TestBracketColumn:
    def test_broadcasts_elementwise(self):
        x = np.array([0.0, 1.0, 2.5, -7.0, 40.0])
        tau = np.array([2.0 * math.pi / d for d in (5, 189, 231, 1001)])
        column = bracket(x[:, None], tau[None, :])
        assert column.shape == (5, 4)
        for i, xv in enumerate(x.tolist()):
            for k, t in enumerate(tau.tolist()):
                assert column[i, k] == pytest.approx(math.sin(t * xv) / math.sin(t), rel=1e-14, abs=1e-15)

    def test_zero_tau_entries_are_exact(self):
        x = np.array([0.5, 3.0, 1e300, -2.0])
        tau = np.array([0.0, 0.1, 0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = bracket(x, tau)
        assert out[[0, 2, 3]].tolist() == [0.5, 1e300, -2.0]
        assert out[1] == math.sin(0.1 * 3.0) / math.sin(0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_any_non_finite_entry(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            bracket(np.array([1.0, bad, 2.0]), 0.1)


class TestCasimirEigenvalue:
    @given(odd_dims)
    def test_zero_spin(self, dim):
        assert casimir_eigenvalue(0.0, QParameter.from_dim(dim)) == 0.0

    def test_spin_one_at_dy_dim(self):
        qp = QParameter.from_dim(DY_DIM)
        assert casimir_eigenvalue(1.0, qp) == pytest.approx(1.9988949138653513, abs=1e-12)

    def test_spin_two_at_dy_dim(self):
        qp = QParameter.from_dim(DY_DIM)
        # independent route via a product-to-sum identity:
        # [2][3] = (cos t - cos 5t) / (2 sin^2 t)
        oracle = (math.cos(qp.tau) - math.cos(5 * qp.tau)) / (2 * math.sin(qp.tau) ** 2)
        assert casimir_eigenvalue(2.0, qp) == pytest.approx(oracle, rel=1e-13)
        assert casimir_eigenvalue(2.0, qp) == pytest.approx(5.987851378461507, abs=1e-12)

    def test_half_integer_spin_at_yb_dim(self):
        qp = QParameter.from_dim(YB_DIM)
        oracle = (math.cos(qp.tau) - math.cos(6 * qp.tau)) / (2 * math.sin(qp.tau) ** 2)
        assert casimir_eigenvalue(2.5, qp) == pytest.approx(oracle, rel=1e-13)
        assert casimir_eigenvalue(2.5, qp) == pytest.approx(8.732210809401014, abs=1e-12)

    def test_classical_variant(self):
        assert casimir_eigenvalue(2.0, None) == 6.0
        assert casimir_eigenvalue(7.5, None) == 7.5 * 8.5

    def test_rejects_negative_spin(self):
        with pytest.raises(ValueError):
            casimir_eigenvalue(-1.0, QParameter.from_dim(5))

    @pytest.mark.parametrize("qp", [None, QParameter.from_dim(DY_DIM)], ids=["classical", "deformed"])
    @pytest.mark.parametrize("j,message", [
        (1e200, "spin 1e+200 exceeds 1073741824"), (2.0**30 + 0.5, "spin 1073741824.5 exceeds 1073741824"),
        (-1e200, "spin -1e+200 exceeds 1073741824"), (math.nan, "spin must be finite, got nan"),
        (math.inf, "spin must be finite, got inf"), (10**400, "spin an integer of 401 digits exceeds 1073741824"),
    ], ids=["1e200", "cap+0.5", "-1e200", "nan", "inf", "10**400"])
    def test_rejects_spin_not_finite_or_past_the_cap(self, j, message, qp):
        # a spin error, never an inf eigenvalue
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            casimir_eigenvalue(j, qp)

    @settings(max_examples=50)
    @given(st.integers(min_value=1, max_value=30), odd_dims.filter(lambda d: d >= 101))
    def test_below_classical(self, j, dim):
        # the deformation compresses every multiplet above the trivial ones
        qp = QParameter.from_dim(dim)
        if qp.tau * (j + 1) < math.pi:
            assert casimir_eigenvalue(j, qp) <= j * (j + 1)
