import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qrotor.ingest import parse_band, read_bands, write_band
from qrotor.model import (
    BandData,
    BandError,
    _series_dim,
    energy,
    q_parameter_from_band,
    space_dims,
    space_size,
    spin_str,
    twice_spin,
)
from qrotor.qnum import MAX_SPIN, QParameter, RegimeError, in_regime


def make_band(spins, energies, name="test"):
    return BandData.from_levels(name, list(zip(spins, energies)))


@st.composite
def series_to_the_cap(draw):
    """(head twice-spin, twice-step, level count) of a band whose spins stay
    within the cap."""
    count = draw(st.integers(3, 40))
    step = draw(st.integers(1, 2 * MAX_SPIN // (count - 1)))
    return draw(st.integers(0, 2 * MAX_SPIN - step * (count - 1))), step, count


MALFORMED_RANGES = {
    (4, 2, 2): "spin range 4..2 is not aligned with step 2",
    (2, 7, 2): "spin range 2..7 is not aligned with step 2",
    (2, 8, 0): "step must be positive, got 0",
    (2, 8, -2): "step must be positive, got -2",
    (-2, 2, 2): "j_min must be nonnegative, got -2",
}

DY_BAND = make_band(range(2, 19, 2), [80.66, 265.785, 548.519, 920.501, 1374.57,
                                      1901.3, 2491.2, 3141.4, 3846.2], name="162Dy")


class TestSpinHelpers:
    @pytest.mark.parametrize("j,twoj", [(2, 4), (7.5, 15), (0, 0), (0.5, 1)])
    def test_twice_spin(self, j, twoj):
        assert twice_spin(j) == twoj

    def test_twice_spin_rejects_off_grid(self):
        with pytest.raises(ValueError):
            twice_spin(0.3)

    @pytest.mark.parametrize("j", [math.inf, -math.inf, math.nan])
    def test_twice_spin_rejects_non_finite(self, j):
        with pytest.raises(ValueError):
            twice_spin(j)

    @pytest.mark.parametrize("j", [1e308, -1e308, 1.7976931348623157e308, 1e300, 1e16, 2.0**53, 2.0**52])
    def test_twice_spin_of_integral_float(self, j):
        # every float of magnitude 2**52 or more is an integer, and far past
        # the spin cap, even where 2.0 * j overflows
        with pytest.raises(ValueError, match=f"^spin {re.escape(str(j))} exceeds 1073741824$"):
            twice_spin(j)

    def test_twice_spin_at_the_cap(self):
        assert MAX_SPIN == 2**30
        assert (twice_spin(2**30), twice_spin(-(2**30)), twice_spin(2**30 - 0.5)) == (2**31, -(2**31), 2**31 - 1)
        for j in (2**30 + 0.5, 2**30 + 1, -(2**30) - 1, 2**70, -(10**400)):
            with pytest.raises(ValueError, match="exceeds 1073741824$"):
                twice_spin(j)

    @pytest.mark.parametrize("twoj,text", [(4, "2"), (15, "7.5"), (0, "0"), (1, "0.5")])
    def test_spin_str(self, twoj, text):
        assert spin_str(twoj) == text


class TestSpaceSize:
    def test_dy_range(self):
        assert space_size(2, 18, 2) == 189

    def test_yb_range_even_sum_bumped(self):
        # raw sum 230 is even, so the next odd number is used
        assert space_size(2, 20, 2) == 231

    def test_u_range(self):
        assert space_size(2, 28, 2) == 435

    def test_degenerate_single_level(self):
        assert space_size(0, 0, 2) == 1

    def test_half_integer_range(self):
        # per-level dimensions 2j+1 are even, parity bump applies to the sum
        total = sum(2 * j + 1 for j in (7.5, 9.5, 11.5))
        assert total == 60
        assert space_size(7.5, 11.5, 2) == 61

    @pytest.mark.parametrize("args", list(MALFORMED_RANGES))
    def test_rejects_malformed_ranges(self, args):
        with pytest.raises(ValueError, match=f"^{MALFORMED_RANGES[args]}$"):
            space_size(*args)

    @pytest.mark.parametrize("j_min", [0, 0.5, 1.5, 4])
    @pytest.mark.parametrize("step", [0.5, 1, 2])
    def test_closed_form_matches_level_loop(self, j_min, step):
        a, s = twice_spin(j_min), twice_spin(step)
        for count in range(1, 81):
            j_max = j_min + (count - 1) * step
            total = sum(twoj + 1 for twoj in range(a, twice_spin(j_max) + 1, s))
            assert space_size(j_min, j_max, step) == (total if total % 2 else total + 1)

    @given(st.integers(0, 20), st.integers(1, 6), st.integers(0, 12))
    def test_always_odd(self, twice_jmin, twice_step, extra_steps):
        j_min = twice_jmin / 2.0
        step = twice_step / 2.0
        j_max = j_min + extra_steps * step
        assert space_size(j_min, j_max, step) % 2 == 1

    @given(st.integers(0, 20), st.integers(1, 6), st.integers(0, 12))
    def test_parity_bump_changes_at_most_one(self, twice_jmin, twice_step, extra_steps):
        j_min = twice_jmin / 2.0
        step = twice_step / 2.0
        j_max = j_min + extra_steps * step
        raw = sum(twice_spin(j_min + k * step) + 1 for k in range(extra_steps + 1))
        assert 0 <= space_size(j_min, j_max, step) - raw <= 1


class TestQParameterFromBand:
    def test_dy_value(self):
        qp = q_parameter_from_band(DY_BAND)
        assert qp.dim == 189
        assert qp.tau == pytest.approx(0.033244366704653895, abs=1e-15)
        assert f"{qp.tau:.4f}" == "0.0332"

    def test_u_like_value_near_published(self):
        band = make_band(range(2, 29, 2), [44.9 * k * k for k in range(1, 15)], name="238U-like")
        qp = q_parameter_from_band(band)
        assert qp.dim == 435
        assert abs(qp.tau - 0.0145) / 0.0145 < 0.02

    def test_bigger_band_smaller_tau(self):
        small = make_band([2, 4, 6], [100, 330, 700])
        big = make_band(range(2, 19, 2), [100 * k * k for k in range(1, 10)])
        assert q_parameter_from_band(big).tau < q_parameter_from_band(small).tau

    # Three levels or more give j_max >= 2s, s the spin step, so
    # dim >= 6*j_max - 6s + 3 >= 3*j_max + 3 > 2*(j_max + 1): the margin
    # tau*(j_max + 1)/pi = (2*j_max + 2)/dim is at most 2/3, reached by
    # spins 0, 1, 2.
    @given(series_to_the_cap())
    @example((0, 2, 3))
    @example((0, MAX_SPIN, 3))
    @example((2 * MAX_SPIN - 39, 1, 40))
    def test_rule_tau_stays_in_regime(self, series):
        head, step, count = series
        twoj = [head + k * step for k in range(count)]
        band = BandData("x", [(t, float(k)) for k, t in enumerate(twoj)])
        dims = space_dims([band])
        assert dims.dtype == np.int64 and dims.tolist() == [sum(t + 1 for t in twoj) | 1]
        qp = QParameter(int(dims[0]))
        twoj_max = twoj[-1]
        assert 3 * (twoj_max + 2) <= 2 * qp.dim
        assert in_regime(qp.tau, twoj_max / 2)

    def test_largest_series_dim_is_odd_and_below_2_62(self):
        # every twice-spin from 0 to the cap's 2**31: the largest sum a valid band can reach
        column = _series_dim(*np.array([[0], [1], [2**31 + 1]], dtype=np.int64))
        assert column.dtype == np.int64
        dim = int(column[0])
        assert dim == (2**31 + 1) * (2**31 + 2) // 2  # the exact sum of (twice-spin + 1)
        assert dim % 2 == 1 and dim < 2**62
        assert QParameter(dim).dim == dim

    @given(st.integers(0, 10), st.integers(1, 4), st.integers(2, 12))
    def test_band_tau_below_half_pi(self, twice_jmin, twice_step, extra):
        # any fittable band yields 0 < tau < pi/2
        spins = [(twice_jmin + k * twice_step) / 2.0 for k in range(extra + 1)]
        band = make_band(spins, [10.0 * (k + 1) ** 2 for k in range(len(spins))])
        qp = q_parameter_from_band(band)
        assert 0.0 < qp.tau < math.pi / 2


class TestEnergy:
    def test_zero_spin(self):
        assert energy(0.0, 12.81, QParameter.from_dim(189)) == 0.0

    def test_classical(self):
        assert energy(2.0, 10.0, None) == pytest.approx(60.0, abs=1e-12)

    def test_deformed_dy_value(self):
        # frozen from the product-to-sum identity oracle in test_qnum
        assert energy(2.0, 12.81, QParameter.from_dim(189)) == pytest.approx(
            76.7043761580919, abs=1e-9
        )

    def test_rejects_nonpositive_a(self):
        with pytest.raises(ValueError):
            energy(2.0, 0.0, None)
        with pytest.raises(ValueError):
            energy(2.0, -1.0, None)
        for A in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"^inertia parameter A must be positive and finite, got {A}$"):
                energy(2.0, A, None)

    @pytest.mark.parametrize("qp", [None, QParameter.from_dim(189)], ids=["classical", "deformed"])
    @pytest.mark.parametrize("j,message", [
        (1e200, "spin 1e+200 exceeds 1073741824"), (2.0**30 + 1, "spin 1073741825.0 exceeds 1073741824"),
        (math.nan, "spin must be finite, got nan"), (math.inf, "spin must be finite, got inf"),
        (-math.inf, "spin must be finite, got -inf"), (10**400, "spin an integer of 401 digits exceeds 1073741824"),
    ], ids=["1e200", "cap+1", "nan", "inf", "-inf", "10**400"])
    def test_rejects_spin_not_finite_or_past_the_cap(self, j, message, qp):
        # a spin error, not a RegimeError or an inf energy
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as exc_info:
            energy(j, 1.0, qp)
        assert type(exc_info.value) is ValueError

    def test_rejects_regime_violation(self):
        with pytest.raises(RegimeError):
            energy(2.0, 1.0, QParameter.from_dim(5))

    @pytest.mark.parametrize("j,A", [(2**30, 1e300), (1000.0, 1e303), (2.0, 1.7e308)])
    def test_rejects_overflowing_energy(self, j, A):
        with pytest.raises(ValueError, match=f"^{re.escape(f'energy at j={j} with A={A} overflows')}$"):
            energy(j, A, None)

    def test_monotone_in_operating_regime(self):
        qp = q_parameter_from_band(DY_BAND)
        values = [energy(j, 12.81, qp) for j in DY_BAND.spins]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_below_classical_for_j_at_least_two(self):
        qp = q_parameter_from_band(DY_BAND)
        for j in range(2, 19, 2):
            assert energy(j, 12.81, qp) < 12.81 * j * (j + 1)

    def test_sign_of_tau_is_immaterial(self):
        # the energy formula made of sines is even in tau, so the shift
        # operator's opposite sign convention cannot leak into energies
        tau = 2.0 * math.pi / 189
        j = 6.0
        plus = math.sin(tau * j) * math.sin(tau * (j + 1)) / math.sin(tau) ** 2
        minus = math.sin(-tau * j) * math.sin(-tau * (j + 1)) / math.sin(-tau) ** 2
        assert plus == pytest.approx(minus, rel=1e-15)

    def test_deformed_approaches_classical(self):
        qp = QParameter.from_dim(100001)
        for j in (2.0, 4.0, 6.0):
            assert abs(energy(j, 5.0, None) - energy(j, 5.0, qp)) < 1e-4


class TestTauRuleExactness:
    # (head spin, spin step, level count).  Up to the spin cap the dimension
    # is the exact series sum; reading a band past it gives the cap
    # diagnostic at the line of its first spin past the cap.
    @pytest.mark.parametrize("j_min,step,count", [
        (1e18, 128.0, 5), (2e18, 256.0, 3), (2.0**62, 2.0**10, 3), (2.0**51, 2.0**39, 2000), (1e16, 2.0, 3),
        (1e300, 2.0**950, 3), (2.0**30 - 2, 1.0, 3), (2.0**30 - 1999 * 2.0**10, 2.0**10, 2000),
        (0.0, 2.0**29, 3), (2.0**30 - 19.5, 0.5, 40), (2.0**30 - 1, 0.5, 4),
    ], ids=["1e18", "2e18", "2**62", "2000-levels", "1e16", "1e300", "cap", "cap-2000-levels", "cap-wide-step",
            "cap-half-step", "past-cap"])
    def test_dim_is_the_exact_series_sum(self, tmp_path, j_min, step, count):
        spins = [j_min + k * step for k in range(count)]
        path = tmp_path / "band.band"
        path.write_text("# nucleus: x\n" + "".join(f"{j!r} {k}\n" for k, j in enumerate(spins)))
        (fault,), read = read_bands([path])
        if spins[-1] > MAX_SPIN:
            past = next(k for k, j in enumerate(spins) if j > MAX_SPIN)
            assert str(fault) == f"line {past + 2}: spin '{spins[past]!r}' exceeds 1073741824"
            with pytest.raises(ValueError, match="exceeds 1073741824$"):
                make_band(spins, [float(k) for k in range(count)])
            return
        assert fault is None
        band = make_band(spins, [float(k) for k in range(count)])
        a, s = twice_spin(j_min), twice_spin(step)
        dim = sum(twoj + 1 for twoj in range(a, a + count * s, s)) | 1
        for got in (space_dims([band, DY_BAND])[0], space_dims([band])[0], space_dims(read)[0]):
            assert got == dim
        assert q_parameter_from_band(band) == QParameter(dim)
        assert space_dims([DY_BAND, band])[0] == q_parameter_from_band(DY_BAND).dim


class TestBandData:
    def test_from_levels_infers_step(self):
        assert DY_BAND.twostep == 4
        assert DY_BAND.step == 2.0
        assert DY_BAND.j_min == 2.0
        assert DY_BAND.j_max == 18.0

    def test_half_integer_band(self):
        band = make_band([7.5, 9.5, 11.5], [100.0, 300.0, 600.0])
        assert [twoj for twoj, _ in band.levels] == [15, 19, 23]
        assert band.step == 2.0

    def test_rejects_fewer_than_three_levels(self):
        with pytest.raises(BandError, match="3 levels"):
            make_band([2, 4], [10.0, 30.0])

    def test_rejects_inconsistent_step(self):
        with pytest.raises(BandError, match="step"):
            make_band([2, 4, 8], [10.0, 30.0, 70.0])

    def test_rejects_non_monotone_energy(self):
        with pytest.raises(BandError, match="increasing"):
            make_band([2, 4, 6], [10.0, 30.0, 20.0])

    def test_rejects_negative_head_energy(self):
        with pytest.raises(BandError, match=">= 0"):
            make_band([2, 4, 6], [-1.0, 30.0, 70.0])

    def test_rejects_empty_name(self):
        with pytest.raises(BandError, match="name"):
            make_band([2, 4, 6], [10.0, 30.0, 70.0], name="")

    @pytest.mark.parametrize("name", [None, 5, b"Dy", ["Dy"]], ids=["none", "int", "bytes", "list"])
    def test_rejects_a_name_that_is_not_a_string(self, name):
        with pytest.raises(BandError) as exc_info:
            make_band([2, 4, 6], [10.0, 30.0, 70.0], name=name)
        assert (exc_info.value.level, str(exc_info.value)) == (
            None, f"band name must be one nonempty line without outer whitespace, got {name!r}")

    def test_keeps_the_values_it_checked(self):
        # a twice-spin that is not an integer is refused, not truncated
        for head in (0.5, 1.9999):
            with pytest.raises(TypeError):
                BandData("x", [(head, 0.0), (2, 1.0), (4, 2.0)])
        # energies are kept as the floats checked, so the band round-trips
        for energies in (["0", "1", "2"], [0.0, np.float32(0.1), 2.0]):
            band = BandData("x", list(zip([0, 2, 4], energies)))
            assert [type(e) for e in band.energies] == [float] * 3
            assert parse_band(write_band(band)) == band

    def test_properties(self):
        band = make_band([0, 1, 2], [0.0, 2.0, 6.0])
        assert band.spins == (0.0, 1.0, 2.0)
        assert band.energies == (0.0, 2.0, 6.0)

    # (spins, energies) -> (index of the offending level, exact message)
    LEVEL_ERRORS = {
        "negative-spin": (([-1, 0, 1], [0.0, 1.0, 2.0]), (0, "spins must be nonnegative, got -1")),
        "negative-head": (([2, 4, 6], [-5.0, 1.0, 2.0]), (0, "lowest level energy must be >= 0, got -5.0")),
        "nan-head": (([2, 4, 6], [math.nan, 1.0, 2.0]), (0, "energy must be finite, got nan")),
        "duplicate": (([2, 4, 4, 6], [0.0, 1.0, 2.0, 3.0]), (2, "duplicate spin 4")),
        "decreasing": (([2, 4, 3, 6], [0.0, 1.0, 2.0, 3.0]), (2, "spins must be strictly increasing")),
        "step": (([2, 4, 6, 10], [0.0, 1.0, 2.0, 3.0]), (3, "inconsistent spin step: 4.0 after 2.0")),
        "energy-order": (([2, 4, 6], [0.0, 1.0, 1.0]), (2, "energies must be strictly increasing")),
        "minus-inf": (([2, 4, 6], [0.0, -math.inf, 1.0]), (1, "energies must be strictly increasing")),
        "nan-middle": (([2, 4, 6], [0.0, math.nan, 1.0]), (1, "energy must be finite, got nan")),
        "inf-last": (([2, 4, 6], [0.0, 1.0, math.inf]), (2, "energy must be finite, got inf")),
    }

    @pytest.mark.parametrize("case", list(LEVEL_ERRORS))
    def test_reports_offending_level(self, case):
        (spins, energies), (level, message) = self.LEVEL_ERRORS[case]
        with pytest.raises(BandError) as exc_info:
            make_band(spins, energies)
        assert (exc_info.value.level, str(exc_info.value)) == (level, message)

    # raw twice-spins -> (index of the offending level); the cap rule comes
    # first, and twice-spins past int64 are refused the same way
    RAW_PAST_CAP = {
        "past-int64": ([0, 2**70, 2**71], 1),
        "negative-past-int64": ([-(2**70), 0, 2**70], 0),
        "huge-int": ([2, 4, 10**400], 2),
        "past-cap": ([2**31 - 2, 2**31, 2**31 + 2], 2),
        "negative-past-cap": ([-(2**31) - 1, 1, 3], 0),
    }

    @pytest.mark.parametrize("case", list(RAW_PAST_CAP))
    def test_raw_twice_spins_past_the_cap(self, case):
        twoj, level = self.RAW_PAST_CAP[case]
        with pytest.raises(BandError) as exc_info:
            BandData("x", [(t, float(k)) for k, t in enumerate(twoj)])
        assert (exc_info.value.level, str(exc_info.value)) == (level, "spin exceeds 1073741824")

    def test_level_free_errors_have_no_index(self):
        for spins, name in (([2, 4], "x"), ([2, 4, 6], "")):
            with pytest.raises(BandError) as exc_info:
                make_band(spins, [1.0 + j for j in spins], name=name)
            assert exc_info.value.level is None
