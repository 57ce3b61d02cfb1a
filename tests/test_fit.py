import dataclasses
import gc
import math
import pickle
import re
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from _reference_fit import (
    ROUNDING,
    LevelResidual,
    _referenced,
    _unreferenced,
    exact_factors,
    fit_A_oracle,
    reference_compare,
    reference_fit,
)
from _synth import exact_band, noisy_band, random_band, spin_range
from qrotor.fit import FitError, FitResult, Variant, _fit, _outcomes, chi2_at, compare, compare_batch, factors, fit_A
from qrotor.ingest import read_band_file
from qrotor.model import BandData, Bands, energy, q_parameter_from_band
from qrotor.qnum import QParameter, RegimeError, casimir_eigenvalue, in_regime

DY = QParameter.from_dim(189)
SPINS_2_18 = spin_range(2.0, 2.0, 9)


def _dim(qp):
    """The kernel's dimension for ``qp``: its odd dim, or 0 for the baseline."""
    return 0 if qp is None else qp.dim


def _residuals(band, result):
    """The residuals of ``result``, a fit of ``band``, as one LevelResidual
    row per level: ``Fits.residuals`` of the band fitted alone at its qp."""
    fits = _fit(Bands.of([band]), [[_dim(result.qp)]])
    assert fits.A[0, 0] == result.A
    theo, diffs = fits.residuals()
    columns = (fits.bands.j, fits.bands.e, theo[0], diffs[0])
    return [LevelResidual._make(row) for row in zip(*(column.tolist() for column in columns))]


class TestClosedForm:
    def test_exact_model_recovery(self):
        band = exact_band("exact", 12.81, DY, SPINS_2_18)
        result = fit_A(band, DY)
        assert result.variant is Variant.Q_DEFORMED
        assert abs(result.A - 12.81) / 12.81 < 1e-9
        assert result.chi2 < 1e-15
        assert result.qp == DY

    def test_exact_classical_recovery(self):
        band = exact_band("classical", 10.0, None, SPINS_2_18)
        result = fit_A(band, None)
        assert result.variant is Variant.CLASSICAL
        assert result.A == pytest.approx(10.0, rel=1e-12)
        assert result.chi2 < 1e-15
        assert result.qp is None

    @pytest.mark.parametrize("dim", [2**63 + 1, 2**64 + 1, 10**300 + 1], ids=["2**63+1", "2**64+1", "10**300+1"])
    def test_dimension_past_int64(self, dim):
        # a QParameter a library caller builds may not fit the kernel's int64
        # column; its tau, below 1e-18, fits the band as j(j+1) does
        band = exact_band("classical", 10.0, None, SPINS_2_18)
        result = fit_A(band, QParameter(dim))
        assert result.qp == QParameter(dim) and result.variant is Variant.Q_DEFORMED
        assert result.A == pytest.approx(10.0, rel=1e-12)

    def test_variant_is_read_from_qp(self):
        fit_q = fit_A(exact_band("exact", 12.81, DY, SPINS_2_18), DY)
        assert "variant" not in {f.name for f in dataclasses.fields(fit_q)}
        assert dataclasses.replace(fit_q, qp=None).variant is Variant.CLASSICAL
        fit_cl = fit_A(exact_band("classical", 10.0, None, SPINS_2_18), None)
        assert dataclasses.replace(fit_cl, qp=DY).variant is Variant.Q_DEFORMED

    def test_rms_definition(self):
        rng = np.random.default_rng(7)
        band = noisy_band("noisy", 12.0, DY, SPINS_2_18, 20.0, rng)
        result = fit_A(band, DY)
        assert result.rms == pytest.approx(1000.0 * math.sqrt(result.chi2 / 9), rel=1e-12)

    def test_chi2_decomposition(self):
        rng = np.random.default_rng(11)
        band = noisy_band("noisy", 8.0, DY, SPINS_2_18, 35.0, rng)
        result = fit_A(band, DY)
        residuals = _residuals(band, result)
        recomputed = sum((r.diff_kev / 1000.0) ** 2 for r in residuals)
        assert result.chi2 == pytest.approx(recomputed, rel=1e-9)
        # residual = exp - theo, with theo anchored at the band head
        for r in residuals:
            assert r.diff_kev == pytest.approx(r.exp_kev - r.theo_kev, abs=1e-9)
        assert residuals[0].theo_kev == pytest.approx(band.energies[0], abs=1e-12)

    def test_gradient_vanishes_at_optimum(self):
        rng = np.random.default_rng(3)
        band = noisy_band("noisy", 15.0, DY, SPINS_2_18, 40.0, rng)
        result = fit_A(band, DY)
        h = 1e-5 * result.A
        fd = (chi2_at(band, DY, result.A + h) - chi2_at(band, DY, result.A - h)) / (2 * h)
        factors = np.array([casimir_eigenvalue(j, DY) for j in band.spins])
        f = factors - factors[0]
        slope_scale = 2.0 * float(f @ f) * result.A / 1e6
        assert abs(fd) <= 1e-8 * slope_scale

    def test_convexity_at_optimum(self):
        rng = np.random.default_rng(5)
        band = noisy_band("noisy", 9.0, DY, SPINS_2_18, 25.0, rng)
        result = fit_A(band, DY)
        delta = 0.01 * result.A
        assert chi2_at(band, DY, result.A + delta) > result.chi2
        assert chi2_at(band, DY, result.A - delta) > result.chi2

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.1, max_value=10.0))
    def test_scale_equivariance(self, c):
        rng = np.random.default_rng(17)
        band = noisy_band("noisy", 12.0, DY, SPINS_2_18, 30.0, rng)
        scaled = BandData.from_levels("scaled", [(j, c * e) for j, e in zip(band.spins, band.energies)])
        base = fit_A(band, DY)
        result = fit_A(scaled, DY)
        assert result.A == pytest.approx(c * base.A, rel=1e-12)
        assert result.chi2 == pytest.approx(c * c * base.chi2, rel=1e-9, abs=1e-25)


class TestChi2At:
    @pytest.mark.parametrize("qp", [None, DY], ids=["classical", "deformed"])
    @pytest.mark.parametrize("A", [math.inf, -math.inf, math.nan, -5.0, 0.0])
    def test_rejects_inertia_not_finite_and_positive(self, dy162_path, qp, A):
        band = read_band_file(dy162_path).parsed
        message = f"inertia parameter A must be positive and finite, got {A}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            chi2_at(band, qp, A)

    @pytest.mark.parametrize("qp", [None, DY], ids=["classical", "deformed"])
    @pytest.mark.parametrize("A", [1e300, 1.7e308])
    def test_overflow_is_an_error(self, dy162_path, qp, A):
        band = read_band_file(dy162_path).parsed
        with pytest.raises(ValueError, match=f"^{re.escape(f'chi2 at A={A} overflows for band {band.name!r}')}$"):
            chi2_at(band, qp, A)


class TestOracle:
    def test_exact_band_agreement(self):
        band = exact_band("exact", 12.81, DY, SPINS_2_18)
        oracle = fit_A_oracle(band, DY, (1.0, 30.0, 2000))
        assert abs(oracle - 12.81) < (30.0 - 1.0) / 2000

    def test_noisy_band_agreement(self):
        rng = np.random.default_rng(23)
        band = noisy_band("noisy", 6.5, DY, SPINS_2_18, 45.0, rng)
        closed = fit_A(band, DY)
        oracle = fit_A_oracle(band, DY, (1.0, 30.0, 2000))
        assert abs(oracle - closed.A) < 2 * (30.0 - 1.0) / 2000

    def test_boundary_minimum_rejected(self):
        band = exact_band("exact", 12.81, DY, SPINS_2_18)
        with pytest.raises(FitError, match="boundary"):
            fit_A_oracle(band, DY, (20.0, 40.0, 2000))

    def test_grid_validation(self):
        band = exact_band("exact", 12.81, DY, SPINS_2_18)
        with pytest.raises(ValueError, match="grid"):
            fit_A_oracle(band, DY, (1.0, 30.0, 100))
        with pytest.raises(ValueError, match="A_lo"):
            fit_A_oracle(band, DY, (30.0, 1.0, 2000))


class TestCompare:
    def test_q_generated_band(self):
        band = exact_band("exact", 12.81, DY, spin_range(2.0, 2.0, 9))
        fit_q, fit_cl = compare(band)
        assert fit_q.variant is Variant.Q_DEFORMED
        assert fit_cl.variant is Variant.CLASSICAL
        assert fit_q.chi2 < 1e-12
        assert fit_q.chi2 < fit_cl.chi2

    def test_classically_generated_band(self):
        band = exact_band("classical", 10.0, None, spin_range(2.0, 2.0, 9))
        fit_q, fit_cl = compare(band)
        assert fit_cl.chi2 < 1e-20
        assert fit_cl.chi2 <= fit_q.chi2

    @pytest.mark.parametrize("count,seed", [(9, 1), (10, 2), (14, 3)])
    def test_compressed_bands_favor_deformation(self, count, seed):
        # generate from the tau the spin-content rule itself assigns, so the
        # band carries exactly the compression the deformed fit models
        spins = spin_range(2.0, 2.0, count)
        shape = BandData.from_levels("shape", [(j, 1.0 + j) for j in spins])
        qp = q_parameter_from_band(shape)
        rng = np.random.default_rng(seed)
        band = noisy_band("compressed", 9.0, qp, spins, 2.0, rng)
        fit_q, fit_cl = compare(band)
        assert fit_q.chi2 <= fit_cl.chi2

    def test_u238_demo_band(self, bands_dir):
        band = read_band_file(bands_dir / "u238.band").parsed
        fit_q, fit_cl = compare(band)
        # strongly compressed band: deformed fit wins by a wide margin
        assert fit_q.chi2 < 0.75 * fit_cl.chi2
        assert 150.0 <= 1e3 * fit_cl.chi2 <= 400.0


class TestRandomBandSweep:
    def test_closed_form_matches_oracle(self):
        rng = np.random.default_rng(2024)
        for tag in range(100):
            band, qp, a0, sigma = random_band(rng, tag)
            closed = fit_A(band, qp)
            est = (band.energies[-1] - band.energies[0]) / (
                casimir_eigenvalue(band.j_max, qp) - casimir_eigenvalue(band.j_min, qp)
            )
            lo, hi, n = 0.2 * est, 5.0 * est, 2000
            oracle = fit_A_oracle(band, qp, (lo, hi, n))
            assert abs(closed.A - oracle) < (hi - lo) / n


# Bands that each fail one of the kernel's checks, with the deformation to fit them at.
NEGATIVE_A = (BandData.from_levels("negative-A", [(1, 0.0), (2, 1.0), (3, 100.0)]), QParameter.from_dim(9))
OUT_OF_REGIME = (exact_band("out-of-regime", 10.0, None, spin_range(2.0, 2.0, 5)), QParameter.from_dim(11))
OVERFLOW = (BandData.from_levels("overflow", [(0, 0.0), (1, 1e-7), (2, 1e308)]), None)
# A band up to the spin cap, 2**30, which fits finitely.
HUGE_SPINS = (BandData.from_levels("huge-spins", [(0, 0.0), (2**29, 1.0), (2**30, 2.0)]), None)
# An exact j(j+1) band so large that only the deformed fit's chi2 overflows.
DEFORMED_OVERFLOW = exact_band("deformed-overflow", 2.0**532, None, spin_range(0.0, 1.0, 10))
# Twice-spins 2**28 to 2**28 + 2 fitted near the top of the [j][j+1] arch:
# their float64 factors are all equal, so sum f^2 rounds to 0 and A is 0/0.
NO_SPREAD = BandData("no-spread", ((2**28, 0.0), (2**28 + 1, 1.0), (2**28 + 2, 2.0)))
# Twice-spins 2**28 to 2**28 + 4 at a hand-picked tau by the top of the arch:
# float64 factors [0, 3, 1], exact [0, 1.5, 1.0], and a fit of A = 0.5 keV
# against about 1.08, unless the cancellation fails the band.
CANCELLED = (BandData("cancelled", ((2**28, 0.0), (2**28 + 2, 1.0), (2**28 + 4, 2.0))), QParameter(536870919))


def _mixed_batch(seed: int, count: int):
    """Valid random bands, each fitted deformed or classical, with the
    failing bands and the band at the spin cap above scattered among them."""
    rng = np.random.default_rng(seed)
    entries = []
    for tag in range(count):
        band, qp, _, _ = random_band(rng, tag)
        entries.append((band, qp if tag % 2 else None))
    for failing in (NEGATIVE_A, OUT_OF_REGIME, OVERFLOW, HUGE_SPINS) * 3:
        entries.insert(int(rng.integers(0, len(entries) + 1)), failing)
    return entries


def _assert_matches(band, result, expected):
    """A kernel result for ``band`` against a reference_fit outcome: the same
    exception, or the same numbers to 1e-12 relative (residual differences,
    which cancel near zero, also to 1e-9 keV absolute)."""
    if isinstance(expected, Exception):
        assert type(result) is type(expected)
        assert str(result) == str(expected)
        return
    A, chi2, rms, residuals = expected
    assert result.A == pytest.approx(A, rel=1e-12)
    assert result.chi2 == pytest.approx(chi2, rel=1e-12)
    assert result.rms == pytest.approx(rms, rel=1e-12)
    got_residuals = _residuals(band, result)
    assert len(got_residuals) == len(residuals)
    for got, want in zip(got_residuals, residuals):
        assert got.j == want.j and got.exp_kev == want.exp_kev
        assert got.theo_kev == pytest.approx(want.theo_kev, rel=1e-12)
        assert got.diff_kev == pytest.approx(want.diff_kev, rel=1e-12, abs=1e-9)


def _reference(call, *args):
    try:
        return call(*args)
    except ValueError as exc:
        return exc


class TestBatchKernel:
    def test_mixed_batch_matches_reference_loop(self):
        entries = _mixed_batch(seed=31, count=300)
        bands, qps = [band for band, _ in entries], [qp for _, qp in entries]
        results = _outcomes(_fit(Bands.of(bands), [list(map(_dim, qps))]), 0)
        assert len(results) == len(entries)
        kinds = set()
        for band, qp, result in zip(bands, qps, results):
            expected = _reference(reference_fit, band, qp)
            kinds.add(type(expected).__name__)
            _assert_matches(band, result, expected)
            if not isinstance(result, Exception):
                assert result.variant is (Variant.CLASSICAL if qp is None else Variant.Q_DEFORMED)
                assert result.qp == qp
        assert kinds == {"tuple", "FitError", "RegimeError"}

    def test_fit_A_is_the_one_band_case(self):
        for band, qp in _mixed_batch(seed=5, count=20):
            expected = _reference(reference_fit, band, qp)
            if isinstance(expected, Exception):
                with pytest.raises(type(expected)) as exc_info:
                    fit_A(band, qp)
                assert str(exc_info.value) == str(expected)
            else:
                _assert_matches(band, fit_A(band, qp), expected)

    def test_failure_kinds(self):
        (negative,), (out_of_regime,), (overflow,) = (
            _outcomes(_fit(Bands.of([band]), [[_dim(qp)]]), 0) for band, qp in (NEGATIVE_A, OUT_OF_REGIME, OVERFLOW))
        assert "not positive" in str(negative)
        assert isinstance(out_of_regime, RegimeError)
        assert isinstance(overflow, FitError)
        assert "no finite fit" in str(overflow)
        fit_q, fit_cl = compare(HUGE_SPINS[0])
        assert all(math.isfinite(x) and x > 0.0 for fit in (fit_q, fit_cl) for x in (fit.A, fit.chi2, fit.rms))

    @pytest.mark.parametrize("dim", [536870915, 536870917])
    def test_no_spread_is_not_finite_not_an_overflow(self, dim):
        qp = QParameter.from_dim(dim)
        assert not factors(Bands.of([NO_SPREAD]), np.array([qp.tau]))[0].any()
        with pytest.raises(FitError, match="^band 'no-spread' has no finite fit: A, chi2 or rms is not finite$"):
            fit_A(NO_SPREAD, qp)
        # the oracle keeps its own check for a model term without spread
        with pytest.raises(FitError, match="no spread"):
            reference_fit(NO_SPREAD, qp)

    def test_cancelled_factors_fail_closed(self):
        message = "^band 'cancelled' has no accurate fit: its eigenvalue factors keep under 6 significant digits$"
        with pytest.raises(FitError, match=message):
            fit_A(*CANCELLED)
        with pytest.raises(FitError, match=message):
            reference_fit(*CANCELLED)

    @pytest.mark.parametrize("A", [0.5, 1.08])
    def test_chi2_at_fails_closed_on_cancelled_factors(self, A):
        # the cancelled factors [0, 3, 1] would rank A = 0.5 keV above the true 1.08
        message = "^band 'cancelled' has no accurate fit: its eigenvalue factors keep under 6 significant digits$"
        with pytest.raises(FitError, match=message):
            chi2_at(*CANCELLED, A)

    @pytest.mark.parametrize("twostep", [1, 2])
    def test_tau_rule_keeps_six_digits_at_the_spin_cap(self, twostep):
        # the rule's worst case: three levels a half or a whole spin apart at
        # the cap, which keep about 6.7 digits deformed and 6.9 classical
        band = BandData("cap", tuple((2**31 - twostep * k, float(2 - k)) for k in (2, 1, 0)))
        for fit in compare(band):
            assert fit.A > 0.0 and math.isfinite(fit.chi2) and math.isfinite(fit.rms)

    @settings(max_examples=400, deadline=None)
    @given(head=st.integers(2**12, 2**31 - 16), twostep=st.integers(1, 2), count=st.integers(3, 6),
           k=st.integers(-6, 6))
    def test_accuracy_decision_at_the_top_of_the_arch(self, head, twostep, count, k):
        # dim = 2*(head+1) + 2k + 1 puts the head near the top of the [j][j+1]
        # arch, where the head subtraction cancels most; the six-digit
        # decision must match the oracle's factors away from its threshold
        band = BandData("arch", tuple((head + twostep * n, float(n)) for n in range(count)))
        qp = QParameter(2 * (head + 1) + 2 * k + 1)
        error = ROUNDING * np.finfo(float).eps * np.max(np.abs(_unreferenced(band, qp)))
        digits = 1e-6 * np.max(np.abs(_referenced(band, qp)[1]))
        assume(not 0.5 * digits <= error <= 2.0 * digits)
        if error > digits:
            message = "^band 'arch' has no accurate fit: its eigenvalue factors keep under 6 significant digits$"
            with pytest.raises(FitError, match=message):
                chi2_at(band, qp, 1.0)
        else:
            assert math.isfinite(chi2_at(band, qp, 1.0))

    @settings(max_examples=400, deadline=None)
    @given(head=st.integers(4, 30).flatmap(lambda e: st.integers(2**e, min(2 ** (e + 1), 2**31 - 16))),
           twostep=st.integers(1, 2), count=st.integers(3, 6), k=st.integers(-6, 6))
    # Bands the rule eps*max|[j][j+1]| <= 1e-6*max|f| accepted with 5.8 digits
    @example(head=432094, twostep=2, count=4, k=1)
    @example(head=432098, twostep=2, count=4, k=1)
    @example(head=432106, twostep=2, count=4, k=4)
    def test_accepted_factors_keep_six_digits(self, head, twostep, count, k):
        # drawn as above, with the head twice-spin log-uniform: whenever
        # fit_A or chi2_at accepts the band, its factors agree with the true
        # ones to six digits
        band = BandData("arch", tuple((head + twostep * n, float(n)) for n in range(count)))
        qp = QParameter(2 * (head + 1) + 2 * k + 1)
        outcomes = (_reference(fit_A, band, qp), _reference(chi2_at, band, qp, 1.0))
        if all(isinstance(outcome, ValueError) for outcome in outcomes):
            return
        exact = exact_factors(band, qp)
        f = factors(Bands.of([band]), np.array([qp.tau]))[0]
        assert np.max(np.abs(f - exact)) <= 1e-6 * np.max(np.abs(exact))

    @settings(max_examples=300, deadline=None)
    @given(head=st.integers(0, 2**20), twostep=st.integers(1, 8), count=st.integers(3, 40),
           extra=st.none() | st.integers(0, 2**22))
    def test_valid_bands_have_spread(self, head, twostep, count, extra):
        # [j][j+1] first rises, then falls in j at any in-regime tau, so at
        # most two of a valid band's levels share a factor: the kernel needs
        # no check for factors without spread.  extra=None is the j(j+1)
        # baseline; otherwise dim is the extra-th odd dimension above
        # 2*(j_max+1), in regime.
        twoj = head + twostep * np.arange(count)
        bands = Bands(["b"], twoj, np.arange(count, dtype=float), np.array([count]))
        n = int(twoj[-1]) + 2
        tau = 0.0 if extra is None else QParameter.from_dim(n + 1 + n % 2 + 2 * extra).tau
        f, regime, _ = factors(bands, np.array([tau]))
        assert regime[0]
        assert bands.sums(f * f)[0] > 0.0

    def test_no_runtime_warnings(self):
        entries = _mixed_batch(seed=7, count=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _fit(Bands.of([band for band, _ in entries]), [[_dim(qp) for _, qp in entries]])
            compare_batch([band for band, _ in entries])

    def test_empty_batch(self):
        assert _outcomes(_fit(Bands.of([]), np.zeros((1, 0), dtype=np.int64)), 0) == []
        fits = compare_batch([])
        assert len(fits.bands) == 0 and fits.A.shape == (2, 0)
        assert fits.failures == [{}, {}] and fits.failed() == {}


class TestCompareBatch:
    @pytest.mark.parametrize("classical_only", [False, True])
    def test_matches_reference_in_check_order(self, classical_only):
        rng = np.random.default_rng(43)
        bands = [random_band(rng, tag)[0] for tag in range(60)]
        for k, extra in enumerate((DEFORMED_OVERFLOW, OVERFLOW[0], HUGE_SPINS[0], DEFORMED_OVERFLOW)):
            bands.insert(15 * k, extra)

        fits = compare_batch(bands, classical_only)
        failed = fits.failed()
        fits_cl = _outcomes(fits, 0)
        fits_q = [None] * len(bands) if classical_only else _outcomes(fits, 1)
        for k, (band, fit_cl, fit_q) in enumerate(zip(bands, fits_cl, fits_q)):
            expected = _reference(reference_compare, band, classical_only)
            if isinstance(expected, Exception):
                # the band's first failure is its classical row's, if that fails
                assert failed[k] is (fit_cl if isinstance(fit_cl, ValueError) else fit_q)
                assert type(failed[k]) is type(expected)
                assert str(failed[k]) == str(expected)
                continue
            assert k not in failed
            want_q, want_cl = expected
            _assert_matches(band, fit_cl, want_cl)
            if classical_only:
                assert fit_q is None
            else:
                _assert_matches(band, fit_q, want_q)
                assert fit_q.qp == q_parameter_from_band(band)
        failures = [str(failed[k]) for k in sorted(failed)]
        if classical_only:
            assert len(failures) == 1
        else:
            assert len(failures) == 3
            assert "'deformed-overflow'" in failures[0] and "'deformed-overflow'" in failures[-1]

    @pytest.mark.parametrize("classical_only", [False, True])
    def test_one_factors_pass_per_batch(self, monkeypatch, classical_only):
        calls = []

        def counted(bands, tau):
            calls.append(np.shape(tau))
            return factors(bands, tau)

        monkeypatch.setattr("qrotor.fit.factors", counted)
        bands = [band for band, _ in _mixed_batch(seed=13, count=40)]
        compare_batch(bands, classical_only)
        assert calls == [(1 if classical_only else 2, len(bands))]

    @pytest.mark.parametrize("seed", [3, 19])
    def test_each_row_equals_its_one_row_fit(self, seed):
        entries = _mixed_batch(seed=seed, count=60)
        bands = [band for band, _ in entries]
        rows = [[_dim(qp) for _, qp in entries], [0 if qp else q_parameter_from_band(band).dim for band, qp in entries]]
        fits = _fit(Bands.of(bands), rows)
        for r, row in enumerate(rows):
            one_row = _fit(Bands.of(bands), [row])
            for fit, alone in zip(_outcomes(fits, r), _outcomes(one_row, 0)):
                assert type(fit) is type(alone)
                if isinstance(alone, Exception):
                    assert str(fit) == str(alone)
                    continue
                assert fit == alone
            for got, want in zip(fits.residuals(), one_row.residuals()):
                assert np.array_equal(got[r], want[0], equal_nan=True)

    def test_compare_raises_first_failure(self):
        with pytest.raises(FitError, match="no finite fit"):
            compare(OVERFLOW[0])


class TestResultIsAValue:
    """A FitResult is the value (A, chi2, rms, qp): it holds neither the band
    it fitted nor the batch it came from."""

    def test_result_does_not_hold_its_batch(self):
        rng = np.random.default_rng(47)
        batch = Bands.of([random_band(rng, tag)[0] for tag in range(1000)])
        held = weakref.ref(batch)
        fits = compare_batch(batch)
        fit_cl, fit_q = (_outcomes(fits, r)[0] for r in (0, 1))
        del fits
        for fit in (fit_q, fit_cl):
            assert len(pickle.dumps(fit)) < 4096
            assert pickle.loads(pickle.dumps(fit)) == fit
        del batch
        gc.collect()
        assert held() is None

    def test_fields_are_the_fit_numbers(self):
        assert [field.name for field in dataclasses.fields(FitResult)] == ["A", "chi2", "rms", "qp"]

    @pytest.mark.parametrize("classical_only", [False, True])
    def test_compare_batch_builds_no_band(self, monkeypatch, classical_only):
        rng = np.random.default_rng(53)
        batch = Bands.of([random_band(rng, tag)[0] for tag in range(50)] + [OVERFLOW[0], DEFORMED_OVERFLOW])
        built = []
        getitem = Bands.__getitem__
        monkeypatch.setattr(Bands, "__getitem__", lambda self, index: built.append(index) or getitem(self, index))
        fits = compare_batch(batch, classical_only)
        outcomes = [_outcomes(fits, r) for r in range(len(fits.dims))]
        assert [len(row) for row in outcomes] == [len(batch)] * (1 if classical_only else 2)
        assert len(fits.failed()) == (1 if classical_only else 2)
        assert built == []


class TestShownBands:
    """Every band ``Fits.shown`` returns passed every row's checks, so the
    report writers need no branch for a missing or non-finite fit."""

    @pytest.mark.parametrize("classical_only", [False, True])
    @pytest.mark.parametrize("seed", [29, 61])
    def test_shown_bands_are_finite_in_every_row(self, seed, classical_only):
        # _mixed_batch scatters the OVERFLOW and OUT_OF_REGIME bands among valid ones
        bands = [band for band, _ in _mixed_batch(seed=seed, count=80)]
        bands[::20] = [DEFORMED_OVERFLOW] * len(bands[::20])
        fits = compare_batch(bands, classical_only)
        shown, failed = fits.shown(), fits.failed()
        assert sorted([*shown.tolist(), *failed]) == list(range(len(bands)))
        assert not set(shown.tolist()) & set(failed)
        assert {bands[k].name for k in failed} >= {"overflow"} | (set() if classical_only else {"deformed-overflow"})
        for r in range(len(fits.dims)):
            assert (fits.A[r, shown] > 0.0).all()
            for column in (fits.tau, fits.A, fits.chi2, fits.rms):
                assert np.isfinite(column[r, shown]).all()


# (dim, j_max, in regime): tau*(j_max+1) at 0.8 pi, 6/7 pi, just under pi,
# landing on pi in floating point, and past it.
REGIME_PAIRS = [
    (5, 1.0, True), (5, 1.5, False), (7, 2.0, True), (189, 93.0, True),
    (189, 93.5, False), (189, 94.0, False), (1001, 499.0, True), (1001, 499.5, False),
]


class TestRegimeRule:
    @pytest.mark.parametrize("dim,j_max,expected", REGIME_PAIRS)
    def test_callers_agree(self, dim, j_max, expected):
        qp = QParameter.from_dim(dim)
        # spins from 0 keep every referenced factor >= 0 in regime, so the fit succeeds
        spins = spin_range(0.0, 0.5, round(2 * j_max) + 1)
        band = BandData.from_levels("edge", [(j, 1.0 + 10.0 * j * (j + 1.0)) for j in spins])
        calls = (lambda: energy(j_max, 10.0, qp), lambda: fit_A(band, qp), lambda: chi2_at(band, qp, 10.0))
        accepted = []
        for call in calls:
            try:
                call()
            except RegimeError:
                accepted.append(False)
            else:
                accepted.append(True)
        assert bool(in_regime(qp.tau, j_max)) is expected
        assert accepted == [expected] * 3

    def test_elementwise_over_a_tau_column(self):
        pairs = [(2.0 * math.pi / dim, j_max) for dim, j_max, _ in REGIME_PAIRS]
        tau, j_max = np.array(pairs).T
        assert in_regime(tau, j_max).tolist() == [expected for *_, expected in REGIME_PAIRS]
        # tau = 0 is the undeformed baseline, in regime at any spin
        assert in_regime(np.zeros(2), np.array([0.0, 1e300])).all()
