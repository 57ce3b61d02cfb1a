"""Acceptance suite: one test per release criterion, each printing a
pass line with its measured numbers.  Run with ``pytest -s`` to see them.
"""

import math
import time

import numpy as np

from _reference_fit import fit_A_oracle
from _synth import exact_band, random_band, spin_range
from qrotor.bp_space import build_space, check_cyclic_shift, check_quantum_plane
from qrotor.fit import chi2_at, fit_A
from qrotor.ingest import read_band_file
from qrotor.model import energy, q_parameter_from_band, space_size
from qrotor.qnum import QParameter, casimir_eigenvalue, qbracket
from qrotor.suq2 import build_irrep, check_casimir, check_commutators


def test_tau_rule_reproduction():
    start = time.perf_counter()
    dim_dy = space_size(2, 18, 2)
    dim_yb = space_size(2, 20, 2)
    tau_dy = QParameter.from_dim(dim_dy).tau
    tau_yb = QParameter.from_dim(dim_yb).tau
    elapsed = time.perf_counter() - start

    assert dim_dy == 189 and dim_yb == 231
    assert abs(tau_dy - 0.0332) / 0.0332 < 0.02
    assert f"{tau_dy:.4f}" == "0.0332"
    assert abs(tau_yb - 0.0273) / 0.0273 < 0.02
    assert elapsed < 1e-3
    print(f"\n[acceptance] tau rule: PASS (tau={tau_dy:.4f}, {tau_yb:.4f}; {elapsed*1e6:.0f} us)")


def test_algebra_identity_suite():
    start = time.perf_counter()
    worst = 0.0
    for l in (1, 2, 5, 50, 250, 500):
        for theta0 in (0.0, 0.6):
            space = build_space(l, theta0)
            worst = max(worst, check_quantum_plane(space), check_cyclic_shift(space))
    for dim in (51, 201, 1001):
        qp = QParameter.from_dim(dim)
        for j in (0.5, 1.0, 2.0, 5.0, 10.0):
            irrep = build_irrep(j, qp)
            worst = max(worst, check_commutators(irrep), check_casimir(irrep))
    elapsed = time.perf_counter() - start

    assert worst <= 1e-10
    assert elapsed < 30.0
    print(f"[acceptance] algebra identities: PASS (worst dev {worst:.2e}; {elapsed:.1f} s)")


def test_fit_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(8675309)
    worst_gap = 0.0
    worst_grad = 0.0
    for tag in range(1000):
        band, qp, a0, sigma = random_band(rng, tag)
        closed = fit_A(band, qp)

        est = (band.energies[-1] - band.energies[0]) / (
            casimir_eigenvalue(band.j_max, qp) - casimir_eigenvalue(band.j_min, qp)
        )
        lo, hi, n = 0.2 * est, 5.0 * est, 2000
        oracle = fit_A_oracle(band, qp, (lo, hi, n))
        gap = abs(closed.A - oracle) / ((hi - lo) / n)
        worst_gap = max(worst_gap, gap)

        h = 1e-5 * closed.A
        fd = (chi2_at(band, qp, closed.A + h) - chi2_at(band, qp, closed.A - h)) / (2 * h)
        factors = np.array([casimir_eigenvalue(j, qp) for j in band.spins])
        f = factors - factors[0]
        slope_scale = 2.0 * float(f @ f) * closed.A / 1e6
        worst_grad = max(worst_grad, abs(fd) / slope_scale)

    elapsed = time.perf_counter() - start
    assert worst_gap < 1.0
    assert worst_grad < 1e-8
    assert elapsed < 10.0
    print(
        f"[acceptance] fit oracle: PASS (worst gap {worst_gap:.2e} grid steps, "
        f"worst rel. gradient {worst_grad:.2e}; {elapsed:.1f} s)"
    )


def test_exact_model_recovery():
    worst_a = 0.0
    worst_chi2 = 0.0
    for a0, dim, spins in (
        (12.81, 189, spin_range(2.0, 2.0, 9)),
        (6.16, 435, spin_range(2.0, 2.0, 14)),
        (5.05, 1083, spin_range(7.5, 2.0, 10)),
        (19.0, 231, spin_range(0.0, 1.0, 8)),
    ):
        qp = QParameter.from_dim(dim)
        result = fit_A(exact_band("exact", a0, qp, spins), qp)
        worst_a = max(worst_a, abs(result.A - a0) / a0)
        worst_chi2 = max(worst_chi2, result.chi2)
    assert worst_a < 1e-9
    assert worst_chi2 < 1e-15
    print(
        f"[acceptance] exact recovery: PASS (worst |A-A0|/A0 {worst_a:.2e}, "
        f"worst chi2 {worst_chi2:.2e} MeV^2)"
    )


def test_level_compression():
    checked = 0
    for dim in (185, 189, 231, 435, 501, 849, 1083, 1571):
        qp = QParameter.from_dim(dim)
        assert 0.003 < qp.tau < 0.034
        for twoj in range(4, 61):
            j = twoj / 2.0
            if qp.tau * (j + 1.0) >= math.pi / 2:
                continue
            assert energy(j, 1.0, qp) < 1.0 * j * (j + 1.0)
            checked += 1
    assert checked > 400
    print(f"[acceptance] level compression: PASS ({checked} (tau, j) pairs strictly below j(j+1))")


def test_classical_limit_convergence():
    for x in (2.0, 4.0, 8.0):
        errors = [abs(qbracket(x, QParameter.from_dim(d)) - x) for d in (101, 1001, 10001)]
        assert errors[0] > errors[1] > errors[2]
    print("[acceptance] classical limit: PASS (|[x]-x| monotone down over dims 101/1001/10001)")


def test_table_value_reproduction(dy162_path):
    band = read_band_file(dy162_path).parsed
    qp = q_parameter_from_band(band)
    result = fit_A(band, qp)
    assert abs(result.A - 12.81) / 12.81 < 0.02
    assert 2.22 / 2 < 1e3 * result.chi2 < 2.22 * 2
    print(
        f"[acceptance] published-fit reproduction: PASS "
        f"(A={result.A:.2f} keV vs 12.81, 1e3*chi2={1e3*result.chi2:.2f} vs 2.22)"
    )
