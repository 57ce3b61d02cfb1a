"""The operator-algebra identities over a wide sweep of space sizes and
spins, each held to the tolerance ``qrotor verify`` uses for its dimension."""

import pytest

from qrotor.bp_space import build_space, check_shift_power
from qrotor.cli import BP_CHECKS, IRREP_CHECKS, _bp_tolerance, _irrep_tolerance
from qrotor.qnum import QParameter, RegimeError
from qrotor.suq2 import build_irrep

L_VALUES = (1, 2, 3, 5, 10, 25, 50, 100, 250, 500)
SPINS = (0.5, 1.0, 1.5, 2.0, 2.5, 5.0, 7.5, 10.0, 15.0, 30.0)


@pytest.mark.parametrize("theta0", [0.0, 0.6, 2.5])
@pytest.mark.parametrize("l", L_VALUES)
def test_phase_space_identities(l, theta0):
    space = build_space(l, theta0)
    tol = _bp_tolerance(space.dim)
    assert tol <= 1e-10
    for name, check in BP_CHECKS:
        assert check(space) <= tol, name
    if space.dim <= 101:
        assert check_shift_power(space) <= 1e-10


@pytest.mark.parametrize("l", L_VALUES)
def test_irrep_identities(l):
    dim = 2 * l + 1
    qp = QParameter.from_dim(dim)
    tol = _irrep_tolerance(dim)
    assert tol <= 1e-10
    checked = 0
    for j in SPINS:
        try:
            irrep = build_irrep(j, qp)
        except RegimeError:
            continue
        for name, check in IRREP_CHECKS:
            assert check(irrep) <= tol, (name, j)
        checked += 1
    assert checked > 0
