"""Independent checks of the CLI's outputs.

Each checker returns (attempted, failed) operations.  An operation is one
band for the table reports and one expected line for ``verify``.  Table
rows must agree with the reference at the printed precision; the JSON
report must load with a strict parser and agree to 1e-9 relative; every
expected ``verify`` line must be present, pass, and show a deviation within
the tolerance the benchmark expects for that check and dimension.
"""

from __future__ import annotations

import json
import math

import numpy as np

from corpus import KEV_PER_MEV, Band, Fit

REL = 1e-9
TABLE_HEADER = ["nucleus", "tau", "A[keV]", "1e3*chi2", "rms[keV]", "rms_cl[keV]"]
VERIFY_THETA0 = (0.0, 0.6)
SHIFT_POWER_MAX_DIM = 101
SHIFT_POWER_TOLERANCE = 1e-10


def _printed_ok(text: str, value: float, decimals: int) -> bool:
    """``text`` is ``value`` printed with ``decimals`` places, allowing for
    last-ulp differences in the value itself."""
    try:
        printed = float(text)
    except ValueError:
        return False
    slack = 0.5 * 10.0 ** -decimals + REL * max(1.0, abs(value))
    return abs(printed - value) <= slack


def _table_row_ok(tokens: list[str], band: Band) -> bool:
    if len(tokens) != 6 or tokens[0] != band.name:
        return False
    q, cl = band.q, band.cl
    return (
        _printed_ok(tokens[1], q.tau, 4)
        and _printed_ok(tokens[2], q.A, 2)
        and _printed_ok(tokens[3], 1e3 * q.chi2, 2)
        and _printed_ok(tokens[4], q.rms, 2)
        and _printed_ok(tokens[5], cl.rms, 2)
    )


def check_table(payload: bytes, bands: list[Band]) -> tuple[int, int]:
    try:
        lines = payload.decode("utf-8").splitlines()
    except UnicodeDecodeError:
        return len(bands), len(bands)
    if not lines or lines[0].split() != TABLE_HEADER:
        return len(bands), len(bands)
    rows = lines[1:]
    failed = sum(
        1 for k, band in enumerate(bands)
        if k >= len(rows) or not _table_row_ok(rows[k].split(), band)
    )
    return len(bands), failed + max(0, len(rows) - len(bands))


def _close(a, b: float, scale: float = 0.0) -> bool:
    return isinstance(a, (int, float)) and abs(a - b) <= REL * max(abs(b), scale)


def _json_fit_ok(row, band: Band, ref: Fit, variant: str) -> bool:
    if not isinstance(row, dict) or row.get("nucleus") != band.name or row.get("variant") != variant:
        return False
    if ref.dim is None:
        if row.get("dim") is not None or row.get("tau") is not None:
            return False
    elif row.get("dim") != ref.dim or not _close(row.get("tau"), ref.tau):
        return False
    if not (
        _close(row.get("A_keV"), ref.A)
        and _close(row.get("chi2_MeV2"), ref.chi2, ref.chi2_scale)
        and _close(row.get("rms_keV"), ref.rms, KEV_PER_MEV * math.sqrt(ref.chi2_scale / len(band.spins)))
    ):
        return False
    residuals = row.get("residuals")
    if not isinstance(residuals, list) or len(residuals) != len(band.spins):
        return False
    try:
        j = np.array([r["j"] for r in residuals], dtype=float)
        exp = np.array([r["exp_keV"] for r in residuals], dtype=float)
        theo = np.array([r["theo_keV"] for r in residuals], dtype=float)
    except (KeyError, TypeError, ValueError):
        return False
    return (
        np.array_equal(j, band.spins)
        and np.array_equal(exp, band.energies)
        and bool(np.all(np.abs(theo - ref.theo) <= REL * np.maximum(np.abs(ref.theo), band.energies[-1])))
    )


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def check_json(payload: bytes, bands: list[Band]) -> tuple[int, int]:
    try:
        rows = json.loads(payload.decode("utf-8"), parse_constant=_reject_constant)
    except ValueError:
        return len(bands), len(bands)
    if not isinstance(rows, list):
        return len(bands), len(bands)
    failed = 0
    for k, band in enumerate(bands):
        pair = rows[2 * k: 2 * k + 2]
        if len(pair) != 2 or not (
            _json_fit_ok(pair[0], band, band.q, "q_deformed")
            and _json_fit_ok(pair[1], band, band.cl, "classical")
        ):
            failed += 1
    return len(bands), failed + max(0, (len(rows) - 2 * len(bands) + 1) // 2)


def l_sweep(max_dim: int) -> list[int]:
    """The ``l`` values ``verify`` sweeps for a given ``--max-dim``."""
    return sorted({1, 2, 5, 25, (max_dim - 1) // 2})


def irrep_skipped(j: float, dim: int) -> bool:
    """True when a bracket product [j-m][j+m+1] under the ladder square
    root is negative at tau = 2*pi/dim, so the spin does not fit."""
    tau = 2.0 * math.pi / dim
    m = j - np.arange(1, round(2 * j) + 1)
    return bool(np.any(np.sin(tau * (j - m)) * np.sin(tau * (j + m + 1.0)) < 0.0))


def bp_tolerance(dim: int) -> float:
    """Deviation allowed to a phase-space identity at this dimension."""
    return 1e-12 if dim <= 201 else 1e-10


def irrep_tolerance(dim: int) -> float:
    """Deviation allowed to an irrep identity at this dimension."""
    return 1e-12 if dim <= 201 else 1e-11


def expected_verify_lines(max_dim: int, bp_names, irrep_names, spins) -> dict[tuple[str, str], float | None]:
    """(name, params) of every line ``verify`` should print, mapped to the
    largest deviation that line may report, or None for a skip notice."""
    expected = {}
    for l in l_sweep(max_dim):
        dim = 2 * l + 1
        for theta0 in VERIFY_THETA0:
            params = f"l={l} theta0={theta0:.1f}"
            for name in bp_names:
                expected[(name, params)] = bp_tolerance(dim)
            if dim <= SHIFT_POWER_MAX_DIM:
                expected[("shift-power", params)] = SHIFT_POWER_TOLERANCE
    for l in l_sweep(max_dim):
        dim = 2 * l + 1
        for j in spins:
            params = f"dim={dim} j={j:g}"
            if irrep_skipped(j, dim):
                expected[("irrep", params)] = None
            else:
                for name in irrep_names:
                    expected[(name, params)] = irrep_tolerance(dim)
    return expected


def _parse_verify_line(line: str):
    """(name, params), and the deviation of a passing check line, or None
    for a skip notice, or NaN for a line that does not pass."""
    tokens = line.split()
    if "skipped" in tokens:
        k = tokens.index("skipped")
        return (tokens[0], " ".join(tokens[1:k])), None
    dev = [t for t in tokens if t.startswith("dev=")]
    if len(tokens) < 4 or len(dev) != 1 or tokens[-1] != "PASS":
        return None, math.nan
    try:
        deviation = float(dev[0][4:])
    except ValueError:
        deviation = math.nan
    return (tokens[0], " ".join(tokens[1:tokens.index(dev[0])])), deviation


def _verify_line_ok(deviation: float | None, tolerance: float | None) -> bool:
    if tolerance is None or deviation is None:
        return tolerance is None and deviation is None
    return deviation <= tolerance


def check_verify(payload: bytes, expected: dict[tuple[str, str], float | None]) -> tuple[int, int]:
    """Every expected line once, and each check's printed deviation within
    the tolerance expected for it, whatever tolerance the line itself states."""
    try:
        lines = payload.decode("utf-8").splitlines()
    except UnicodeDecodeError:
        return len(expected), len(expected)
    seen = {}
    extra = 0
    for line in lines:
        key, deviation = _parse_verify_line(line)
        if key not in expected or key in seen:
            extra += 1
            continue
        seen[key] = _verify_line_ok(deviation, expected[key])
    failed = sum(1 for key in expected if not seen.get(key, False))
    return len(expected) + extra, failed + extra
