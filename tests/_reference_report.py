"""The JSON report as a dict per fit, encoded by ``json.dumps``.

This is the report writer ``qrotor.ingest`` had before it formatted the
report from the fit columns; tests compare that writer's bytes with it.
Each level's theoretical energy is computed here, one level at a time,
from ``casimir_eigenvalue`` and the fit's A, not read from the fit columns.
"""

from __future__ import annotations

import json

from qrotor.fit import FitResult
from qrotor.model import BandData
from qrotor.qnum import casimir_eigenvalue


def _fit_json(band: BandData, result: FitResult) -> dict:
    head_e, head_f = band.energies[0], casimir_eigenvalue(band.spins[0], result.qp)
    return {
        "nucleus": band.name,
        "tau": result.qp.tau if result.qp is not None else None,
        "dim": result.qp.dim if result.qp is not None else None,
        "A_keV": result.A,
        "chi2_MeV2": result.chi2,
        "rms_keV": result.rms,
        "variant": "classical" if result.qp is None else "q_deformed",
        "residuals": [
            {"j": j, "exp_keV": exp, "theo_keV": head_e + result.A * (casimir_eigenvalue(j, result.qp) - head_f)}
            for j, exp in zip(band.spins, band.energies)
        ],
    }


def reference_report_json(results) -> bytes:
    """The JSON report of (band, deformed fit or None, classical fit or None) entries."""
    rows = []
    for band, fit_q, fit_cl in results:
        for result in (fit_q, fit_cl):
            if result is not None:
                rows.append(_fit_json(band, result))
    return (json.dumps(rows, indent=2, allow_nan=False) + "\n").encode("utf-8")
