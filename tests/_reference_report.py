"""The JSON report as a dict per fit, encoded by ``json.dumps``.

This is the report writer ``qrotor.ingest`` had before it formatted the
report from the fit columns; tests compare that writer's bytes with it.
"""

from __future__ import annotations

import json

from qrotor.fit import FitResult
from qrotor.model import BandData


def _fit_json(band: BandData, result: FitResult) -> dict:
    return {
        "nucleus": band.name,
        "tau": result.qp.tau if result.qp is not None else None,
        "dim": result.qp.dim if result.qp is not None else None,
        "A_keV": result.A,
        "chi2_MeV2": result.chi2,
        "rms_keV": result.rms,
        "variant": result.variant.value,
        "residuals": [
            {"j": j, "exp_keV": exp, "theo_keV": theo}
            for j, exp, theo, _ in zip(*(column.tolist() for column in result.residual_columns()))
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
