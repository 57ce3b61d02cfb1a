"""Band data files, report tables, and plot-ready output.

Band files are line-oriented UTF-8, with or without a leading byte-order mark:

    # nucleus: 162Dy
    # note: free-text provenance, may repeat
    2 80.66
    4 265.785
    ...

Spins (integer or .5) and energies (keV) are ASCII decimals.  Blank lines and
other ``#`` comments are ignored.  Parsing checks the text (headers, field
count, number syntax) and leaves the level rules to ``BandData``; either
way a failure names its line.  Serialization emits a canonical form that
round-trips byte-identically.  All report output is deterministic: fixed
formats, '.' decimal separator, no locale dependence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .fit import FitResult
from .model import BandData, BandError, spin_str, twice_spin

__all__ = [
    "BandParseError",
    "BandFile",
    "parse_band",
    "parse_band_file",
    "read_band_file",
    "write_band",
    "write_report",
    "emit_plot_data",
]


class BandParseError(BandError):
    """A band file failed validation; carries the offending line number
    (0 for file-level problems)."""

    def __init__(self, line: int, message: str):
        self.line = line
        self.message = message
        prefix = f"line {line}: " if line else ""
        super().__init__(f"{prefix}{message}")


@dataclass(frozen=True)
class BandFile:
    """A parsed band plus its file-level provenance."""

    path: Path | None
    parsed: BandData
    source_note: str | None = None


def parse_band(text: bytes | str) -> BandData:
    """Parse band-file text into validated BandData."""
    return parse_band_file(text).parsed


def _decimal(token: str) -> float:
    """float(token) for an ASCII decimal; float() also reads "1_0" as 10, and non-ASCII digits."""
    if "_" in token or not token.isascii():
        raise ValueError(token)
    return float(token)


def parse_band_file(text: bytes | str, path: Path | None = None) -> BandFile:
    """Parse band-file text, keeping the provenance note lines."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            line_no = text.count(b"\n", 0, exc.start) + 1
            raise BandParseError(line_no, f"byte {text[exc.start]:#04x} is not valid UTF-8") from None
    text = text.removeprefix("\ufeff")  # one leading byte-order mark

    name: str | None = None
    notes: list[str] = []
    levels: list[tuple[int, float]] = []
    line_of: list[int] = []

    # Lines end at "\n" only: str.splitlines would also break at form feeds
    # and Unicode separators and shift every later line number.
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("nucleus:"):
                if name is not None:
                    raise BandParseError(line_no, "duplicate '# nucleus:' header")
                name = body[len("nucleus:"):].strip()
                if not name:
                    raise BandParseError(line_no, "empty nucleus name")
            elif body.startswith("note:"):
                notes.append(body[len("note:"):].strip())
            continue

        if name is None:
            raise BandParseError(line_no, "data before the required '# nucleus:' header")
        tokens = line.split()
        if len(tokens) != 2:
            raise BandParseError(line_no, f"expected '<spin> <energy_keV>', got {len(tokens)} fields")
        try:
            twoj = twice_spin(_decimal(tokens[0]))
        except ValueError:
            raise BandParseError(line_no, f"invalid spin {tokens[0]!r} (integer or half-integer)") from None
        try:
            energy = _decimal(tokens[1])
        except ValueError:
            raise BandParseError(line_no, f"non-numeric energy {tokens[1]!r}") from None
        levels.append((twoj, energy))
        line_of.append(line_no)

    if name is None:
        raise BandParseError(0, "missing '# nucleus:' header")
    try:
        band = BandData(name=name, levels=tuple(levels))
    except BandError as exc:
        raise BandParseError(0 if exc.level is None else line_of[exc.level], str(exc)) from None
    note = "\n".join(notes) if notes else None
    return BandFile(path=path, parsed=band, source_note=note)


def read_band_file(path: Path | str) -> BandFile:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise BandError(f"cannot read band file: {exc}") from None
    return parse_band_file(raw, path=path)


def write_band(band: BandFile | BandData) -> bytes:
    """Serialize to the canonical band-file form (round-trip stable)."""
    if isinstance(band, BandFile):
        data, note = band.parsed, band.source_note
    else:
        data, note = band, None
    lines = [f"# nucleus: {data.name}"]
    if note is not None:
        lines.extend(f"# note: {part}" for part in note.split("\n"))
    lines.extend(f"{spin_str(twoj)} {energy!r}" for twoj, energy in data.levels)
    return ("\n".join(lines) + "\n").encode("utf-8")


def _entry_fits(entry):
    band, fit_q, fit_cl = entry
    if fit_q is None and fit_cl is None:
        raise ValueError(f"no fit results supplied for band '{band.name}'")
    return band, fit_q, fit_cl


def write_report(results, as_json: bool = False) -> bytes:
    """Fixed-width fit table, or the full JSON document with residuals.

    ``results`` is a list of (band, deformed FitResult or None, classical
    FitResult or None) entries; at least one fit per entry.
    """
    if not results:
        raise ValueError("no fit results to report")
    if as_json:
        return _report_json(results)
    return _report_table(results)


def _report_table(results) -> bytes:
    width = max(8, max(len(_entry_fits(r)[0].name) for r in results))
    header = (
        f"{'nucleus':<{width}} {'tau':>8} {'A[keV]':>8} {'1e3*chi2':>10} "
        f"{'rms[keV]':>9} {'rms_cl[keV]':>12}"
    )
    lines = [header]
    for entry in results:
        band, fit_q, fit_cl = _entry_fits(entry)
        main = fit_q if fit_q is not None else fit_cl
        tau = f"{fit_q.qp.tau:.4f}" if fit_q is not None else "-"
        rms_cl = f"{fit_cl.rms:.2f}" if fit_cl is not None else "-"
        lines.append(
            f"{band.name:<{width}} {tau:>8} {main.A:>8.2f} {1e3 * main.chi2:>10.2f} "
            f"{main.rms:>9.2f} {rms_cl:>12}"
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


# The JSON report is written from fixed templates: byte for byte what
# json.dumps(rows, indent=2, allow_nan=False) gives for the same rows, without
# building the rows or running the encoder's pure-Python indenting path.
_JSON_ROW = (
    "  {\n"
    '    "nucleus": %s,\n'
    '    "tau": %s,\n'
    '    "dim": %s,\n'
    '    "A_keV": %s,\n'
    '    "chi2_MeV2": %s,\n'
    '    "rms_keV": %s,\n'
    '    "variant": %s,\n'
    '    "residuals": [\n'
    "%s\n"
    "    ]\n"
    "  }"
)
_JSON_LEVEL = '      {\n        "j": %s,\n        "exp_keV": %s,\n        "theo_keV": %s\n      }'


def _json_floats(values: list[float]) -> list[str]:
    """Each value as json.dumps writes a float; ValueError, as with
    ``allow_nan=False``, if one is not finite."""
    if not all(map(math.isfinite, values)):
        bad = next(value for value in values if not math.isfinite(value))
        raise ValueError(f"Out of range float values are not JSON compliant: {float.__repr__(bad)}")
    return list(map(float.__repr__, values))


def _fit_json(name: str, result: FitResult) -> str:
    """One report row; ``name`` is the band name already JSON-encoded."""
    qp = result.qp
    if qp is None:
        tau, dim = "null", "null"
        A, chi2, rms = _json_floats([result.A, result.chi2, result.rms])
    else:
        tau, A, chi2, rms = _json_floats([qp.tau, result.A, result.chi2, result.rms])
        dim = int.__repr__(qp.dim)
    j, exp, theo, _ = result.residual_columns()
    levels = _json_floats(list(chain.from_iterable(zip(j.tolist(), exp.tolist(), theo.tolist()))))
    residuals = ",\n".join([_JSON_LEVEL] * len(j)) % tuple(levels)
    variant = encode_basestring_ascii(result.variant.value)
    return _JSON_ROW % (name, tau, dim, A, chi2, rms, variant, residuals)


def _report_json(results) -> bytes:
    rows = []
    for entry in results:
        band, fit_q, fit_cl = _entry_fits(entry)
        name = encode_basestring_ascii(band.name)
        rows.extend(_fit_json(name, result) for result in (fit_q, fit_cl) if result is not None)
    rows[0] = "[\n" + rows[0]
    rows[-1] += "\n]\n"
    text = ",\n".join(rows)
    del rows  # so that the report is held at most twice: as text and as bytes
    return text.encode("ascii")


def emit_plot_data(band: BandData, fit_q: FitResult, fit_cl: FitResult) -> bytes:
    """Whitespace-separated columns ready for plotting tools:
    j, E_exp, E_q, E_classical, residual_q, residual_classical (keV)."""
    lines = [
        f"# nucleus: {band.name}",
        "# j exp_keV theo_q_keV theo_classical_keV resid_q_keV resid_classical_keV",
    ]
    _, exp, theo_q, diff_q = (column.tolist() for column in fit_q.residual_columns())
    _, _, theo_cl, diff_cl = (column.tolist() for column in fit_cl.residual_columns())
    for (twoj, _), e, tq, tc, dq, dc in zip(band.levels, exp, theo_q, theo_cl, diff_q, diff_cl):
        lines.append(f"{spin_str(twoj)} {e:.3f} {tq:.3f} {tc:.3f} {dq:.3f} {dc:.3f}")
    return ("\n".join(lines) + "\n").encode("utf-8")
