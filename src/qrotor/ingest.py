"""Band data files, report tables, and plot-ready output.

Band files are line-oriented UTF-8, with or without a leading byte-order mark:

    # nucleus: 162Dy
    # note: free-text provenance, may repeat
    2 80.66
    4 265.785
    ...

Spins (integer or .5, at most ``qnum.MAX_SPIN`` in magnitude) and energies
(keV) are ASCII decimals.  Blank lines and other ``#`` comments are ignored.
Files are read in batches: each file's text is scanned once, line by line,
for its encoding, headers, field counts, number syntax and the half-integer
grid (``qnum.on_grid``) into flat columns, then the band rules
(``model.band_faults``) are checked over the whole batch at once; either way
a failure names its line.
Serialization emits a canonical form that round-trips byte-identically.  All
report output is deterministic: fixed formats, '.' decimal separator, no
locale dependence.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .fit import FitResult
from .model import BandData, BandError, Bands, band_faults, spin_str
from .qnum import MAX_SPIN, on_grid

__all__ = [
    "BandParseError",
    "BandFile",
    "parse_band",
    "parse_band_file",
    "read_band_file",
    "read_bands",
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


def _decimal(token: str, kind: type = float):
    """kind(token) for an ASCII decimal; float() and int() also read "1_0" as 10, and non-ASCII digits."""
    if "_" in token or not token.isascii():
        raise ValueError(token)
    return kind(token)


class _Columns:
    """The data lines of a batch of band files as flat columns, one file
    after another: twice-spin, energy and line number."""

    def __init__(self):
        self.twoj: list[int] = []
        self.energies: list[float] = []
        self.line_nos: list[int] = []

    def scan(self, text: bytes | str) -> tuple[str | None, list[str], BandParseError | None]:
        """Check one file's text (encoding, headers, field count, number
        syntax, half-integer grid) and append each data line before its
        first fault.  Returns the band name, the note lines and that fault,
        or None."""
        if isinstance(text, bytes):
            try:
                text = text.decode("utf-8")
            except UnicodeDecodeError as exc:
                line_no = text.count(b"\n", 0, exc.start) + 1
                return None, [], BandParseError(line_no, f"byte {text[exc.start]:#04x} is not valid UTF-8")
        text = text.removeprefix("\ufeff")  # one leading byte-order mark
        read = float if text.isascii() and "_" not in text else _decimal
        twojs, energies, line_nos = self.twoj, self.energies, self.line_nos

        name: str | None = None
        notes: list[str] = []
        # Lines end at "\n" only: str.splitlines would also break at form feeds
        # and Unicode separators and shift every later line number.
        for line_no, raw in enumerate(text.split("\n"), start=1):
            line = raw.strip()
            if not line:
                continue
            if line[0] == "#":
                body = line[1:].strip()
                if body.startswith("nucleus:"):
                    if name is not None:
                        return name, notes, BandParseError(line_no, "duplicate '# nucleus:' header")
                    name = body[len("nucleus:"):].strip()
                    if not name:
                        return name, notes, BandParseError(line_no, "empty nucleus name")
                elif body.startswith("note:"):
                    notes.append(body[len("note:"):].strip())
                continue
            if name is None:
                return name, notes, BandParseError(line_no, "data before the required '# nucleus:' header")
            tokens = line.split()
            if len(tokens) != 2:
                return name, notes, BandParseError(line_no, f"expected '<spin> <energy_keV>', got {len(tokens)} fields")
            try:
                spin = read(tokens[0])
            except ValueError:
                spin = math.nan
            twoj = on_grid(spin)
            if twoj is None:
                if MAX_SPIN < abs(spin) < math.inf:
                    return name, notes, BandParseError(line_no, f"spin {tokens[0]!r} exceeds {MAX_SPIN}")
                return name, notes, BandParseError(line_no, f"invalid spin {tokens[0]!r} (integer or half-integer)")
            try:
                energies.append(read(tokens[1]))
            except ValueError:
                return name, notes, BandParseError(line_no, f"non-numeric energy {tokens[1]!r}")
            twojs.append(twoj)
            line_nos.append(line_no)
        if name is None:
            return name, notes, BandParseError(0, "missing '# nucleus:' header")
        return name, notes, None


def _parse_batch(
    texts: Iterable[bytes | str | BandError],
) -> tuple[list[BandData | BandError], list[str | None], Bands]:
    """Parse a batch of band-file texts (or the error reading each) in one
    pass: per text, its band or its first failure, and its note; and the
    bands read, as one batch.

    Every text is scanned once into flat columns; the scan finds the text
    faults, a spin off the half-integer grid or an energy that does not read
    included.  The band rules are then checked over the whole batch at once.
    A file's failure is its first text fault in line order, else its band's
    first fault, named by the line of the level at fault.
    """
    columns = _Columns()
    names, notes, faults, counts = [], [], [], []
    for text in texts:
        before = len(columns.line_nos)
        name, note, fault = (None, [], text) if isinstance(text, BandError) else columns.scan(text)
        names.append(name)
        notes.append("\n".join(note) if note else None)
        faults.append(fault)
        counts.append(len(columns.line_nos) - before)
    counts = np.array(counts, dtype=np.intp)
    starts = np.cumsum(counts) - counts
    twoj = np.array(columns.twoj, dtype=np.int64)
    energies = np.array(columns.energies, dtype=float)
    faulty_bands = band_faults(names, twoj, energies, counts)
    outcomes: list[BandData | BandError] = []
    kept = np.zeros(len(names), dtype=bool)
    for k, (name, fault, start, count) in enumerate(zip(names, faults, starts.tolist(), counts.tolist())):
        if fault is None and k in faulty_bands:
            level = faulty_bands[k].level
            fault = BandParseError(0 if level is None else columns.line_nos[start + level], str(faulty_bands[k]))
        if fault is not None:
            outcomes.append(fault)
        else:
            end = start + count
            outcomes.append(BandData._checked(name, tuple(columns.twoj[start:end]), tuple(columns.energies[start:end])))
            kept[k] = True
    levels = np.repeat(kept, counts)
    read = [band for band in outcomes if isinstance(band, BandData)]
    bands = Bands(read, twoj[levels], energies[levels], counts[kept])
    return outcomes, notes, bands


def parse_band_file(text: bytes | str, path: Path | None = None) -> BandFile:
    """Parse band-file text, keeping the provenance note lines: the
    one-text case of the batch reader."""
    (band,), (note,), _ = _parse_batch([text])
    if isinstance(band, BandError):
        raise band
    return BandFile(path=path, parsed=band, source_note=note)


def _read(path: Path | str) -> bytes | BandError:
    try:
        with open(path, "rb", buffering=0) as file:
            return file.readall()
    except OSError as exc:
        return BandError(f"cannot read band file: {exc}")


def read_band_file(path: Path | str) -> BandFile:
    path = Path(path)
    raw = _read(path)
    if isinstance(raw, BandError):
        raise raw
    return parse_band_file(raw, path=path)


def read_bands(paths: Sequence[Path | str]) -> tuple[list[BandData | BandError], Bands]:
    """Read and parse every band file in one batch: per path, its band or
    the BandError that stops it; and the bands read, as one batch with the
    columns the fit kernel takes."""
    outcomes, _, bands = _parse_batch(map(_read, paths))
    return outcomes, bands


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


def _fit_json(name: str, result: FitResult, levels: list[list[str]]) -> str:
    """One report row; ``name`` is the band name already JSON-encoded.
    ``levels`` holds the band's spins and experimental energies as text:
    the band's first row formats them into it, its other row reuses them,
    since both fits share those columns."""
    qp = result.qp
    if qp is None:
        tau, dim = "null", "null"
        A, chi2, rms = _json_floats([result.A, result.chi2, result.rms])
    else:
        tau, A, chi2, rms = _json_floats([qp.tau, result.A, result.chi2, result.rms])
        dim = int.__repr__(qp.dim)
    j, exp, theo, _ = result.residual_columns()
    if not levels:
        levels += [_json_floats(j.tolist()), _json_floats(exp.tolist())]
    values = chain.from_iterable(zip(*levels, _json_floats(theo.tolist())))
    residuals = ",\n".join([_JSON_LEVEL] * len(j)) % tuple(values)
    variant = encode_basestring_ascii(result.variant.value)
    return _JSON_ROW % (name, tau, dim, A, chi2, rms, variant, residuals)


def _report_json(results) -> bytes:
    rows = []
    for entry in results:
        band, fit_q, fit_cl = _entry_fits(entry)
        name = encode_basestring_ascii(band.name)
        levels: list[list[str]] = []
        rows.extend(_fit_json(name, result, levels) for result in (fit_q, fit_cl) if result is not None)
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
