"""Band data files, report tables, and plot-ready output.

Band files are line-oriented UTF-8, with or without a leading byte-order mark:

    # nucleus: 162Dy
    # note: free-text provenance, may repeat
    2 80.66
    4 265.785
    ...

Spins (integer or .5, at most ``qnum.MAX_SPIN`` in magnitude) and energies
(keV) are ASCII decimals.  Blank lines and other ``#`` comments are ignored.
Files are read in batches (``read_bands``): ``_scan`` reads each file's text
once, line by line, for its encoding, headers, field counts, number syntax
and the half-integer grid (``qnum.on_grid``) into the batch's flat columns,
then the band rules (``model.band_faults``) are checked over the whole batch
at once; either way a failure names its line.  Only regular files are read:
a pipe or a device is refused before any read.  The report table, the JSON
report and the plot data are each formatted by one function from one input,
the ``fit.Fits`` columns that ``fit.compare_batch`` returns for the batch.
Serialization emits a canonical form that round-trips byte-identically.  All
report output is deterministic: fixed formats, '.' decimal separator, no
locale dependence.
"""

from __future__ import annotations

import errno
import math
import os
import stat
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .fit import Fits, Variant
from .model import BandData, BandError, Bands, band_faults, spin_str
from .qnum import MAX_SPIN, _decimal, on_grid

__all__ = [
    "BandParseError",
    "BandFile",
    "parse_band",
    "parse_band_file",
    "read_band_file",
    "read_bands",
    "write_band",
    "write_report",
    "write_plot_data",
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


def _scan(text: bytes | str, twojs: list[int], energies: list[float],
          line_nos: list[int]) -> tuple[str | None, list[str], BandParseError | None]:
    """Check one file's text (encoding, headers, field count, number syntax,
    half-integer grid) and append each data line before its first fault to
    the columns: twice-spin, energy and line number.  Returns the band name,
    the note lines and that fault, or None."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            line_no = text.count(b"\n", 0, exc.start) + 1
            return None, [], BandParseError(line_no, f"byte {text[exc.start]:#04x} is not valid UTF-8")
    text = text.removeprefix("\ufeff")  # one leading byte-order mark
    read = float if text.isascii() and "_" not in text else _decimal

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


def _parse_batch(texts: Iterable[bytes | str | BandError]) -> tuple[list[BandError | None], list[str | None], Bands]:
    """Parse a batch of band-file texts (or the error reading each) in one
    pass: per text, its first failure or None, and its note; and the bands
    read, as one batch.

    Every text is scanned once by ``_scan`` into three flat columns; the
    scan finds the text faults, a spin off the half-integer grid or an energy
    that does not read included.  The band rules are then checked over the
    whole batch at once.
    A file's failure is its first text fault in line order, else its band's
    first fault, named by the line of the level at fault.
    """
    twojs, energies, line_nos = [], [], []
    names, notes, faults, counts = [], [], [], []
    for text in texts:
        before = len(line_nos)
        name, note, fault = (None, [], text) if isinstance(text, BandError) else _scan(text, twojs, energies, line_nos)
        names.append(name)
        notes.append("\n".join(note) if note else None)
        faults.append(fault)
        counts.append(len(line_nos) - before)
    counts = np.array(counts, dtype=np.intp)
    starts = np.cumsum(counts) - counts
    twoj = np.array(twojs, dtype=np.int64)
    energies = np.array(energies, dtype=float)
    for k, fault in band_faults(names, twoj, energies, counts).items():
        if faults[k] is None:
            line_no = 0 if fault.level is None else line_nos[int(starts[k]) + fault.level]
            faults[k] = BandParseError(line_no, str(fault))
    kept = np.fromiter((fault is None for fault in faults), bool, len(faults))
    levels = np.repeat(kept, counts)
    read = [name for name, fault in zip(names, faults) if fault is None]
    return faults, notes, Bands(read, twoj[levels], energies[levels], counts[kept])


def parse_band_file(text: bytes | str, path: Path | None = None) -> BandFile:
    """Parse band-file text, keeping the provenance note lines: the
    one-text case of the batch reader."""
    (fault,), (note,), bands = _parse_batch([text])
    if fault is not None:
        raise fault
    return BandFile(path=path, parsed=bands[0], source_note=note)


# Without O_NONBLOCK, opening a FIFO waits for a writer; O_BINARY (Windows
# only) keeps "\r\n" as it is.
_OPEN_FLAGS = os.O_RDONLY | getattr(os, "O_NONBLOCK", 0) | getattr(os, "O_BINARY", 0)


def _read(path: Path | str) -> bytes | BandError:
    """The bytes of a regular file, or the BandError that stops reading it.
    A pipe, a device or a socket is refused before any read."""
    try:
        fd = os.open(path, _OPEN_FLAGS)
        try:
            status = os.fstat(fd)
            if stat.S_ISDIR(status.st_mode):  # os.read's EISDIR would carry no file name
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))
            if not stat.S_ISREG(status.st_mode):
                return BandError("cannot read band file: not a regular file")
            chunks = [os.read(fd, status.st_size + 1)]
            while chunks[-1]:  # a file that grew since fstat
                chunks.append(os.read(fd, 1 << 16))
            chunks.pop()
            return b"".join(chunks)  # one chunk is returned as it is, not copied
        finally:
            os.close(fd)
    except OSError as exc:
        return BandError(f"cannot read band file: {exc}")


def read_band_file(path: Path | str) -> BandFile:
    path = Path(path)
    raw = _read(path)
    if isinstance(raw, BandError):
        raise raw
    return parse_band_file(raw, path=path)


def read_bands(paths: Sequence[Path | str]) -> tuple[list[BandError | None], Bands]:
    """Read and parse every band file in one batch: per path, the BandError
    that stops it or None; and the bands read, as one batch for ``fit.compare_batch``."""
    faults, _, bands = _parse_batch(map(_read, paths))
    return faults, bands


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


def write_report(fits: Fits, as_json: bool = False) -> bytes:
    """Fixed-width fit table, or the full JSON document with residuals, of
    the bands of a fitted batch without a failed fit.

    ``fits`` is the ``fit.Fits`` of a batch, as ``fit.compare_batch`` makes
    it from the bands ``read_bands`` returns; the command line reports the
    one it fitted.  ValueError for a ``Fits`` in any other layout or with no
    band to show.
    """
    return (_report_json if as_json else _report_table)(fits, _shown(fits, both=False))


def _shown(fits: Fits, both: bool) -> np.ndarray:
    """``fits.shown()``, the bands a writer shows; ValueError, naming
    ``fit.compare_batch``, unless ``fits`` has its layout (row 0 the j(j+1)
    baseline, every dimension 0, and row 1 the deformed fits, every
    dimension set, which only ``both`` requires), and if none is shown."""
    dims = fits.dims
    if len(dims) not in ((2,) if both else (1, 2)) or dims[0].any() or not dims[1:].all():
        deformed = "row 1" if both else "row 1, if present,"
        raise ValueError(
            f"expected the Fits of fit.compare_batch: row 0 the j(j+1) baseline and {deformed} the deformed fits")
    if not len(shown := fits.shown()):
        raise ValueError("no fit results to report")
    return shown


def _report_table(fits: Fits, shown: np.ndarray) -> bytes:
    """One row per shown band: its deformed fit, with tau "-" and its
    baseline fit instead when the batch fitted the baseline alone."""
    names = [fits.bands.names[k] for k in shown.tolist()]
    width = max(8, max(map(len, names)))
    q = len(fits.dims) - 1  # the deformed row, or the baseline when fitted alone
    A, chi2, rms = (column[q, shown] for column in (fits.A, fits.chi2, fits.rms))
    tau = [f"{value:.4f}" for value in fits.tau[q, shown].tolist()] if q else ["-"] * len(names)
    rows = zip(names, tau, A.tolist(), (1e3 * chi2).tolist(), rms.tolist(), fits.rms[0, shown].tolist())
    header = (
        f"{'nucleus':<{width}} {'tau':>8} {'A[keV]':>8} {'1e3*chi2':>10} "
        f"{'rms[keV]':>9} {'rms_cl[keV]':>12}"
    )
    lines = [header, *map(f"%-{width}s %8s %8.2f %10.2f %9.2f %12.2f".__mod__, rows)]
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


def _report_json(fits: Fits, shown: np.ndarray) -> bytes:
    """Per shown band the deformed row, where fitted, then the classical one."""
    from json.encoder import encode_basestring_ascii  # here, so that only a JSON report loads json
    bands = fits.bands
    theo, _ = fits.residuals()
    starts, counts = bands.starts.tolist(), bands.counts.tolist()
    A, chi2, rms, tau, dims = map(np.ndarray.tolist, (fits.A, fits.chi2, fits.rms, fits.tau, fits.dims))
    classical, deformed = (encode_basestring_ascii(variant.value) for variant in (Variant.CLASSICAL, Variant.Q_DEFORMED))
    rows = []
    for k in shown.tolist():
        name = encode_basestring_ascii(bands.names[k])
        lo, hi = starts[k], starts[k] + counts[k]
        levels = [_json_floats(bands.j[lo:hi].tolist()), _json_floats(bands.e[lo:hi].tolist())]
        level_rows = ",\n".join([_JSON_LEVEL] * counts[k])
        for r in reversed(range(len(dims))):
            if dims[r][k] == 0:
                tau_text, dim, variant = "null", "null", classical
                A_text, chi2_text, rms_text = _json_floats([A[r][k], chi2[r][k], rms[r][k]])
            else:
                tau_text, A_text, chi2_text, rms_text = _json_floats([tau[r][k], A[r][k], chi2[r][k], rms[r][k]])
                dim, variant = int.__repr__(dims[r][k]), deformed
            values = chain.from_iterable(zip(*levels, _json_floats(theo[r, lo:hi].tolist())))
            residuals = level_rows % tuple(values)
            rows.append(_JSON_ROW % (name, tau_text, dim, A_text, chi2_text, rms_text, variant, residuals))
    rows[0] = "[\n" + rows[0]
    rows[-1] += "\n]\n"
    text = ",\n".join(rows)
    del rows  # so that the report is held at most twice: as text and as bytes
    return text.encode("ascii")


_PLOT_HEADER = "# j exp_keV theo_q_keV theo_classical_keV resid_q_keV resid_classical_keV"


def write_plot_data(fits: Fits) -> bytes:
    """Whitespace-separated columns ready for plotting tools, one block per
    band of a two-row ``Fits`` without a failed fit, the blocks separated
    by an empty line: a name line, a header line, then per level j, E_exp,
    E_q, E_classical, residual_q and residual_classical (keV); ValueError
    for a ``Fits`` in any other layout or with no band to show."""
    shown = _shown(fits, both=True)
    bands = fits.bands
    theo, diff = fits.residuals()
    twoj, inverse = np.unique(bands.twoj, return_inverse=True)
    spins = [spin_str(value) for value in twoj.tolist()]
    spins = [spins[index] for index in inverse.tolist()]
    starts, counts = bands.starts.tolist(), bands.counts.tolist()
    blocks = []
    for k in shown.tolist():
        lo, hi = starts[k], starts[k] + counts[k]
        rows = zip(spins[lo:hi], bands.e[lo:hi].tolist(), theo[1, lo:hi].tolist(), theo[0, lo:hi].tolist(),
                   diff[1, lo:hi].tolist(), diff[0, lo:hi].tolist())
        lines = [f"# nucleus: {bands.names[k]}", _PLOT_HEADER, *map("%s %.3f %.3f %.3f %.3f %.3f".__mod__, rows)]
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks).encode("utf-8")
