"""Band data files, report tables, and plot-ready output.

Band files are line-oriented UTF-8, with or without a leading byte-order mark:

    # nucleus: 162Dy
    # note: free-text provenance, may repeat
    2 80.66
    4 265.785
    ...

Spins (integer or .5, at most ``qnum.MAX_SPIN`` in magnitude) and energies
(keV) are ASCII decimals.  Blank lines and other ``#`` comments are ignored.
Files are read in batches (``read_bands``) in two steps.  ``reader`` reads
them and scans each text once, line by line, for its encoding, headers,
field counts, number syntax and the half-integer grid into a
``reader.Scan``'s flat columns, without numpy; ``_checked``, the numpy tail,
then checks the band rules (``model.band_faults``) over the whole batch at
once and gathers the bands that passed.  Either way a failure names its
line.  Only regular files are read: a pipe or a device is refused before any
read.  The command line runs the same two steps, with its scan started
before numpy loads (``reader.scan_paths``).  The report table, the JSON
report and the plot data are each formatted by one function from one input,
the ``fit.Fits`` columns that ``fit.compare_batch`` returns for the batch.
The JSON report's bands are formatted in chunks, one body per chunk inside
the framing, so that the command line can share the chunks with a forked
child (``_report_json``); ``write_report`` formats them all in-process.
Serialization emits a canonical form that round-trips byte-identically.  All
report output is deterministic: fixed formats, '.' decimal separator, no
locale dependence.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .fit import Fits
from .model import BandData, Bands, band_faults, spin_str
# BandParseError, _read and _scan keep their old home here too.
from .reader import BandError, BandParseError, Scan, _read, _scan, most_chunks, scan_paths

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


@dataclass(frozen=True)
class BandFile:
    """A parsed band plus its file-level provenance."""

    path: Path | None
    parsed: BandData
    source_note: str | None = None


def parse_band(text: bytes | str) -> BandData:
    """Parse band-file text into validated BandData."""
    return parse_band_file(text).parsed


def _checked(scan: Scan) -> tuple[list[BandError | None], list[str | None], Bands]:
    """The numpy tail of the band reader over a ``reader.Scan``: per text,
    its first failure or None, and its note; and the bands read, as one
    batch.

    The band rules are checked over the scan's columns at once.  A text's
    failure is its first text fault in line order, else its band's first
    fault, named by the line of the level at fault.
    """
    counts = np.frombuffer(scan.counts, dtype=np.int64)
    starts = np.cumsum(counts) - counts
    twoj = np.frombuffer(scan.twoj, dtype=np.int64)
    energies = np.frombuffer(scan.e, dtype=float)
    faults = scan.faults.copy()
    for k, fault in band_faults(scan.names, twoj, energies, counts).items():
        if faults[k] is None:
            line_no = 0 if fault.level is None else scan.line[int(starts[k]) + fault.level]
            faults[k] = BandParseError(line_no, str(fault))
    kept = np.fromiter((fault is None for fault in faults), bool, len(faults))
    levels = np.repeat(kept, counts)
    read = [name for name, fault in zip(scan.names, faults) if fault is None]
    return faults, scan.notes, Bands(read, twoj[levels], energies[levels], counts[kept])


def parse_band_file(text: bytes | str, path: Path | None = None) -> BandFile:
    """Parse band-file text, keeping the provenance note lines: the
    one-text case of the batch reader."""
    (fault,), (note,), bands = _checked(Scan([text]))
    if fault is not None:
        raise fault
    return BandFile(path=path, parsed=bands[0], source_note=note)


def read_band_file(path: Path | str) -> BandFile:
    path = Path(path)
    raw = _read(path)
    if isinstance(raw, BandError):
        raise raw
    return parse_band_file(raw, path=path)


def read_bands(paths: Sequence[Path | str]) -> tuple[list[BandError | None], Bands]:
    """Read and parse every band file in one batch: per path, the BandError
    that stops it or None; and the bands read, as one batch for ``fit.compare_batch``."""
    faults, _, bands = _checked(scan_paths(paths))
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
    shown = _shown(fits, both=False)
    return b"".join(_report_json(fits, shown)) if as_json else _report_table(fits, shown)


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


# Levels per chunk of the JSON report's shown bands.  json-long's 60,000
# make about sixty chunks, so two processes that take chunks as they go end
# within a few milliseconds of each other; 512 and 4,096 measured no better.
_CHUNK_LEVELS = 1024


def _report_json(fits: Fits, shown: np.ndarray, run=lambda body, count: map(body, range(count))) -> list[bytes]:
    """The JSON report as byte pieces, in order: the framing around the body
    of each chunk of shown bands, which ``run(body, count)`` gives, in
    order, as ``[body(k) for k in range(count)]`` (``reader.forked`` shares
    the chunks with a forked child).  A body has per shown band the
    deformed row, where fitted, then the classical one.  The columns each
    body reads are computed once, before ``run``."""
    from json.encoder import encode_basestring_ascii  # here, so that only a JSON report loads json
    bands = fits.bands
    theo, _ = fits.residuals()
    starts, counts = bands.starts.tolist(), bands.counts.tolist()
    A, chi2, rms, tau, dims = map(np.ndarray.tolist, (fits.A, fits.chi2, fits.rms, fits.tau, fits.dims))
    levels = bands.counts[shown]
    size = max(_CHUNK_LEVELS, -(-int(levels.sum()) // most_chunks()))
    # A chunk is the bands whose first level falls in one stretch of size levels.
    chunks = np.split(shown, np.flatnonzero(np.diff((np.cumsum(levels) - levels) // size)) + 1)

    def body(c: int) -> bytes:
        rows = []
        for k in chunks[c].tolist():
            name = encode_basestring_ascii(bands.names[k])
            lo, hi = starts[k], starts[k] + counts[k]
            level_values = [_json_floats(bands.j[lo:hi].tolist()), _json_floats(bands.e[lo:hi].tolist())]
            level_rows = ",\n".join([_JSON_LEVEL] * counts[k])
            for r in reversed(range(len(dims))):
                if dims[r][k] == 0:
                    tau_text, dim, variant = "null", "null", '"classical"'
                    A_text, chi2_text, rms_text = _json_floats([A[r][k], chi2[r][k], rms[r][k]])
                else:
                    tau_text, A_text, chi2_text, rms_text = _json_floats([tau[r][k], A[r][k], chi2[r][k], rms[r][k]])
                    dim, variant = int.__repr__(dims[r][k]), '"q_deformed"'
                values = chain.from_iterable(zip(*level_values, _json_floats(theo[r, lo:hi].tolist())))
                residuals = level_rows % tuple(values)
                rows.append(_JSON_ROW % (name, tau_text, dim, A_text, chi2_text, rms_text, variant, residuals))
        return ",\n".join(rows).encode("ascii")

    pieces = [b"[\n"]
    for text in run(body, len(chunks)):
        pieces += (text, b",\n")
    pieces[-1] = b"\n]\n"
    return pieces


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
