"""The band-file reader as it was before files were read in batches: one
file at a time, line by line, with the band rules checked level by level.

Tests compare the batch reader in ``qrotor.ingest`` with it.  Its spin rule
is the sequential statement of the half-integer grid test: finite, at most
``MAX_SPIN`` in magnitude, and within 1e-9 of the half-integer grid.
"""

from __future__ import annotations

import math
from pathlib import Path

from qrotor.ingest import BandFile, BandParseError
from qrotor.model import BandData, BandError, spin_str
from qrotor.qnum import MAX_SPIN


def _twice_spin(j: float) -> int:
    if not math.isfinite(j):
        raise ValueError(f"spin must be finite, got {j}")
    if abs(j) > MAX_SPIN:
        raise ValueError(f"spin {j} exceeds {MAX_SPIN}")
    doubled = 2 * j
    twoj = round(doubled)
    if abs(doubled - twoj) > 1e-9:
        raise ValueError(f"spin must be an integer or half-integer, got {j}")
    return int(twoj)


def _decimal(token: str) -> float:
    """float(token) for an ASCII decimal; float() also reads "1_0" as 10, and non-ASCII digits."""
    if "_" in token or not token.isascii():
        raise ValueError(token)
    return float(token)


def check_levels(levels) -> None:
    """The band rules, level by level, as ``BandData`` checked them."""
    twostep = levels[1][0] - levels[0][0] if len(levels) > 1 else 0
    for index, (twoj, e) in enumerate(levels):
        if index == 0:
            if twoj < 0:
                raise BandError(f"spins must be nonnegative, got {spin_str(twoj)}", index)
            if e < 0:
                raise BandError(f"lowest level energy must be >= 0, got {e}", index)
        else:
            prev_j, prev_e = levels[index - 1]
            if twoj == prev_j:
                raise BandError(f"duplicate spin {spin_str(twoj)}", index)
            if twoj < prev_j:
                raise BandError("spins must be strictly increasing", index)
            if twoj - prev_j != twostep:
                raise BandError(f"inconsistent spin step: {(twoj - prev_j) / 2} after {twostep / 2}", index)
            if e <= prev_e:
                raise BandError("energies must be strictly increasing", index)
        if not math.isfinite(e):
            raise BandError(f"energy must be finite, got {e}", index)
    if len(levels) < 3:
        raise BandError(f"band needs at least 3 levels, got {len(levels)}")


def reference_parse_band_file(text: bytes | str, path: Path | None = None) -> BandFile:
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
            spin = _decimal(tokens[0])
        except ValueError:
            spin = math.nan
        if math.isfinite(spin) and abs(spin) > MAX_SPIN:
            raise BandParseError(line_no, f"spin {tokens[0]!r} exceeds {MAX_SPIN}")
        try:
            twoj = _twice_spin(spin)
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
        check_levels(levels)
    except BandError as exc:
        raise BandParseError(0 if exc.level is None else line_of[exc.level], str(exc)) from None
    # Built only after the rules above passed: a band they accept that
    # BandData rejects raises a plain BandError here, which no test expects.
    band = BandData(name=name, levels=tuple(levels))
    return BandFile(path=path, parsed=band, source_note="\n".join(notes) if notes else None)


def reference_read_band_file(path: Path | str) -> BandFile:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise BandError(f"cannot read band file: {exc}") from None
    return reference_parse_band_file(raw, path=path)
