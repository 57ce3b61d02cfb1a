"""Fuzzed band files: whatever the bytes, parsing ends in a band or a
``BandError``, a level diagnostic names a data row, accepted bands
round-trip, and ``qrotor table --json`` exits 0 or 1 with strict JSON."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qrotor.cli import main
from qrotor.ingest import BandParseError, parse_band, parse_band_file, write_band
from test_cli import _strict_json

# Messages of the per-level rules checked by BandData (the rest are text rules).
LEVEL_RULES = ("spins must be", "lowest level energy", "duplicate spin", "inconsistent spin step",
               "energies must be", "energy must be finite")

TOKENS = [b"0", b"1", b"2", b"4", b"5", b"-0", b"-2", b"2.5", b"1_0", b"nan", b"inf", b"-inf", b"1e308",
          b"x", b"\x0c", "\u2028".encode(), b"\xff", b"\xc3"]
OTHER_LINES = [b"# nucleus:", b"# nucleus: y", "# nucleus: \u03b1 y".encode(), b"# note: n", b"# note:",
               b"# comment", b""]


@st.composite
def band_texts(draw, tokens=TOKENS, starts=(0.0, 0.5, 2.0)):
    """A well-formed band with a drawn start, step and length, with up to two
    of its lines replaced by, or preceded by, a token row, another line, or
    that line's spin with a token for its energy."""
    start = draw(st.sampled_from(starts))
    step = draw(st.sampled_from([0.5, 1.0, 2.0]))
    count = draw(st.integers(0, 8))
    lines = [b"# nucleus: x"] + [b"%r %r" % (start + k * step, 10.0 * k * (k + 1)) for k in range(count)]
    token_row = st.lists(st.sampled_from(tokens), max_size=3).map(b" ".join)
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines) - 1))
        spin = lines[at].split(b" ")[0]
        energy_row = st.sampled_from(tokens).map(lambda token: spin + b" " + token)
        line = draw(st.one_of(token_row, st.sampled_from(OTHER_LINES), energy_row))
        lines[at:at + draw(st.integers(0, 1))] = [line]
    newline = draw(st.sampled_from([b"\n", b"\r\n"]))
    return newline.join(lines) + newline


band_bytes = st.one_of(st.binary(max_size=64), band_texts())


@settings(max_examples=500, deadline=None)
@given(raw=band_bytes)
@example(raw=b"# nucleus: x\n# note:\n2 1\n4 2\n6 3\n")
def test_parse_raises_band_errors_or_round_trips(raw):
    """A ``BandParseError`` is checked; any other exception fails the test."""
    try:
        band_file = parse_band_file(raw)
    except BandParseError as exc:
        lines = raw.split(b"\n")
        assert 0 <= exc.line <= len(lines)
        if exc.message.startswith(LEVEL_RULES):
            assert exc.line > 0
            row = lines[exc.line - 1].decode().strip()
            assert row and not row.startswith("#") and len(row.split()) == 2
        if "not valid UTF-8" in exc.message:
            with pytest.raises(UnicodeDecodeError):
                lines[exc.line - 1].decode()
        return
    band = band_file.parsed
    assert parse_band(write_band(band)) == band
    assert parse_band_file(write_band(band_file)) == band_file
    assert write_band(parse_band_file(write_band(band_file))) == write_band(band_file)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200, deadline=None)
@given(raw=band_bytes)
def test_table_json_exits_cleanly(work, raw):
    path, out = work / "fuzz.band", work / "report.json"
    path.write_bytes(raw)
    out.unlink(missing_ok=True)
    code = main(["table", "--json", str(path), "-o", str(out)])
    assert code in (0, 1)
    if out.exists():
        rows = _strict_json(out.read_text())
        assert code == 0 and len(rows) == 2
