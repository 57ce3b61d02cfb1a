import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference_report import reference_report_json
from _synth import exact_band, random_band, spin_range
from qrotor.fit import compare_batch, fit_A
from qrotor.ingest import (
    BandFile,
    BandParseError,
    emit_plot_data,
    parse_band,
    parse_band_file,
    read_band_file,
    write_band,
    write_report,
)
from qrotor.model import BandData, BandError, q_parameter_from_band
from qrotor.qnum import QParameter

MINIMAL = b"# nucleus: testium\n2 100.0\n4 330.0\n6 690.0\n"


# Files with two faults each, the line and the message of the one that wins:
# a file's first text fault in line order, a spin before the energy on its
# line, else its band's first fault.
PRECEDENCE = [
    (b"# nucleus: x\n2 100\n2 200\n1.25 300\n", 4, "invalid spin '1.25' (integer or half-integer)"),
    (b"# nucleus: x\n2 100\nfoo bar\n6 700\n", 3, "invalid spin 'foo' (integer or half-integer)"),
    (b"# nucleus: x\n2 100\n2147483648 200\n6 300\n1 2 3\n", 3, "spin '2147483648' exceeds 1073741824"),
    (b"# nucleus: x\n2 100\n4 200\n6 abc\n8 400\n# nucleus: y\n", 4, "non-numeric energy 'abc'"),
]


class TestParseBand:
    def test_minimal_file(self):
        band = parse_band(MINIMAL)
        assert band.name == "testium"
        assert band.step == 2.0
        assert band.levels == ((4, 100.0), (8, 330.0), (12, 690.0))

    def test_accepts_str_input(self):
        assert parse_band(MINIMAL.decode()) == parse_band(MINIMAL)

    def test_half_integer_spins(self):
        text = b"# nucleus: odd\n7.5 100.0\n9.5 300.0\n11.5 600.0\n"
        band = parse_band(text)
        assert [twoj for twoj, _ in band.levels] == [15, 19, 23]
        assert band.step == 2.0

    def test_comments_and_blanks_ignored(self):
        text = b"\n# a comment\n# nucleus: x\n\n2 1.0\n# mid comment\n4 2.0\n6 4.0\n\n"
        assert parse_band(text).name == "x"

    def test_note_lines_captured(self):
        text = b"# nucleus: x\n# note: first\n# note: second\n2 1.0\n4 2.0\n6 4.0\n"
        bf = parse_band_file(text)
        assert bf.source_note == "first\nsecond"

    def test_inconsistent_step_line_number(self):
        text = b"# nucleus: x\n2 1.0\n4 2.0\n8 4.0\n"
        with pytest.raises(BandParseError, match="line 4.*step") as exc_info:
            parse_band(text)
        assert exc_info.value.line == 4

    def test_missing_header(self):
        with pytest.raises(BandParseError, match="nucleus"):
            parse_band(b"2 1.0\n4 2.0\n6 4.0\n")

    def test_duplicate_header(self):
        with pytest.raises(BandParseError, match="duplicate"):
            parse_band(b"# nucleus: a\n# nucleus: b\n2 1.0\n4 2.0\n6 4.0\n")

    def test_empty_nucleus_name(self):
        with pytest.raises(BandParseError, match="empty"):
            parse_band(b"# nucleus:\n2 1.0\n4 2.0\n6 4.0\n")

    def test_non_numeric_energy(self):
        with pytest.raises(BandParseError, match="line 3.*non-numeric"):
            parse_band(b"# nucleus: x\n2 1.0\n4 two\n6 4.0\n")

    def test_bad_spin(self):
        with pytest.raises(BandParseError, match="line 2.*spin"):
            parse_band(b"# nucleus: x\n2.3 1.0\n4 2.0\n6 4.0\n")

    @pytest.mark.parametrize("spin", ["inf", "-inf", "nan"])
    def test_non_finite_spin(self, spin):
        with pytest.raises(BandParseError, match=f"line 3.*invalid spin '{spin}'"):
            parse_band(f"# nucleus: x\n0 1.0\n{spin} 2.0\n6 4.0\n")

    @pytest.mark.parametrize("spin", ["1e308", "1.7976931348623157e308"])
    def test_spin_doubled_past_float_range(self, spin):
        # finite, but far past the spin cap, which names its own line
        with pytest.raises(BandParseError) as exc_info:
            parse_band(f"# nucleus: x\n0 1.0\n{spin} 2.0\n6 4.0\n")
        assert str(exc_info.value) == f"line 3: spin '{spin}' exceeds 1073741824"

    @pytest.mark.parametrize("row,message", [
        ("1_2 2.0", "invalid spin '1_2' (integer or half-integer)"),
        ("4 2_0.5", "non-numeric energy '2_0.5'"),
        ("4 1e1_0", "non-numeric energy '1e1_0'"),
    ])
    def test_rejects_digit_separators(self, row, message):
        # float() reads "1_2" as 12; band files hold plain decimals
        with pytest.raises(BandParseError) as exc:
            parse_band(f"# nucleus: x\n2 1.0\n{row}\n6 40.0\n")
        assert str(exc.value) == f"line 3: {message}"

    @pytest.mark.parametrize("row,message", [
        ("\u0664 2.5", "invalid spin '\u0664' (integer or half-integer)"),
        ("\uff14 2.5", "invalid spin '\uff14' (integer or half-integer)"),
        ("4 \u0662.\u0665", "non-numeric energy '\u0662.\u0665'"),
        ("4 2.\uff15", "non-numeric energy '2.\uff15'"),
    ], ids=["arabic-indic-spin", "fullwidth-spin", "arabic-indic-energy", "fullwidth-energy"])
    def test_rejects_non_ascii_digits(self, row, message):
        # float() reads Arabic-Indic and fullwidth digits as 0-9; band files hold ASCII decimals
        with pytest.raises(BandParseError) as exc:
            parse_band(f"# nucleus: x\n2 1.0\n{row}\n6 40.0\n".encode("utf-8"))
        assert str(exc.value) == f"line 3: {message}"

    def test_duplicate_spin(self):
        with pytest.raises(BandParseError, match="duplicate spin"):
            parse_band(b"# nucleus: x\n2 1.0\n2 2.0\n6 4.0\n")

    def test_decreasing_spin(self):
        with pytest.raises(BandParseError, match="increasing"):
            parse_band(b"# nucleus: x\n4 1.0\n2 2.0\n6 4.0\n")

    def test_non_increasing_energy(self):
        with pytest.raises(BandParseError, match="line 3.*energ"):
            parse_band(b"# nucleus: x\n2 5.0\n4 5.0\n6 9.0\n")

    def test_too_few_levels(self):
        with pytest.raises(BandParseError, match="3 levels"):
            parse_band(b"# nucleus: x\n2 1.0\n4 2.0\n")

    def test_wrong_field_count(self):
        with pytest.raises(BandParseError, match="line 2.*fields"):
            parse_band(b"# nucleus: x\n2 1.0 extra\n4 2.0\n6 4.0\n")

    @pytest.mark.parametrize("text,line,message", [
        (b"# nucleus: x\n2 1.0\n4 2.0\n8 4.0\n", 4, "inconsistent spin step: 4.0 after 2.0"),
        (b"# nucleus: x\n2 1.0\n# c\n2 2.0\n6 4.0\n", 4, "duplicate spin 2"),
        (b"# nucleus: x\n4 1.0\n2 2.0\n6 4.0\n", 3, "spins must be strictly increasing"),
        (b"# nucleus: x\n2 5.0\n4 9.0\n6 9.0\n", 4, "energies must be strictly increasing"),
        (b"# nucleus: x\n2 1.0\n2 2.0\n", 3, "duplicate spin 2"),
        *PRECEDENCE,
    ], ids=["step", "duplicate", "order", "energy", "before-level-count",
            "band-then-spin", "spin-and-energy", "cap-then-fields", "energy-then-header"])
    def test_level_rule_message_bytes(self, text, line, message):
        with pytest.raises(BandParseError) as exc_info:
            parse_band(text)
        assert (exc_info.value.line, str(exc_info.value)) == (line, f"line {line}: {message}")

    def test_non_utf8_byte(self):
        with pytest.raises(BandParseError) as exc_info:
            parse_band(b"# nucleus: g\n2 0\n4 5\xff\n6 9\n")
        assert str(exc_info.value) == "line 3: byte 0xff is not valid UTF-8"

    @pytest.mark.parametrize("separator", ["\x0c", "\u2028"], ids=["form-feed", "line-separator"])
    def test_lines_end_only_at_newline(self, separator):
        text = f"# nucleus: i\n2 0{separator}\n4 5\n6 4\n"
        for data in (text, text.encode()):
            with pytest.raises(BandParseError, match="^line 4: energies must be strictly increasing$"):
                parse_band(data)

    def test_crlf_line_endings(self):
        assert parse_band(MINIMAL.replace(b"\n", b"\r\n")) == parse_band(MINIMAL)

    def test_leading_byte_order_mark_skipped(self):
        for data in (b"\xef\xbb\xbf" + MINIMAL, "\ufeff" + MINIMAL.decode()):
            assert parse_band_file(data) == parse_band_file(MINIMAL)
        assert write_band(parse_band_file(b"\xef\xbb\xbf" + MINIMAL)) == MINIMAL

    @pytest.mark.parametrize("text,line,message", [
        ("\ufeff\ufeff# nucleus: x\n2 1\n4 2\n6 3\n", 1, "data before the required '# nucleus:' header"),
        ("\ufeff# nucleus: x\n2 1\n\ufeff4 2\n6 3\n", 3, "invalid spin '\\ufeff4' (integer or half-integer)"),
    ], ids=["second-mark", "mark-on-level-line"])
    def test_later_byte_order_mark_names_its_line(self, text, line, message):
        for data in (text, text.encode()):
            with pytest.raises(BandParseError) as exc_info:
                parse_band(data)
            assert str(exc_info.value) == f"line {line}: {message}"


class TestRoundTrip:
    def test_canonicalization_idempotent(self):
        messy = b"# nucleus: x\n\n# note: a note\n2.0 1.5\n# comment\n4.0 3.25\n6 7.125\n"
        once = write_band(parse_band_file(messy))
        twice = write_band(parse_band_file(once))
        assert once == twice

    def test_canonical_input_is_fixed_point(self):
        assert write_band(parse_band_file(write_band(parse_band_file(MINIMAL)))) == write_band(
            parse_band_file(MINIMAL)
        )

    names = st.text(alphabet="0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ-",
                    min_size=1, max_size=12)

    @settings(max_examples=60, deadline=None)
    @given(
        name=names,
        twice_jmin=st.integers(0, 20),
        twice_step=st.integers(1, 6),
        count=st.integers(3, 10),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_parse_write_inverse(self, name, twice_jmin, twice_step, count, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        spins = [(twice_jmin + k * twice_step) / 2.0 for k in range(count)]
        energies = np.cumsum(rng.uniform(0.5, 500.0, size=count)).tolist()
        band = BandData.from_levels(name, list(zip(spins, energies)))
        assert parse_band(write_band(band)) == band

    def test_read_band_file(self, dy162_path):
        bf = read_band_file(dy162_path)
        assert bf.parsed.name == "162Dy"
        assert bf.path == dy162_path
        assert "evaluated" in bf.source_note

    def test_read_missing_file(self, tmp_path):
        with pytest.raises(BandError, match="cannot read"):
            read_band_file(tmp_path / "nope.band")


def _fitted(name="fitted", a0=12.81):
    band = exact_band(name, a0, QParameter.from_dim(189), spin_range(2.0, 2.0, 9))
    qp = q_parameter_from_band(band)
    return band, fit_A(band, qp), fit_A(band, None)


class TestWriteReport:
    def test_exact_band_row(self):
        band, fq, fc = _fitted()
        table = write_report([(band, fq, fc)]).decode()
        lines = table.splitlines()
        assert len(lines) == 2
        assert "nucleus" in lines[0]
        assert "0.0332" in lines[1]
        assert "12.81" in lines[1]
        assert "0.00" in lines[1]

    def test_deterministic_bytes(self):
        band, fq, fc = _fitted()
        assert write_report([(band, fq, fc)]) == write_report([(band, fq, fc)])

    def test_empty_results_rejected(self):
        with pytest.raises(ValueError, match="no fit results"):
            write_report([])

    def test_json_document(self):
        band, fq, fc = _fitted()
        doc = json.loads(write_report([(band, fq, fc)], as_json=True))
        assert [row["variant"] for row in doc] == ["q_deformed", "classical"]
        q_row = doc[0]
        assert q_row["nucleus"] == "fitted"
        assert q_row["dim"] == 189
        assert q_row["tau"] == pytest.approx(2 * 3.141592653589793 / 189)
        assert set(q_row) == {"nucleus", "tau", "dim", "A_keV", "chi2_MeV2", "rms_keV",
                              "variant", "residuals"}
        assert len(q_row["residuals"]) == 9
        assert set(q_row["residuals"][0]) == {"j", "exp_keV", "theo_keV"}
        classical_row = doc[1]
        assert classical_row["tau"] is None
        assert classical_row["dim"] is None

    def test_classical_only_entry(self):
        band, _, fc = _fitted()
        row = write_report([(band, None, fc)]).decode().splitlines()[1].split()
        assert row[1] == "-"
        assert float(row[2]) == pytest.approx(fc.A, abs=0.005)

    def test_json_rejects_non_finite(self):
        band, fq, fc = _fitted()
        with pytest.raises(ValueError):
            write_report([(band, dataclasses.replace(fq, chi2=math.nan), fc)], as_json=True)

    def test_entry_without_fits_rejected(self):
        band, _, _ = _fitted()
        with pytest.raises(ValueError, match="no fit"):
            write_report([(band, None, None)])


# Names the JSON encoder must escape: quote, backslash, control character,
# non-ASCII text inside and outside the Basic Multilingual Plane.
AWKWARD_NAMES = ('Dy "162"', "back\\slash", "tab\there", "Dy\u2013162", "\u00b9\u2076\u00b2Dy", "\U0001d4dfrotor")


def _entries(bands, classical_only=False):
    fits = compare_batch(bands, classical_only)
    return [(band, *fit) for band, fit in zip(bands, fits) if not isinstance(fit, ValueError)]


def _mixed_entries(seed=3, count=300):
    """Seeded bands with integer and half-integer spins, energies scaled so
    every float form shows up, in deformed+classical, classical-only and
    deformed-only entries, some with awkward names."""
    rng = np.random.default_rng(seed)
    bands = []
    for tag in range(count):
        band = random_band(rng, tag)[0]
        scale = float(rng.choice([1e-7, 1.0, 1.0, 1e17]))
        name = AWKWARD_NAMES[tag % len(AWKWARD_NAMES)] if tag % 7 == 0 else band.name
        bands.append(BandData.from_levels(name, [(j, e * scale) for j, e in zip(band.spins, band.energies)]))
    entries = []
    for k, (band, fit_q, fit_cl) in enumerate(_entries(bands)):
        entries.append([(band, fit_q, fit_cl), (band, None, fit_cl), (band, fit_q, None)][k % 3])
    return entries


class TestJsonReport:
    """The column-formatted JSON report against json.dumps of the rows."""

    def test_bundled_bands(self, bands_dir):
        bands = [read_band_file(path).parsed for path in sorted(bands_dir.glob("*.band"))]
        for classical_only in (False, True):
            entries = _entries(bands, classical_only)
            assert len(entries) == 3
            assert write_report(entries, as_json=True) == reference_report_json(entries)

    def test_seeded_mixed_batch(self):
        entries = _mixed_entries()
        assert len(entries) > 250
        assert {(fit_q is None, fit_cl is None) for _, fit_q, fit_cl in entries} == {
            (False, False), (True, False), (False, True)}
        assert any(band.twostep % 2 for band, _, _ in entries)
        assert {band.name for band, _, _ in entries} >= set(AWKWARD_NAMES)
        assert write_report(entries, as_json=True) == reference_report_json(entries)

    @pytest.mark.parametrize("variants", ["classical", "deformed"])
    def test_single_row(self, variants):
        # the opening and closing brackets go on one and the same row
        band, fq, fc = _fitted()
        entries = [(band, None, fc) if variants == "classical" else (band, fq, None)]
        payload = write_report(entries, as_json=True)
        assert payload == reference_report_json(entries)
        assert len(json.loads(payload)) == 1

    @pytest.mark.parametrize("name", AWKWARD_NAMES)
    def test_escaped_names(self, name):
        band, fq, fc = _fitted(name)
        payload = write_report([(band, fq, fc)], as_json=True)
        assert payload == reference_report_json([(band, fq, fc)])
        assert payload.isascii()
        assert json.loads(payload)[0]["nucleus"] == name

    @pytest.mark.parametrize("field", ["A", "chi2", "rms"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_header_matches_encoder(self, field, value):
        band, fq, fc = _fitted()
        entries = [(band, fq, dataclasses.replace(fc, **{field: value}))]
        with pytest.raises(ValueError) as expected, np.errstate(invalid="ignore"):
            reference_report_json(entries)
        with pytest.raises(ValueError, match="not JSON compliant") as got:
            write_report(entries, as_json=True)
        assert str(got.value) == str(expected.value)

    def test_json_rejects_non_finite_residual(self):
        band, fq, fc = _fitted()
        factors = fq._factors.copy()
        factors[4] = math.nan
        bad = dataclasses.replace(fq, _factors=factors)
        assert all(math.isfinite(x) for x in (bad.A, bad.chi2, bad.rms))
        assert math.isnan(bad.residual_columns()[2][4])
        with pytest.raises(ValueError, match="not JSON compliant: nan$"):
            write_report([(band, bad, fc)], as_json=True)
        with pytest.raises(ValueError, match="not JSON compliant: nan$"):
            reference_report_json([(band, bad, fc)])


def test_json_spins_and_energies_formatted_once_per_band(monkeypatch):
    # a band's deformed and classical rows share its j and exp_keV columns
    from qrotor import ingest

    formatted = []
    json_floats = ingest._json_floats
    monkeypatch.setattr(ingest, "_json_floats", lambda values: formatted.append(len(values)) or json_floats(values))
    entries = _mixed_entries(count=40)
    payload = write_report(entries, as_json=True)
    assert payload == reference_report_json(entries)
    expected = 0
    for band, fit_q, fit_cl in entries:
        rows = (fit_q is not None) + (fit_cl is not None)
        expected += 4 * (fit_q is not None) + 3 * (fit_cl is not None) + (2 + rows) * len(band.levels)
    assert sum(formatted) == expected


class TestPlotData:
    def test_shape_and_zero_residuals(self):
        band, fq, fc = _fitted()
        text = emit_plot_data(band, fq, fc).decode()
        lines = text.splitlines()
        assert lines[0].startswith("# nucleus:")
        assert lines[1].startswith("#")
        rows = [line.split() for line in lines[2:]]
        assert len(rows) == 9
        assert all(len(row) == 6 for row in rows)
        # generated from the deformed model: its residual column vanishes
        assert all(abs(float(row[4])) < 1e-3 for row in rows)
        assert float(rows[0][0]) == 2.0

    def test_deterministic(self):
        band, fq, fc = _fitted()
        assert emit_plot_data(band, fq, fc) == emit_plot_data(band, fq, fc)
