import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _reference_report import reference_report_json
from _synth import exact_band, random_band, spin_range
from qrotor.fit import _fit, _outcomes, compare_batch
from qrotor.ingest import (
    BandFile,
    BandParseError,
    _plot_data,
    parse_band,
    parse_band_file,
    read_band_file,
    write_band,
    write_report,
)
from qrotor.model import BandData, BandError, Bands, q_parameter_from_band
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

    @settings(max_examples=200, deadline=None)
    @given(name=st.text(), twice_jmin=st.integers(0, 20), twice_step=st.integers(1, 6), count=st.integers(3, 10))
    @example(name="a\nb", twice_jmin=4, twice_step=4, count=3)
    @example(name=" Dy ", twice_jmin=4, twice_step=4, count=3)
    @example(name=" ", twice_jmin=4, twice_step=4, count=3)
    def test_a_name_is_one_line_of_every_output_or_refused(self, name, twice_jmin, twice_step, count):
        # a name the band reader cannot read back as it is, with a line
        # break or outer whitespace, is refused with the band
        twojs = [twice_jmin + k * twice_step for k in range(count)]
        levels = tuple((twoj, 100.0 + 10.0 * twoj * (twoj + 2) / 4) for twoj in twojs)
        try:
            band = BandData(name, levels)
        except BandError:
            assert not name or "\n" in name or name != name.strip()
            return
        assert parse_band(write_band(band)) == band
        fits = compare_batch([band])
        assert write_report(fits).count(b"\n") == 2
        assert _plot_data(fits).count(b"\n") == 2 + count

    def test_read_band_file(self, dy162_path):
        bf = read_band_file(dy162_path)
        assert bf.parsed.name == "162Dy"
        assert bf.path == dy162_path
        assert "evaluated" in bf.source_note

    def test_read_missing_file(self, tmp_path):
        with pytest.raises(BandError, match="cannot read"):
            read_band_file(tmp_path / "nope.band")


def _band(name="fitted", a0=12.81):
    """A band exact in the deformed model at the tau its spin content fixes."""
    return exact_band(name, a0, QParameter.from_dim(189), spin_range(2.0, 2.0, 9))


def _fits(bands, classical_only=False):
    """The columns the command line reports: ``compare_batch`` over the batch."""
    return compare_batch(bands, classical_only)


def _entries(fits):
    """Each shown band of ``fits`` as the reference writer's (band, deformed
    FitResult or None, classical FitResult) entry."""
    fits_cl = _outcomes(fits, 0)
    fits_q = _outcomes(fits, 1) if len(fits.qps) > 1 else [None] * len(fits_cl)
    return [(fits.bands[k], fits_q[k], fits_cl[k]) for k in fits.shown().tolist()]


class TestWriteReport:
    def test_exact_band_row(self):
        table = write_report(_fits([_band()])).decode()
        lines = table.splitlines()
        assert len(lines) == 2
        assert "nucleus" in lines[0]
        assert "0.0332" in lines[1]
        assert "12.81" in lines[1]
        assert "0.00" in lines[1]

    def test_deterministic_bytes(self):
        assert write_report(_fits([_band()])) == write_report(_fits([_band()]))

    def test_empty_results_rejected(self):
        overflow = BandData.from_levels("overflow", [(0, 0.0), (1, 1e-7), (2, 1e308)])
        for bands in ([], [overflow]):
            for classical_only in (False, True):
                with pytest.raises(ValueError, match="^no fit results to report$"):
                    write_report(_fits(bands, classical_only))

    def test_json_document(self):
        doc = json.loads(write_report(_fits([_band()]), as_json=True))
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
        fits = _fits([_band()], classical_only=True)
        row = write_report(fits).decode().splitlines()[1].split()
        assert row[1] == "-"
        assert row[2:] == [f"{fits.A[0, 0]:.2f}", f"{1e3 * fits.chi2[0, 0]:.2f}", *[f"{fits.rms[0, 0]:.2f}"] * 2]

    def test_json_rejects_non_finite(self):
        fits = _fits([_band()])
        fits.chi2[1, 0] = math.nan
        with pytest.raises(ValueError):
            write_report(fits, as_json=True)


# Names the JSON encoder must escape: quote, backslash, control character,
# non-ASCII text inside and outside the Basic Multilingual Plane.
AWKWARD_NAMES = ('Dy "162"', "back\\slash", "tab\there", "Dy\u2013162", "\u00b9\u2076\u00b2Dy", "\U0001d4dfrotor")


def _mixed_bands(seed=3, count=300):
    """Seeded bands with integer and half-integer spins, energies scaled so
    every float form shows up, some with awkward names."""
    rng = np.random.default_rng(seed)
    bands = []
    for tag in range(count):
        band = random_band(rng, tag)[0]
        scale = float(rng.choice([1e-7, 1.0, 1.0, 1e17]))
        name = AWKWARD_NAMES[tag % len(AWKWARD_NAMES)] if tag % 7 == 0 else band.name
        bands.append(BandData.from_levels(name, [(j, e * scale) for j, e in zip(band.spins, band.energies)]))
    return bands


class TestJsonReport:
    """The column-formatted JSON report against json.dumps of the rows."""

    def test_bundled_bands(self, bands_dir):
        bands = [read_band_file(path).parsed for path in sorted(bands_dir.glob("*.band"))]
        for classical_only in (False, True):
            fits = _fits(bands, classical_only)
            assert len(fits.shown()) == 3
            assert write_report(fits, as_json=True) == reference_report_json(_entries(fits))

    def test_seeded_mixed_batch(self):
        bands = _mixed_bands()
        for classical_only in (False, True):
            fits = _fits(bands, classical_only)
            entries = _entries(fits)
            assert len(entries) > 250
            assert any(band.twostep % 2 for band, _, _ in entries)
            assert {band.name for band, _, _ in entries} >= set(AWKWARD_NAMES)
            assert write_report(fits, as_json=True) == reference_report_json(entries)

    @pytest.mark.parametrize("variants", ["classical", "deformed"])
    def test_single_row(self, variants):
        band = _band()
        fits = _fit(Bands.of([band]), [[None if variants == "classical" else q_parameter_from_band(band)]])
        if variants == "deformed":  # not fit.compare_batch's layout, whose row 0 is the baseline
            with pytest.raises(ValueError, match="fit.compare_batch"):
                write_report(fits, as_json=True)
            return
        # the opening and closing brackets go on one and the same row
        payload = write_report(fits, as_json=True)
        assert payload == reference_report_json([(band, None, *_outcomes(fits, 0))])
        assert [row["variant"] for row in json.loads(payload)] == ["classical"]

    @pytest.mark.parametrize("name", AWKWARD_NAMES)
    def test_escaped_names(self, name):
        fits = _fits([_band(name)])
        payload = write_report(fits, as_json=True)
        assert payload == reference_report_json(_entries(fits))
        assert payload.isascii()
        assert json.loads(payload)[0]["nucleus"] == name

    @pytest.mark.parametrize("field", ["A", "chi2", "rms"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_header_matches_encoder(self, field, value):
        # written into the classical row of a batch that passed every check
        fits = _fits([_band()])
        getattr(fits, field)[0, 0] = value
        with pytest.raises(ValueError) as expected:
            reference_report_json(_entries(fits))
        with pytest.raises(ValueError, match="not JSON compliant") as got:
            write_report(fits, as_json=True)
        assert str(got.value) == str(expected.value)

    def test_json_rejects_non_finite_residual(self):
        fits = _fits([_band()])
        fits.A[1, 0] = 1e308
        assert all(math.isfinite(column[1, 0]) for column in (fits.A, fits.chi2, fits.rms))
        assert math.isinf(fits.residuals()[0][1, 4])
        with pytest.raises(ValueError, match="not JSON compliant: inf$"):
            write_report(fits, as_json=True)
        with pytest.raises(ValueError, match="not JSON compliant: inf$"):
            reference_report_json(_entries(fits))


def test_json_spins_and_energies_formatted_once_per_band(monkeypatch):
    # a band's deformed and classical rows share its j and exp_keV columns
    from qrotor import ingest

    formatted = []
    json_floats = ingest._json_floats
    monkeypatch.setattr(ingest, "_json_floats", lambda values: formatted.append(len(values)) or json_floats(values))
    fits = _fits(_mixed_bands(count=40))
    payload = write_report(fits, as_json=True)
    assert payload == reference_report_json(_entries(fits))
    # per band: tau, A, chi2 and rms of the deformed row, A, chi2 and rms of
    # the classical row, and per level j, exp_keV and each row's theo_keV
    assert sum(formatted) == sum(7 + 4 * len(band.levels) for band, _, _ in _entries(fits))


# Row layouts other than fit.compare_batch's, by the writers that reject them:
# every writer needs row 0 the j(j+1) baseline and row 1 the deformed fits,
# and the plot data needs both rows.
LAYOUTS = {
    "deformed-only": lambda qp: [[qp]],
    "swapped": lambda qp: [[qp], [None]],
    "three-rows": lambda qp: [[None], [qp], [qp]],
}
WRITERS = {
    "table": write_report,
    "json": lambda fits: write_report(fits, as_json=True),
    "plot": _plot_data,
}


class TestLayout:
    @pytest.mark.parametrize("writer", sorted(WRITERS))
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_writers_name_compare_for_other_layouts(self, dy162_path, writer, layout):
        dy162 = read_band_file(dy162_path).parsed
        fits = _fit(Bands.of([dy162]), LAYOUTS[layout](q_parameter_from_band(dy162)))
        with pytest.raises(ValueError, match=r"^expected the Fits of fit\.compare_batch: row 0 the j\(j\+1\) baseline"):
            WRITERS[writer](fits)

    def test_plot_data_needs_the_deformed_row(self):
        with pytest.raises(ValueError, match=r"fit\.compare_batch: .* and row 1 the deformed fits$"):
            _plot_data(_fits([_band()], classical_only=True))


class TestPlotData:
    def test_shape_and_zero_residuals(self):
        text = _plot_data(_fits([_band()])).decode()
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
        assert _plot_data(_fits([_band()])) == _plot_data(_fits([_band()]))
