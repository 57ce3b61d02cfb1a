import ast
import errno
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

import qrotor
from conftest import REPO_ROOT
from qrotor import cli
from qrotor.cli import _fit_one, build_parser, cmd_bands, main
from qrotor.fit import FitResult
from qrotor.ingest import BandParseError
from qrotor.model import BandData

GOOD = b"# nucleus: goodium\n2 100.0\n4 330.0\n6 690.0\n"
BAD = b"# nucleus: badium\n2 100.0\n4 330.0\n8 690.0\n"
# Finite input whose least-squares sums overflow to inf or nan.
OVERFLOW = b"# nucleus: overflowium\n0 0\n1 1e-7\n2 1e308\n"
# Spins past the cap, 2**30.
HUGE_SPINS = b"# nucleus: hugium\n0 0\n1e300 1\n2e300 2\n"
INF_SPIN = b"# nucleus: infinitium\n0 0\ninf 1\n2 2\n"
# Finite spins whose twice overflows a float, and spins just past the cap.
FLOAT_MAX_SPIN = b"# nucleus: maximium\n0 0\n1e308 1\n6 2\n"
FLOAT_MAX_SPINS = b"# nucleus: maximium\n1e308 0\n1.0000000000000002e308 1\n1.0000000000000004e308 2\n"
PAST_CAP_SPINS = b"# nucleus: maximium\n1073741823 0\n1073741824 1\n1073741825 2\n"

BUNDLED_TABLE = (
    "nucleus       tau   A[keV]   1e3*chi2  rms[keV]  rms_cl[keV]\n"
    "162Dy      0.0332    12.80       1.36     12.30        68.32\n"
    "238U       0.0144     6.14     152.27    104.29       133.56\n"
    "174Yb      0.0272    12.22       3.03     17.42        72.85\n"
)

# SHA-256 of `qrotor table --json data/bands`: 8006 bytes, the bytes
# json.dumps(rows, indent=2) gave before the report was formatted from the fit columns.
BUNDLED_JSON_SHA256 = "139369411edcfbeb22d38f6117f67d229783ba8ba62124dadfb0ef38a5bbb041"

# SHA-256 of `qrotor plotdata data/bands/*.band` (paths sorted): 1679 bytes,
# taken while plotdata still read per-level residual tuples.
BUNDLED_PLOT_SHA256 = "f9f1fc1bedc6b514ca42de75351f06e098da70093a3e3e1fcc268816135d9a4b"


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


@pytest.fixture
def good_band(tmp_path):
    path = tmp_path / "good.band"
    path.write_bytes(GOOD)
    return path


class TestFitCommand:
    def test_dy162_table(self, capsys, dy162_path):
        assert main(["fit", str(dy162_path)]) == 0
        out = capsys.readouterr().out
        assert "162Dy" in out
        assert "0.0332" in out
        assert "12.80" in out

    def test_json_output(self, capsys, dy162_path):
        assert main(["fit", "--json", str(dy162_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc) == 2
        assert doc[0]["dim"] == 189
        assert doc[1]["variant"] == "classical"

    def test_classical_only(self, capsys, dy162_path):
        assert main(["fit", "--classical-only", str(dy162_path)]) == 0
        row = capsys.readouterr().out.splitlines()[1].split()
        assert row[1] == "-"

    def test_missing_file(self, capsys, tmp_path):
        assert main(["fit", str(tmp_path / "missing.band")]) == 1
        captured = capsys.readouterr()
        assert "cannot read" in captured.err
        assert captured.out == ""

    def test_partial_failure_still_reports(self, capsys, tmp_path, dy162_path):
        bad = tmp_path / "bad.band"
        bad.write_bytes(BAD)
        assert main(["fit", str(dy162_path), str(bad)]) == 1
        captured = capsys.readouterr()
        assert "162Dy" in captured.out
        assert "bad.band" in captured.err
        assert "step" in captured.err

    def test_output_file(self, tmp_path, dy162_path):
        out = tmp_path / "report.txt"
        assert main(["fit", str(dy162_path), "-o", str(out)]) == 0
        assert "0.0332" in out.read_text()

    def test_no_inputs_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["fit"])
        assert exc_info.value.code == 2

    def test_deterministic_output(self, capsys, dy162_path, good_band):
        main(["fit", str(dy162_path), str(good_band)])
        first = capsys.readouterr().out
        main(["fit", str(dy162_path), str(good_band)])
        assert capsys.readouterr().out == first


class TestFitOne:
    def test_matches_batch_row(self, capsys, dy162_path):
        band, fit_q, fit_cl = _fit_one(dy162_path, classical_only=False)
        assert band.name == "162Dy" and fit_q.qp.dim == 189
        main(["fit", "--json", str(dy162_path)])
        doc = json.loads(capsys.readouterr().out)
        assert [row["A_keV"] for row in doc] == [fit_q.A, fit_cl.A]

    def test_classical_only(self, dy162_path):
        assert _fit_one(dy162_path, classical_only=True)[1] is None

    def test_raises_failure(self, tmp_path):
        bad = tmp_path / "bad.band"
        bad.write_bytes(BAD)
        with pytest.raises(BandParseError, match="step"):
            _fit_one(bad, classical_only=False)


class TestTableCommand:
    def test_directory_input(self, capsys, bands_dir):
        assert main(["table", str(bands_dir)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        # rows follow sorted file order
        assert [line.split()[0] for line in lines[1:]] == ["162Dy", "238U", "174Yb"]

    def test_bundled_bands_bytes(self, capsys, bands_dir):
        assert main(["table", str(bands_dir)]) == 0
        assert capsys.readouterr().out == BUNDLED_TABLE

    def test_bundled_bands_json_bytes(self, capsysbinary, bands_dir):
        assert main(["table", "--json", str(bands_dir)]) == 0
        out = capsysbinary.readouterr().out
        assert len(out) == 8006
        assert hashlib.sha256(out).hexdigest() == BUNDLED_JSON_SHA256

    def test_mixed_directory_reports_good_rows(self, capsys, tmp_path, dy162_path):
        files = {"a.band": GOOD, "b.band": BAD, "c.band": OVERFLOW, "d.band": dy162_path.read_bytes(),
                 "e.band": INF_SPIN, "f.band": b"\xff\xfe", "g.band": HUGE_SPINS, "h.band": GOOD}
        for name, content in files.items():
            (tmp_path / name).write_bytes(content)
        assert main(["table", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        failed = [line.split(":")[1].strip() for line in captured.err.splitlines()]
        assert failed == [str(tmp_path / name) for name in ("b.band", "c.band", "e.band", "f.band", "g.band")]
        assert "line 4" in captured.err and "line 3: invalid spin 'inf'" in captured.err
        assert "line 3: spin '1e300' exceeds 1073741824" in captured.err
        rows = [line.split()[0] for line in captured.out.splitlines()[1:]]
        assert rows == ["goodium", "162Dy", "goodium"]

    @pytest.mark.parametrize("content", [OVERFLOW, HUGE_SPINS])
    @pytest.mark.parametrize("as_json", [False, True])
    def test_non_finite_fit_fails_closed(self, capsys, tmp_path, dy162_path, content, as_json):
        # the huge spins are refused by the spin cap before any fit
        diagnostic = {OVERFLOW: "no finite fit", HUGE_SPINS: "line 3: spin '1e300' exceeds 1073741824"}[content]
        bad = tmp_path / "bad.band"
        bad.write_bytes(content)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["table", *(["--json"] if as_json else []), str(dy162_path), str(bad)])
        assert code == 1
        captured = capsys.readouterr()
        assert f"{bad}: " in captured.err and diagnostic in captured.err
        assert "overflowium" not in captured.out and "hugium" not in captured.out
        assert "nan" not in captured.out.lower() and "inf" not in captured.out.lower()
        if as_json:
            assert [row["nucleus"] for row in _strict_json(captured.out)] == ["162Dy", "162Dy"]

    def test_infinite_spin_is_a_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "inf.band"
        bad.write_bytes(INF_SPIN)
        assert main(["table", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 3: invalid spin 'inf'" in captured.err

    @pytest.mark.parametrize("content,diagnostic", [
        (FLOAT_MAX_SPIN, "line 3: spin '1e308' exceeds 1073741824"),
        (FLOAT_MAX_SPINS, "line 2: spin '1e308' exceeds 1073741824"),
        (PAST_CAP_SPINS, "line 4: spin '1073741825' exceeds 1073741824"),
    ], ids=["one", "all", "past-cap"])
    @pytest.mark.parametrize("argv", [["table"], ["table", "--json"], ["plotdata"]], ids=" ".join)
    def test_spin_doubled_past_float_range_is_a_band_diagnostic(self, capsys, tmp_path, dy162_path,
                                                               content, diagnostic, argv):
        bad = tmp_path / "max.band"
        bad.write_bytes(content)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, str(dy162_path), str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"qrotor: {bad}: {diagnostic}\n"
        assert "162Dy" in captured.out and "maximium" not in captured.out

    @pytest.mark.parametrize("content,line", [
        (b"# nucleus: x\n-2 0\n0 5\n2 9\n", 2),
        (b"# nucleus: x\n2 -5.0\n4 5\n6 9\n", 2),
        (b"# nucleus: x\n2 nan\n4 5\n6 9\n", 2),
        (b"# nucleus: x\n2 0\n4 nan\n6 9\n", 3),
        (b"# nucleus: x\n2 0\n4 5\n6 inf\n", 4),
        (b"# nucleus: x\n2 0\n4 5\n6 9\n8 nan\n", 5),
        (b"# nucleus: g\n2 0\n4 5\xff\n6 9\n", 3),
    ], ids=["negative-spin", "negative-head", "nan-head", "nan-middle", "inf-last", "nan-fourth", "non-utf8"])
    def test_level_diagnostic_names_its_line(self, capsys, tmp_path, content, line):
        bad = tmp_path / "b.band"
        bad.write_bytes(content)
        assert main(["table", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"qrotor: {bad}: line {line}: ")
        assert captured.err.count("\n") == 1

    def test_empty_directory(self, capsys, tmp_path):
        assert main(["table", str(tmp_path)]) == 1
        assert "no band files" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["table", "plotdata"])
    def test_overlong_name_is_one_diagnostic(self, capsys, tmp_path, dy162_path, subcommand):
        # Path.is_dir raises for a name past the file system's limit instead of returning False
        long = tmp_path / ("a" * 295 + ".band")
        assert main([subcommand, str(dy162_path), str(long)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"qrotor: {long}: File name too long\n"

    def test_unlistable_directory_is_one_diagnostic(self, capsys, monkeypatch, tmp_path):
        # refused by its permission bits, which do not bind root
        def refuse(path):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)

        monkeypatch.setattr(os, "listdir", refuse)
        assert main(["table", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"qrotor: {tmp_path}: Permission denied\n"

    def test_output_file(self, tmp_path, bands_dir):
        out = tmp_path / "report.txt"
        assert main(["table", str(bands_dir), "-o", str(out)]) == 0
        assert out.read_text().count("\n") == 4

    @pytest.mark.parametrize("as_json", [False, True])
    def test_output_into_missing_directory(self, capsys, tmp_path, bands_dir, as_json):
        out = tmp_path / "nodir" / "out.txt"
        assert main(["table", *(["--json"] if as_json else []), str(bands_dir), "-o", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"qrotor: cannot write {out}: No such file or directory\n"

    def test_output_failure_after_band_failure(self, capsys, tmp_path, dy162_path):
        bad = tmp_path / "bad.band"
        bad.write_bytes(BAD)
        out = tmp_path / "report.txt"
        out.mkdir()
        assert main(["table", str(dy162_path), str(bad), "-o", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith(f"qrotor: {bad}: ")
        assert err[1].startswith(f"qrotor: cannot write {out}: ")


@pytest.mark.skipif(os.name != "posix", reason="resource limits, umask and modes of POSIX")
class TestOutputFile:
    """An ``-o`` file holds the whole report or what it held before; each
    run is spawned, with its limits set in the child alone."""

    @staticmethod
    def _run(argv, cwd, fsize=None, umask=0o022):
        def limits():
            import resource

            os.umask(umask)
            if fsize is not None:
                resource.setrlimit(resource.RLIMIT_FSIZE, (fsize, fsize))

        return subprocess.run([sys.executable, "-m", "qrotor", *map(str, argv)], capture_output=True, text=True,
                              env=_child_env(), cwd=cwd, preexec_fn=limits, timeout=120)

    @pytest.mark.parametrize("earlier", [True, False], ids=["over-a-report", "new"])
    def test_a_write_cut_short_leaves_the_file_as_it_was(self, tmp_path, bands_dir, dy162_path, earlier):
        out = tmp_path / "report.json"
        if earlier:
            assert self._run(["table", "--json", dy162_path, "-o", out], tmp_path).returncode == 0
        before = out.read_bytes() if earlier else None
        proc = self._run(["table", "--json", bands_dir, "-o", out], tmp_path, fsize=1024)
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"qrotor: cannot write {out}: File too large\n")
        assert (out.read_bytes() if earlier else None) == before
        assert os.listdir(tmp_path) == (["report.json"] if earlier else [])

    def test_a_written_report_leaves_no_other_file(self, tmp_path, bands_dir):
        proc = self._run(["table", "--json", bands_dir, "-o", "report.json"], tmp_path)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert os.listdir(tmp_path) == ["report.json"] and (tmp_path / "report.json").read_bytes().endswith(b"]\n")

    def test_null_device(self, tmp_path, bands_dir):
        assert self._run(["table", "--json", bands_dir, "-o", os.devnull], tmp_path).returncode == 0
        assert os.listdir(tmp_path) == []

    def test_modes(self, tmp_path, dy162_path):
        """A new file gets 0o666 less the umask, as before; a file written
        over keeps its own mode."""
        assert self._run(["table", dy162_path, "-o", "new.txt"], tmp_path, umask=0o027).returncode == 0
        old = tmp_path / "old.txt"
        old.write_bytes(b"old")
        old.chmod(0o600)
        assert self._run(["table", dy162_path, "-o", old], tmp_path).returncode == 0
        assert (tmp_path / "new.txt").read_bytes() == old.read_bytes()
        assert {name: (tmp_path / name).stat().st_mode & 0o777 for name in os.listdir(tmp_path)} == {
            "new.txt": 0o640, "old.txt": 0o600}

    def test_a_symlink_is_followed(self, tmp_path, dy162_path):
        (tmp_path / "link.txt").symlink_to("target.txt")
        assert self._run(["table", dy162_path, "-o", "link.txt"], tmp_path).returncode == 0
        assert (tmp_path / "link.txt").is_symlink() and (tmp_path / "target.txt").read_text().startswith("nucleus")


def test_a_leftover_temporary_file_is_passed_over(tmp_path, monkeypatch, capsys, dy162_path):
    """A temporary file a killed run left under this PID stays as it was,
    and the report still arrives by rename, as a new file."""
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "r.txt"
    out.write_bytes(b"earlier")
    inode = out.stat().st_ino
    stale = tmp_path / f".r.txt.{os.getpid()}.tmp"
    stale.write_bytes(b"stale")
    assert main(["table", str(dy162_path), "-o", "r.txt"]) == 0
    assert capsys.readouterr() == ("", "")
    assert out.read_text().startswith("nucleus") and out.stat().st_ino != inode
    assert stale.read_bytes() == b"stale" and sorted(os.listdir(tmp_path)) == [stale.name, "r.txt"]


class TestPlotdataCommand:
    def test_columns(self, capsys, dy162_path):
        assert main(["plotdata", str(dy162_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        data_rows = [line for line in lines if not line.startswith("#")]
        assert len(data_rows) == 9
        assert all(len(row.split()) == 6 for row in data_rows)

    def test_multiple_inputs(self, capsys, dy162_path, good_band):
        assert main(["plotdata", str(dy162_path), str(good_band)]) == 0
        out = capsys.readouterr().out
        assert out.count("# nucleus:") == 2

    def test_bundled_bands_bytes(self, capsysbinary, bands_dir):
        assert main(["plotdata", *sorted(str(path) for path in bands_dir.glob("*.band"))]) == 0
        out = capsysbinary.readouterr().out
        assert len(out) == 1679
        assert hashlib.sha256(out).hexdigest() == BUNDLED_PLOT_SHA256


def _run(capsysbinary, argv):
    code = main(argv)
    captured = capsysbinary.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def mixed_dir(tmp_path, bands_dir):
    """The bundled bands plus a good and a bad band, and a file that is not *.band."""
    corpus = tmp_path / "mixed"
    shutil.copytree(bands_dir, corpus)
    (corpus / "bad.band").write_bytes(BAD)
    (corpus / "good.band").write_bytes(GOOD)
    (corpus / "notes.txt").write_bytes(b"not a band\n")
    return corpus


class TestOneBandRunner:
    """``fit`` is an alias of ``table``, and every band subcommand takes
    directories, through one handler."""

    @pytest.mark.parametrize("sub", ["table", "fit", "plotdata"])
    def test_one_handler(self, sub):
        assert build_parser().parse_args([sub, "x.band"]).handler is cmd_bands

    @pytest.mark.parametrize("flags", [[], ["--json"], ["--classical-only"], ["--json", "--classical-only"]],
                             ids=["table", "json", "classical-only", "json-classical-only"])
    def test_fit_directory_is_table(self, capsysbinary, bands_dir, mixed_dir, flags):
        for corpus, code in ((bands_dir, 0), (mixed_dir, 1)):
            table = _run(capsysbinary, ["table", *flags, str(corpus)])
            assert table[0] == code and table[1]
            assert _run(capsysbinary, ["fit", *flags, str(corpus)]) == table
        assert b"bad.band" in table[2] and b"notes.txt" not in table[2]

    def test_plotdata_directory_is_sorted_files(self, capsysbinary, bands_dir, mixed_dir):
        for corpus, code in ((bands_dir, 0), (mixed_dir, 1)):
            files = sorted(str(path) for path in corpus.glob("*.band"))
            plot = _run(capsysbinary, ["plotdata", str(corpus)])
            assert plot[0] == code
            assert plot == _run(capsysbinary, ["plotdata", *files])
        assert hashlib.sha256(_run(capsysbinary, ["plotdata", str(bands_dir)])[1]).hexdigest() == BUNDLED_PLOT_SHA256

    @pytest.mark.parametrize("spelling", [".", "./", "d", "d/", "./d", "d/../d", "ABS"])
    def test_directory_expands_as_glob(self, capsys, monkeypatch, tmp_path, spelling):
        # the names Path.glob("*.band") yields, sorted, spelt as it spells them
        d = tmp_path / "d"
        d.mkdir()
        for name in ("b.band", ".hidden.band", ".band", "a b.band", "xband", "c.BAND", "c.band.txt"):
            (d / name).write_bytes(b"# nucleus: x\n2 1\n")
        (d / "sub.band").mkdir()
        monkeypatch.chdir(d if spelling in (".", "./") else tmp_path)
        item = str(d) if spelling == "ABS" else spelling
        assert main(["table", item]) == 1
        failed = [line.split(": ")[1] for line in capsys.readouterr().err.splitlines()]
        assert failed == [str(path) for path in sorted(Path(item).glob("*.band"), key=lambda path: path.name)]
        assert len(failed) == 5

    @pytest.mark.parametrize("sub", ["table", "fit", "plotdata"])
    def test_empty_directory(self, capsysbinary, tmp_path, sub):
        assert _run(capsysbinary, [sub, str(tmp_path)]) == (1, b"", b"qrotor: no band files found\n")


class TestVerifyCommand:
    def test_default_sweep_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out
        for name in ("quantum-plane", "cyclic-shift", "commutators", "casimir"):
            assert name in out

    def test_skips_unreachable_spins(self, capsys):
        main(["verify"])
        out = capsys.readouterr().out
        # dim 3 cannot host spins beyond 1/2
        assert "skipped" in out

    def test_large_sweep_passes(self, capsys):
        assert main(["verify", "--max-dim", "1001"]) == 0
        out = capsys.readouterr().out
        assert "l=500" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("max_dim,l_max", [(3, 1), (21, 10)])
    def test_small_max_dim_passes(self, capsys, max_dim, l_max):
        assert main(["verify", "--max-dim", str(max_dim)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert all(line.endswith("PASS") or "skipped" in line for line in lines)
        assert f"l={l_max} " in "\n".join(lines)
        assert f"l={l_max + 1} " not in "\n".join(lines)

    def test_even_max_dim_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["verify", "--max-dim", "4"])
        assert exc_info.value.code == 2

    def test_max_dim_above_dense_cap_usage_error(self, capsys, monkeypatch):
        # rejected while parsing arguments: no space is built
        monkeypatch.setattr("qrotor.cli.build_space", None)
        with pytest.raises(SystemExit) as exc_info:
            main(["verify", "--max-dim", "1003"])
        assert exc_info.value.code == 2
        assert "from 3 to 1001, got 1003" in capsys.readouterr().err

    def test_impossible_tolerance_fails(self, capsys):
        assert main(["verify", "--tolerance", "1e-30"]) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "exceeds" in captured.err
        # the override replaces every check's tolerance, shift-power and irrep checks included
        checked = [line for line in captured.out.splitlines() if "skipped" not in line]
        assert {line.split()[0] for line in checked} >= {"shift-power", "commutators", "casimir"}
        assert all(" tol=1e-30 " in line for line in checked)
        # failures follow the order of the lines
        named = [line.split(" dev=")[0].split() for line in checked if line.endswith(" FAIL")]
        assert [error.split(": ")[2].split() for error in captured.err.splitlines()] == named

    def test_large_sweep_lines_and_deviations(self, capsys):
        # numpy reports its buffers to tracemalloc: the run's traced peak
        # stays below one D x D complex matrix at D = 1001
        tracemalloc.start()
        try:
            assert main(["verify", "--max-dim", "1001"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1001**2
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 111
        assert not any(line.startswith("lowering") for line in lines)
        checks = [line for line in lines if "skipped" not in line]
        assert {line.split()[-2] for line in checks} == {"tol=1e-12", "tol=1e-10", "tol=1e-11"}
        assert max(float(line.split()[-3][len("dev="):]) for line in checks) <= 1e-12

    def test_phase_space_deviations_at_dense_cap(self, capsys):
        # with the angle basis read from the roots of unity, every phase-space
        # deviation at D = 1001 stays near 1e-14
        assert main(["verify", "--max-dim", "1001"]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if " l=" in line]
        assert len(lines) == 6 * 2 * 5 + 2 * 4
        assert max(float(line.split()[-3][len("dev="):]) for line in lines) <= 1e-13

    def test_tolerance_printed_as_given(self, capsys):
        code = main(["verify", "--max-dim", "5", "--tolerance", "4.9e-16"])
        captured = capsys.readouterr()
        checks = [line for line in captured.out.splitlines() if "skipped" not in line]
        assert {line.split()[-2] for line in checks} == {"tol=4.9e-16"}
        failed = [line for line in checks if line.endswith("FAIL")]
        errors = captured.err.splitlines()
        assert code == (1 if failed else 0)
        assert len(errors) == len(failed)
        assert all(error.endswith(" exceeds 4.9e-16") for error in errors)

    @pytest.mark.parametrize("value", ["5_1", "\u0665\u0661"])  # 51 to int(), as to the band reader's float()
    def test_max_dim_is_an_ascii_decimal(self, capsys, monkeypatch, value):
        monkeypatch.setattr("qrotor.cli.build_space", None)
        with pytest.raises(SystemExit) as exc_info:
            main(["verify", "--max-dim", value])
        assert exc_info.value.code == 2
        assert f"invalid dimension {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("max_dim", [51, 201, 1001])
    def test_output_does_not_depend_on_the_worker_count(self, capsys, monkeypatch, max_dim, workers):
        assert main(["verify", "--max-dim", str(max_dim)]) == 0
        default = capsys.readouterr().out
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)
        assert main(["verify", "--max-dim", str(max_dim)]) == 0
        assert capsys.readouterr().out == default

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0", "-0.0", "tight", "1_0"])
    def test_bad_tolerance_usage_error(self, capsys, value):
        with pytest.raises(SystemExit) as exc_info:
            main(["verify", "--max-dim", "5", f"--tolerance={value}"])
        assert exc_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tolerance" in captured.err

    def test_output_into_missing_directory(self, capsys, tmp_path):
        out = tmp_path / "nodir" / "v.txt"
        assert main(["verify", "--max-dim", "5", "-o", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"qrotor: cannot write {out}: No such file or directory\n"

    def test_deterministic_output(self, capsys):
        main(["verify"])
        first = capsys.readouterr().out
        main(["verify"])
        assert capsys.readouterr().out == first


class TestBandPathObjects:
    """``table``, ``table --json`` and ``plotdata`` read, fit and render the
    batch as columns: no per-band ``BandData`` or ``FitResult`` is built."""

    @pytest.mark.parametrize("argv", [["table"], ["table", "--json"], ["plotdata"]], ids=" ".join)
    def test_builds_no_band_or_fit_objects(self, monkeypatch, tmp_path, bands_dir, argv):
        corpus = tmp_path / "bands"
        corpus.mkdir()
        for k in range(40):
            for band in bands_dir.glob("*.band"):
                shutil.copy(band, corpus / f"{k:02d}{band.name}")
        built = {"BandData": 0, "FitResult": 0}

        def counted(cls, make):
            def count(*args, **kwargs):
                built[cls.__name__] += 1
                return make(*args, **kwargs)

            return count

        monkeypatch.setattr(FitResult, "__init__", counted(FitResult, FitResult.__init__))
        monkeypatch.setattr(BandData, "__init__", counted(BandData, BandData.__init__))
        monkeypatch.setattr(BandData, "_checked", classmethod(counted(BandData, BandData._checked.__func__)))
        assert main([*argv, str(corpus), "-o", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out").stat().st_size > 0
        assert built == {"BandData": 0, "FitResult": 0}


def _run_capped(argv, cwd):
    """``python -m qrotor argv`` in ``cwd`` with its address space capped at
    1 GiB where the platform can cap it, so a reader that does not stop at
    an endless file fails here instead of filling memory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")

    def cap():
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run([sys.executable, "-m", "qrotor", *argv], capture_output=True, text=True, env=env,
                          cwd=cwd, timeout=60, preexec_fn=cap if os.name == "posix" else None)


class TestBandInputs:
    """Inputs that are not regular files end in one diagnostic and exit 1,
    with the other bands still reported; each runs in its own process, so a
    reader that waits or reads forever fails on the timeout."""

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_fifo_in_a_directory(self, tmp_path, dy162_path):
        corpus = tmp_path / "bands"
        corpus.mkdir()
        os.mkfifo(corpus / "a.band")
        shutil.copy(dy162_path, corpus / "b.band")
        proc = _run_capped(["table", "bands"], tmp_path)
        assert (proc.returncode, proc.stderr) == (1, "qrotor: bands/a.band: cannot read band file: not a regular file\n")
        assert "162Dy" in proc.stdout

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
    def test_endless_device(self, tmp_path):
        proc = _run_capped(["table", "/dev/zero"], tmp_path)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "qrotor: /dev/zero: cannot read band file: not a regular file\n"

    def test_directory_named_like_a_band_file(self, tmp_path, dy162_path):
        (tmp_path / "bands" / "x.band").mkdir(parents=True)
        shutil.copy(dy162_path, tmp_path / "bands" / "y.band")
        proc = _run_capped(["table", "bands"], tmp_path)
        assert proc.returncode == 1
        assert proc.stderr == (f"qrotor: bands/x.band: cannot read band file: [Errno {errno.EISDIR}] "
                               f"{os.strerror(errno.EISDIR)}: 'bands/x.band'\n")
        assert "162Dy" in proc.stdout

    def test_missing_file(self, tmp_path, dy162_path):
        proc = _run_capped(["plotdata", str(dy162_path), "nope.band"], tmp_path)
        assert proc.returncode == 1
        assert proc.stderr == (f"qrotor: nope.band: cannot read band file: [Errno {errno.ENOENT}] "
                               f"{os.strerror(errno.ENOENT)}: 'nope.band'\n")
        assert proc.stdout.startswith("# nucleus: 162Dy\n")


@pytest.mark.parametrize("subcommand", ["table", "plotdata"])
@pytest.mark.parametrize("inputs", [[""], ["", "dy162.band"]], ids=["alone", "beside-a-band"])
def test_empty_input_is_a_usage_error(capsys, monkeypatch, bands_dir, subcommand, inputs):
    """``Path("")`` is the working directory: an empty input is refused before
    any band is read, here where the working directory holds bands."""
    monkeypatch.chdir(bands_dir)
    with pytest.raises(SystemExit) as exc:
        main([subcommand, *inputs])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert captured.err.endswith(f"qrotor {subcommand}: error: argument inputs: empty path\n")


@pytest.mark.parametrize("subcommand", [["table", "dy162.band"], ["plotdata", "dy162.band"], ["verify", "--max-dim", "5"]],
                         ids=["table", "plotdata", "verify"])
def test_empty_output_is_a_usage_error(capsys, monkeypatch, bands_dir, subcommand):
    """An empty ``-o`` path is refused as an empty input is, not written as
    the working directory."""
    monkeypatch.chdir(bands_dir)
    with pytest.raises(SystemExit) as exc:
        main([*subcommand, "-o", ""])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert captured.err.endswith(f"qrotor {subcommand[0]}: error: argument -o/--output: empty path\n")


# A child that runs the CLI the way ``python -m qrotor`` does, with its address
# space capped at what it holds once numpy has loaded plus the bytes its first
# argument gives.  ``main`` itself loads numpy only in a subcommand, so the
# child loads it first.
CAPPED_AFTER_IMPORT = """
import resource, sys
from qrotor.__main__ import main
import numpy
with open("/proc/self/status") as status:
    size = next(int(line.split()[1]) for line in status if line.startswith("VmSize:")) * 1024
limit = size + int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc/self/status")
def test_out_of_memory_is_one_diagnostic(tmp_path):
    # 2,000,000 levels, a 34 MB file, which the reader holds in several times
    # that; the cap is set in the child only.
    path = tmp_path / "huge.band"
    with path.open("w") as out:
        out.write("# nucleus: huge\n")
        for start in range(0, 2_000_000, 100_000):
            out.write("".join(f"{k} {k}.5\n" for k in range(start, start + 100_000)))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", CAPPED_AFTER_IMPORT, str(128 << 20), "table", str(path)],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "qrotor: table: out of memory\n")


def test_verify_loads_no_band_module():
    """``verify`` imports none of the band path's modules; ``table`` loads them on first use."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    script = (
        "import os, sys\n"
        "from qrotor.cli import main\n"
        "band = {'qrotor.reader', 'qrotor.ingest', 'qrotor.fit', 'qrotor.model'}\n"
        "assert main(['verify', '--max-dim', '5', '-o', os.devnull]) == 0\n"
        "assert band.isdisjoint(sys.modules), band & set(sys.modules)\n"
        "assert main(['table', sys.argv[1], '-o', os.devnull]) == 0\n"
        "assert band <= set(sys.modules), band - set(sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, str(REPO_ROOT / "data" / "bands")],
                          capture_output=True, text=True, env=env, cwd=REPO_ROOT)
    assert proc.returncode == 0, proc.stderr


def _child_env(**changes):
    """The environment for a spawned CLI that imports qrotor from ``src``; a
    ``changes`` value of None removes that variable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    for key, value in changes.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    return env


def test_only_verify_loads_verify_modules():
    """``--version``, ``table`` and ``plotdata`` import neither ``bp_space`` nor
    ``suq2``; ``verify`` loads both."""
    script = (
        "import os, sys\n"
        "from qrotor.cli import main\n"
        "algebra = {'qrotor.bp_space', 'qrotor.suq2'}\n"
        "try:\n"
        "    main(['--version'])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0\n"
        "assert algebra.isdisjoint(sys.modules), algebra & set(sys.modules)\n"
        "assert main(['table', sys.argv[1], '-o', os.devnull]) == 0\n"
        "assert main(['plotdata', sys.argv[1], '-o', os.devnull]) == 0\n"
        "assert algebra.isdisjoint(sys.modules), algebra & set(sys.modules)\n"
        "assert main(['verify', '--max-dim', '5', '-o', os.devnull]) == 0\n"
        "assert algebra <= set(sys.modules), algebra - set(sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, str(REPO_ROOT / "data" / "bands")],
                          capture_output=True, text=True, env=_child_env(), cwd=REPO_ROOT)
    assert proc.returncode == 0, proc.stderr


# A child that runs ``main`` on its argv past the first and writes to the file
# its first argument names whether numpy loaded.
NUMPY_AFTER_MAIN = """
import sys
from qrotor.cli import main
try:
    code = main(sys.argv[2:])
except SystemExit as exc:
    code = exc.code
with open(sys.argv[1], "w") as flag:
    flag.write(str("numpy" in sys.modules))
sys.exit(code)
"""

VERIFY_USAGE = "qrotor verify: error: argument --max-dim: max dimension must be odd, from 3 to 1001, got 4\n"


@pytest.mark.parametrize("argv,code,out,err,numpy_loaded", [
    (["--version"], 0, f"qrotor {qrotor.__version__}\n", "", False),
    (["--help"], 0, "usage: qrotor ", "", False),
    (["verify", "--max-dim", "4"], 2, "", VERIFY_USAGE, False),
    (["table", "-o", ""], 2, "", "qrotor table: error: argument -o/--output: empty path\n", False),
    (["table", "EMPTY"], 1, "", "qrotor: no band files found\n", False),
    (["verify", "--max-dim", "3", "-o", os.devnull], 0, "", "", True),
], ids=["version", "help", "verify-usage", "empty-output", "no-band-files", "verify"])
def test_only_a_run_that_computes_loads_numpy(tmp_path, argv, code, out, err, numpy_loaded):
    """Parsing, usage errors and an empty band list finish before numpy loads;
    ``out`` is the start of standard output and ``err`` the end of standard error."""
    (tmp_path / "empty").mkdir()
    argv = [str(tmp_path / "empty") if arg == "EMPTY" else arg for arg in argv]
    flag = tmp_path / "numpy-loaded"
    proc = subprocess.run([sys.executable, "-c", NUMPY_AFTER_MAIN, str(flag), *argv],
                          capture_output=True, text=True, env=_child_env(), cwd=tmp_path)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.startswith(out) and (out or not proc.stdout)
    assert proc.stderr.endswith(err) and (err or not proc.stderr)
    assert flag.read_text() == str(numpy_loaded)


# The start of a child in which every import of numpy fails with the error its
# first argument names.
REFUSE_NUMPY = """
import builtins, sys

class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise getattr(builtins, sys.argv[1])("numpy")
        return None

sys.meta_path.insert(0, Refuse())
"""

# A child that runs the CLI on its argv past the first, with numpy refused.
NUMPY_FAILS = REFUSE_NUMPY + """
from qrotor.cli import main
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.parametrize("argv,code,out,err", [
    (["--version"], 0, f"qrotor {qrotor.__version__}\n", ""),
    (["verify", "--max-dim", "3"], 1, "", "qrotor: verify: out of memory\n"),
], ids=["version", "verify"])
def test_out_of_memory_while_numpy_loads_is_one_diagnostic(argv, code, out, err):
    """numpy loads inside the subcommand, under ``main``'s MemoryError guard."""
    proc = subprocess.run([sys.executable, "-c", NUMPY_FAILS, "MemoryError", *argv],
                          capture_output=True, text=True, env=_child_env(), cwd=REPO_ROOT)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


def test_missing_numpy_is_still_a_traceback():
    proc = subprocess.run([sys.executable, "-c", NUMPY_FAILS, "ModuleNotFoundError", "verify", "--max-dim", "3"],
                          capture_output=True, text=True, env=_child_env(), cwd=REPO_ROOT)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("Traceback") and proc.stderr.endswith("ModuleNotFoundError: numpy\n")


def test_irreps_load_without_the_phase_space():
    script = "import sys, qrotor.suq2; assert 'qrotor.bp_space' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr


def test_only_a_json_report_loads_json():
    script = (
        "import os, sys\n"
        "from qrotor.cli import main\n"
        "assert main(['table', sys.argv[1], '-o', os.devnull]) == 0\n"
        "assert main(['plotdata', sys.argv[1], '-o', os.devnull]) == 0\n"
        "assert 'json' not in sys.modules, sorted(name for name in sys.modules if name.startswith('json'))\n"
        "assert main(['table', '--json', sys.argv[1], '-o', os.devnull]) == 0\n"
        "assert 'json' in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, str(REPO_ROOT / "data" / "bands")],
                          capture_output=True, text=True, env=_child_env(), cwd=REPO_ROOT)
    assert proc.returncode == 0, proc.stderr


# The package's names that the subcommands read through ``cli._module`` or
# that bench/spans.py swaps in ``cli``, and the batch path's calls.
PACKAGE_NAMES = ["read_band_file", "fit_A", "q_parameter_from_band", "write_report", "build_space",
                 "check_shift_power", "build_irrep", "BP_CHECKS", "IRREP_CHECKS", "compare_batch", "read_bands",
                 "write_plot_data"]
SRC = REPO_ROOT / "src" / "qrotor"


def _module_level_names(tree: ast.Module) -> set[str]:
    """The names a module binds at its top level: functions, classes, imports and plain assignments."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets if isinstance(target, ast.Name))
    return names


def test_package_names_cover_every_name_cli_reads_from_the_package():
    cli_tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    read = {node.attr for node in ast.walk(cli_tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "_module"}
    spans_tree = ast.parse((REPO_ROOT / "bench" / "spans.py").read_text(encoding="utf-8"))
    instrumented = next(node for node in ast.walk(spans_tree)
                        if isinstance(node, ast.FunctionDef) and node.name == "instrumented")
    swapped = next(ast.literal_eval(node.value) for node in instrumented.body
                   if isinstance(node, ast.Assign) and node.targets[0].id == "names")
    assert sorted((read | set(swapped)) - _module_level_names(cli_tree) - set(PACKAGE_NAMES)) == []
    assert sorted(set(PACKAGE_NAMES) - set(qrotor.__all__)) == []


def _home_closure(module: str) -> set[str]:
    """``qrotor.<module>`` and the qrotor modules it imports at its top level, transitively."""
    seen, todo = set(), [module]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
            todo.extend(node.module for node in tree.body
                        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module)
    return {f"qrotor.{name}" for name in seen}


@pytest.mark.parametrize("name", PACKAGE_NAMES)
def test_cli_name_resolves_through_the_package(name):
    """In a fresh interpreter, ``cli.<name>`` is the package's object, and
    reading it loads only the name's home module in ``qrotor._HOME``, with
    the qrotor modules that module imports."""
    script = (
        "import json, sys\n"
        "import qrotor, qrotor.cli\n"
        "before = set(sys.modules)\n"
        "value = getattr(qrotor.cli, sys.argv[1])\n"
        "after = set(sys.modules)\n"
        "print(json.dumps([value is getattr(qrotor, sys.argv[1]), sorted(before), sorted(after - before)]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, name], capture_output=True, text=True, env=_child_env(),
                          cwd=REPO_ROOT)
    assert proc.returncode == 0, proc.stderr
    same, before, loaded = json.loads(proc.stdout)
    assert same
    assert {module for module in loaded if module.startswith("qrotor")} == _home_closure(qrotor._HOME[name]) - set(before)


@pytest.mark.parametrize("name", ["no_such_name", "_plot_data", "Bands"])
def test_cli_resolves_no_other_name(name):
    with pytest.raises(AttributeError, match=rf"^module 'qrotor\.cli' has no attribute '{name}'$"):
        getattr(cli, name)


# Runners of the CLI: ``python -m qrotor`` and the ``qrotor`` console script's
# ``qrotor.__main__:main``.
RUNNERS = {
    "dash-m": [sys.executable, "-m", "qrotor"],
    "console-script": [sys.executable, "-c", "import sys; from qrotor.__main__ import main; sys.exit(main())"],
}


# A child that registers an atexit reporter before it imports the runner.
# Handlers run last-registered first, so the reporter runs after the runner's.
FREEZE_REPORTER = """
import atexit, gc, sys
atexit.register(lambda: print(gc.get_freeze_count(), tracked))
from qrotor.__main__ import main
tracked = len(gc.get_objects())
code = main(sys.argv[1:])
assert gc.get_freeze_count() == 0
sys.exit(code)
"""


def test_runner_freezes_the_heap_at_exit(dy162_path):
    """Shutdown's collections find the heap frozen, so they scan nothing;
    nothing is frozen while the run works."""
    proc = subprocess.run([sys.executable, "-c", FREEZE_REPORTER, "table", str(dy162_path)],
                          capture_output=True, text=True, env=_child_env(), cwd=REPO_ROOT)
    assert proc.returncode == 0, proc.stderr
    *report, last = proc.stdout.splitlines()
    frozen, tracked = map(int, last.split())
    assert "162Dy" in report[1]
    assert frozen >= tracked > 10_000


@pytest.mark.parametrize("runner", RUNNERS)
@pytest.mark.parametrize("argv,code", [
    (["--version"], 0),
    (["verify", "--max-dim", "4"], 2),
    (["table", "BAD"], 1),
], ids=["version", "usage-error", "failing-band"])
def test_runner_exit_codes(tmp_path, runner, argv, code):
    (tmp_path / "bad.band").write_bytes(BAD)
    argv = [str(tmp_path / "bad.band") if arg == "BAD" else arg for arg in argv]
    proc = subprocess.run([*RUNNERS[runner], *argv], capture_output=True, text=True, env=_child_env(),
                          cwd=REPO_ROOT)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


# Each runs buffered, as a user's standard output is, and unbuffered.
STDOUT_BUFFERING = {"buffered": None, "unbuffered": "1"}


class TestEntryPoint:
    def test_python_dash_m(self, dy162_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "qrotor", "fit", str(dy162_path)],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT,
        )
        assert proc.returncode == 0
        assert "0.0332" in proc.stdout

    @pytest.mark.parametrize("as_json", [False, True])
    def test_stdout_bytes_on_ascii_terminal(self, tmp_path, bands_dir, as_json):
        """Standard output gets the report's bytes as they are, whatever its
        text encoding, the same bytes ``-o`` writes."""
        corpus = tmp_path / "bands"
        shutil.copytree(bands_dir, corpus)
        (corpus / "dash.band").write_bytes(GOOD.replace(b"goodium", "Dy\u2013162".encode()))
        env = dict(os.environ, PYTHONIOENCODING="ascii")
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        argv = [sys.executable, "-m", "qrotor", "table", *(["--json"] if as_json else []), str(corpus)]
        proc = subprocess.run(argv, capture_output=True, env=env, cwd=REPO_ROOT)
        assert proc.returncode == 0, proc.stderr
        out = tmp_path / "report"
        assert subprocess.run([*argv, "-o", str(out)], env=env, cwd=REPO_ROOT).returncode == 0
        assert proc.stdout == out.read_bytes()
        assert ("Dy\\u2013162" if as_json else "Dy\u2013162").encode() in proc.stdout

    # The unbuffered cases keep the ids they had when they were the only ones.
    @pytest.mark.parametrize("argv,read,unbuffered", [
        pytest.param(argv, read, STDOUT_BUFFERING[buffering],
                     id=name if buffering == "unbuffered" else f"{name}-buffered")
        for name, argv, read in [
            ("table-json", ["table", "--json", "CORPUS"], 0),
            ("verify", ["verify", "--max-dim", "51"], 0),
            ("table-json-mid-write", ["table", "--json", "CORPUS"], 10),
            ("version", ["--version"], 0),
            ("help", ["--help"], 0),
        ]
        for buffering in STDOUT_BUFFERING
    ])
    def test_closed_stdout_is_one_diagnostic(self, tmp_path, bands_dir, argv, read, unbuffered):
        # 600 bands give a report of about 1.6 MB, far more than a pipe holds,
        # so a reader that leaves after 10 bytes leaves the child mid-write.
        for k in range(200):
            for band in bands_dir.glob("*.band"):
                shutil.copy(band, tmp_path / f"{k:03d}{band.name}")
        env = _child_env(PYTHONUNBUFFERED=unbuffered)
        argv = [sys.executable, "-m", "qrotor", *(str(tmp_path) if arg == "CORPUS" else arg for arg in argv)]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=REPO_ROOT) as proc:
            if read:
                assert len(os.read(proc.stdout.fileno(), read)) > 0
            proc.stdout.close()  # without a read, long before the child writes
            err = proc.stderr.read().decode()
            assert proc.wait() == 1
        assert "Traceback" not in err and "Exception ignored" not in err
        assert err.splitlines() == ["qrotor: cannot write standard output: Broken pipe"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("unbuffered", STDOUT_BUFFERING.values(), ids=list(STDOUT_BUFFERING))
    @pytest.mark.parametrize("argv", [
        ["verify", "--max-dim", "5"],
        ["table", "BANDS"],
        ["plotdata", "BANDS"],
        ["--version"],
        ["--help"],
    ], ids=["verify", "table", "plotdata", "version", "help"])
    def test_full_stdout_is_one_diagnostic(self, bands_dir, argv, unbuffered):
        """A report smaller than stdout's buffer fails on the flush, and the
        bytes it leaves there do not fail a second time at exit."""
        argv = [sys.executable, "-m", "qrotor", *(str(bands_dir) if arg == "BANDS" else arg for arg in argv)]
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, text=True,
                                  env=_child_env(PYTHONUNBUFFERED=unbuffered), cwd=REPO_ROOT)
        assert (proc.returncode, proc.stderr) == (1, "qrotor: cannot write standard output: No space left on device\n")

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["--version"])
        assert exc_info.value.code == 0
