"""The batch band reader against the sequential one it replaced
(``_reference_ingest``): the same band or the same failure for every file,
and the same bytes from every band subcommand over a seeded directory of
valid and faulty files."""

import hashlib
import random
import shutil

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _reference_ingest import reference_read_band_file
from qrotor.cli import main
from qrotor.ingest import BandFile, read_band_file, read_bands
from qrotor.model import BandError
from test_band_fuzz import CAP_TOKENS, TOKENS, band_texts
from test_ingest import PRECEDENCE

# Spins on both sides of the cap, 2**30, and far past it; 1e308 doubles past
# the largest float.
HUGE_SPINS = [b"1073741823.5", b"1073741824", b"1073741824.5", b"1073741825", b"2147483648", b"1e16", b"1e308"]
# Starts whose bands end below, at or past the cap, or begin past it.
HUGE_STARTS = (0.0, 0.5, 2.0, 2.0**30 - 8, 2.0**30 - 4, 2.0**30 - 1, 2.0**30 - 0.5, 2.0**30, 2.0**30 + 0.5,
               1e16, 1e308)

# A file's bytes, mostly band text, or None for a path with no file.
batch_files = st.lists(
    st.integers(0, 9).flatmap(lambda k: st.none() if k == 0 else st.binary(max_size=64) if k == 1
                              else band_texts(TOKENS + HUGE_SPINS, HUGE_STARTS)),
    min_size=1, max_size=40,
)


def _outcome(call, path):
    try:
        return call(path)
    except BandError as exc:
        return exc


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("batch")


@settings(max_examples=150, deadline=None)
@given(files=batch_files)
@example(files=[PRECEDENCE[0][0]])
@example(files=[PRECEDENCE[1][0]])
@example(files=[PRECEDENCE[2][0]])
@example(files=[PRECEDENCE[3][0]])
def test_batch_reader_matches_sequential_oracle(work, files):
    directory = work / "files"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir()
    paths = [directory / f"b{k:02d}.band" for k in range(len(files))]
    for path, raw in zip(paths, files):
        if raw is not None:
            path.write_bytes(raw)

    faults, bands = read_bands(paths)
    assert len(bands) == faults.count(None)
    assert bands.counts.tolist() == [len(band.levels) for band in bands]
    assert bands.twoj.tolist() == [twoj for band in bands for twoj, _ in band.levels]
    assert bands.e.tolist() == [e for band in bands for _, e in band.levels]
    read = iter(bands)
    for path, fault in zip(paths, faults):
        got = next(read) if fault is None else fault
        expected = _outcome(reference_read_band_file, path)
        one = _outcome(read_band_file, path)
        if isinstance(expected, BandFile):
            assert got == expected.parsed
            assert one == expected
            continue
        for outcome in (got, one):
            assert type(outcome) is type(expected)
            assert str(outcome) == str(expected)
            assert getattr(outcome, "line", None) == getattr(expected, "line", None)


# Tokens of the mixed directory, the same files as when it was first pinned:
# a spin past about 9e307 and the cap tokens are left out.  Its three huge
# spins, from 1e16, are now refused by the spin cap.
MIXED_TOKENS = [token for token in TOKENS if token != b"1e308" and token not in CAP_TOKENS] + [
    b"1e16", b"9007199254740993", b"1e300", b"2.25", b"0.5", b"1e-7", b"+3"]
FIXED_FILES = [
    b"# nucleus: spaced\n\t2\t80 \n# mid\n\n4  265\x0c\n6 548\n",
    "# nucleus: Dy\u2013162 \"x\"\n2 80\n4 265\n6 548\n".encode(),
    b"# nucleus: overflow\n0 0\n1 1e-7\n2 1e308\n",
    b"# nucleus: huge\n1e16 0\n10000000000000002 1\n10000000000000004 2\n",
    b"# nucleus: hugest\n0 0\n1e300 1\n2e300 2\n",
    b"\xef\xbb\xbf# nucleus: marked\n2 80\n4 265\n6 548\n",
    b"",
    b"\xff\xfe",
]


def write_mixed_directory(directory, seed=10, count=2000):
    """``count`` seeded band files: about half valid, integer and
    half-integer, the rest with a spin, energy or token row swapped in, lines
    reordered, repeated or dropped, a header removed or repeated, other line
    endings, or one of ``FIXED_FILES``; plus a directory named like a band
    file and a file that is not one."""
    rng = random.Random(seed)
    directory.mkdir()
    for k in range(count):
        j_min = rng.choice([0.0, 0.5, 1.0, 1.5, 2.0, 3.5, 4.0])
        step = rng.choice([0.5, 1.0, 2.0])
        a0 = rng.uniform(1.0, 20.0)
        spins = [j_min + n * step for n in range(rng.randrange(3, 13))]
        rows = [b"%s %.3f" % (b"%g" % j, a0 * (j * (j + 1) + rng.uniform(0.0, 0.6))) for j in spins]
        lines = [b"# nucleus: m%d" % k, b"# note: mixed"] + rows
        kind = rng.randrange(18)
        at = rng.randrange(2, len(lines))
        if kind == 9:
            lines[at] = lines[at].split()[0] + b" " + rng.choice(MIXED_TOKENS)
        elif kind == 10:
            lines[at] = rng.choice(MIXED_TOKENS) + b" " + lines[at].split()[1]
        elif kind == 11:
            lines.insert(at, b" ".join(rng.choice(MIXED_TOKENS) for _ in range(rng.randrange(4))))
        elif kind == 12:
            other = rng.randrange(2, len(lines))
            lines[at], lines[other] = lines[other], lines[at]
        elif kind == 13:
            lines.insert(at, lines[at] if rng.random() < 0.5 else lines[at].split()[0] + b" 1")
        elif kind == 14:
            del lines[rng.randrange(0, len(lines))]
            del lines[2 + rng.randrange(3):]
        elif kind == 15:
            lines.insert(rng.randrange(0, len(lines)), rng.choice([b"# nucleus: again", b"# nucleus:", b"#nucleus:x"]))
        elif kind == 16:
            lines = [rng.choice(FIXED_FILES)]
        newline = b"\r\n" if kind == 17 else b"\n"
        (directory / f"b{k:04d}.band").write_bytes(newline.join(lines) + newline)
    (directory / "sub.band").mkdir()
    (directory / "readme.txt").write_bytes(b"not a band file\n")


# (exit code, SHA-256 and length of stdout, SHA-256 and length of stderr) of
# each subcommand over the mixed directory.  First taken from the sequential
# reader, then re-taken when spins were capped at 2**30: the "huge" band's
# rows (spins from 1e16) left stdout, and the diagnostics of the files that
# hold a spin past the cap changed.  Nothing else did.  stderr was re-taken
# when "no finite fit: A, chi2 or rms overflows" became "... is not finite"
# on its 18 lines; it changed nowhere else.
MIXED_ERRORS = ("662d10f27b95f9296f0a0240fc85fb617109406dc1f148d68404feae87ae96a6", 52667)
MIXED_PINS = {
    ("table",): (1, "c3f1cc96b0c69d7791d2b21ce8776a47e19d19f64ec3f8b86c6d744c5d55237f", 77379, *MIXED_ERRORS),
    ("table", "--json"): (1, "39ea695068fa431324270b8a7e4d201b95321398055500e64ccefc7723ce047d", 2345023, *MIXED_ERRORS),
    ("plotdata",): (1, "4ec31e1571d29fdc41018bfee1c4e10c14a272c8124202b7ae1b7a3363b5a30e", 468941, *MIXED_ERRORS),
}


@pytest.fixture(scope="module")
def mixed(tmp_path_factory):
    root = tmp_path_factory.mktemp("mixed")
    write_mixed_directory(root / "mixed")
    return root


def _digest(data: bytes):
    return hashlib.sha256(data).hexdigest(), len(data)


@pytest.mark.parametrize("argv", list(MIXED_PINS), ids=" ".join)
def test_mixed_directory_bytes_pinned(mixed, monkeypatch, capsysbinary, argv):
    monkeypatch.chdir(mixed)
    code = main([*argv, "mixed"])
    out, err = capsysbinary.readouterr()
    assert (code, *_digest(out), *_digest(err)) == MIXED_PINS[argv]
