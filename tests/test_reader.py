"""The band reader's numpy-free front: its error types, its scan columns,
and ``reader.forked``, which shares the command line's band scan and its
JSON report with a forked child.

The forked scan runs only in a fresh interpreter, before numpy loads, so the
fork tests spawn the CLI.  Each compares a run pinned to one core, where the
scan and the report stay in-process, with a run that forks, on a corpus of
several chunks with failing files on both sides of a chunk boundary."""

import copy
import marshal
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from _synth import random_band
from conftest import REPO_ROOT
from qrotor import cli, reader
from qrotor.fit import compare_batch
from qrotor.ingest import BandParseError, _checked, _report_json, write_band
from qrotor.model import BandError
from qrotor.reader import Scan, _chunks, _read
from test_cli import REFUSE_NUMPY, _child_env

CHUNK = reader._CHUNK_FILES


@pytest.mark.parametrize("error", [BandParseError(3, "x"), BandParseError(0, "missing '# nucleus:' header")])
def test_band_parse_error_round_trips(error):
    for twin in (pickle.loads(pickle.dumps(error)), copy.copy(error), copy.deepcopy(error)):
        assert type(twin) is BandParseError
        assert (twin.line, twin.message, str(twin), twin.level) == (error.line, error.message, str(error), None)


def test_band_error_keeps_its_level():
    twin = pickle.loads(pickle.dumps(BandError("energies must be strictly increasing", 2)))
    assert (str(twin), twin.level) == ("energies must be strictly increasing", 2)


def test_errors_have_one_class_each():
    import qrotor
    from qrotor import ingest, model

    assert model.BandError is reader.BandError is qrotor.BandError
    assert ingest.BandParseError is reader.BandParseError is qrotor.BandParseError


def _failing_texts(tmp_path):
    """One text per kind of failure the scan or the band rules find, and the
    error reading a directory."""
    (tmp_path / "x.band").mkdir()
    return [
        b"# nucleus: a\n0 0\n2 \xff\n",  # invalid UTF-8
        b"# note: no header follows\n",  # no header
        b"# nucleus: b\n0 0\n0.3 1\n1 2\n",  # off-grid spin
        b"# nucleus: c\n0 0\n1 x\n2 2\n",  # non-numeric energy
        b"# nucleus: d\n0 0\n1 5\n2 4\n",  # a band rule
        _read(tmp_path / "x.band"),
    ]


def test_scan_values_round_trip(tmp_path):
    texts = [write_band(random_band(np.random.default_rng(k), k)[0]) for k in range(5)]
    scan = Scan([*texts, *_failing_texts(tmp_path), "# nucleus: e\n# note: n\n0 0\n1 1\n2 3\n"])
    twin = Scan.of_values(marshal.loads(marshal.dumps(scan.values())))
    for column in ("names", "notes", "twoj", "e", "line", "counts"):
        assert getattr(twin, column) == getattr(scan, column), column
    assert [(type(f), str(f)) for f in twin.faults] == [(type(f), str(f)) for f in scan.faults]
    assert (twin.twoj.typecode, twin.e.typecode, twin.line.typecode, twin.counts.typecode) == ("q", "d", "q", "q")


def test_scans_extend_in_order(tmp_path):
    texts = [write_band(random_band(np.random.default_rng(k), k)[0]) for k in range(4)] + _failing_texts(tmp_path)
    joined = Scan(texts[:3])
    joined.extend(Scan(texts[3:]))
    whole = Scan(texts)
    for column in ("names", "notes", "twoj", "e", "line", "counts"):
        assert getattr(joined, column) == getattr(whole, column), column
    assert list(map(str, joined.faults)) == list(map(str, whole.faults))


@pytest.mark.parametrize("files,size", [(1, CHUNK), (CHUNK * 3 + 1, CHUNK), (CHUNK * 2048, CHUNK * 2)])
def test_chunk_numbers_fit_one_pipe_write(files, size):
    import select

    chunks = _chunks(range(files))
    assert [len(chunk) for chunk in chunks[:-1]] == [size] * (len(chunks) - 1)
    assert [k for chunk in chunks for k in chunk] == list(range(files))
    assert len(chunks) * reader._TOKEN_BYTES <= select.PIPE_BUF


def test_meanwhile_runs_once_in_process(tmp_path):
    calls = []
    scan = reader.scan_paths([tmp_path / "none.band"] * (CHUNK + 1), meanwhile=lambda: calls.append(1))
    assert calls == [1]  # numpy has loaded here, so no child forks
    assert len(scan.names) == CHUNK + 1 and "No such file" in str(scan.faults[-1])


forks = pytest.mark.skipif(
    not hasattr(os, "fork") or len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
    reason="the scan forks only where os.fork exists and two cores are usable")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Three chunks of band files: valid ones, with each failing kind on
    both sides of the first chunk boundary and in the last chunk."""
    root = tmp_path_factory.mktemp("corpus")
    texts = [write_band(random_band(np.random.default_rng(k), k)[0]) for k in range(2 * CHUNK + 40)]
    failing = _failing_texts(tmp_path_factory.mktemp("failing"))[:-1]
    for at in (CHUNK - len(failing), CHUNK, 2 * CHUNK + 5):
        texts[at:at + len(failing)] = failing
    for k, text in enumerate(texts):
        (root / f"b{k:04d}.band").write_bytes(text)
    (root / f"b{CHUNK:04d}x.band").mkdir()  # sorts just past the boundary
    return root


@pytest.fixture(scope="module")
def valid_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("valid")
    for k in range(2 * CHUNK + 3):
        (root / f"b{k:04d}.band").write_bytes(write_band(random_band(np.random.default_rng(k), k)[0]))
    return root


def _first_report_chunk(texts):
    """The bands in the first chunk of the JSON report of ``texts``, all
    valid bands."""
    fits = compare_batch(_checked(Scan(texts))[2])
    bodies = []

    def run(body, count):
        bodies.extend(map(body, range(count)))
        return bodies

    _report_json(fits, fits.shown(), run)
    assert len(bodies) > 2
    return bodies[0].count(b'"nucleus"') // 2  # two rows a band


@pytest.fixture(scope="module")
def report_corpus(tmp_path_factory):
    """Band files of more levels than a JSON report formats in-process, and
    of several chunks of files, with failing files on both sides of the
    first boundary between the report's chunks of shown bands."""
    texts, levels = [], 0
    while levels <= 1.2 * cli._FORK_LEVELS:
        band = random_band(np.random.default_rng(len(texts)), len(texts))[0]
        texts.append(write_band(band))
        levels += len(band.levels)
    first = _first_report_chunk(texts)
    failing = _failing_texts(tmp_path_factory.mktemp("report_failing"))[:-1]
    texts[first + 1:first + 1] = failing  # after the first band of the second chunk
    texts[first - 1:first - 1] = failing  # before the last band of the first chunk
    root = tmp_path_factory.mktemp("report")
    for k, text in enumerate(texts):
        (root / f"b{k:05d}.band").write_bytes(text)
    return root


def _spawn(argv, script=None, core=None, flags=()):
    """``python -m qrotor argv``, or ``script`` with ``argv``, pinned to
    ``core`` if given: (exit code, stdout, stderr).  ``OPENBLAS_NUM_THREADS``
    is left unset, so ``qrotor.__main__`` sets it to 1, as in a user's run."""
    command = [sys.executable, *flags, *(["-c", script] if script else ["-m", "qrotor"]), *map(str, argv)]
    pin = None if core is None else lambda: os.sched_setaffinity(0, {core})
    proc = subprocess.run(command, capture_output=True, env=_child_env(OPENBLAS_NUM_THREADS=None), cwd=REPO_ROOT,
                          preexec_fn=pin, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def _one_core():
    return min(os.sched_getaffinity(0))


@forks
@pytest.mark.parametrize("argv", [["table"], ["table", "--json"], ["table", "--classical-only"], ["plotdata"]],
                         ids=["table", "json", "classical-only", "plotdata"])
def test_forked_scan_gives_the_same_bytes(corpus, argv):
    in_process = _spawn([*argv, corpus], core=_one_core())
    assert in_process[0] == 1 and in_process[1] and in_process[2].count(b"\n") == 3 * 5 + 1
    assert _spawn([*argv, corpus]) == in_process


# Runs ``main`` on its argv as ``python -m qrotor`` does and then fails unless
# it forked ``count`` children and reaped them.
COUNT_FORKS = """
import os, sys
forks = []
fork = os.fork
os.fork = lambda: forks.append(1) or fork()
from qrotor.__main__ import main
code = main(sys.argv[{first}:])
assert len(forks) == {count}, forks
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    sys.exit(code)
sys.exit("a child outlived the run")
"""


@forks
def test_no_child_outlives_a_run(corpus):
    code, out, err = _spawn(["table", corpus, "-o", os.devnull], script=COUNT_FORKS.format(first=1, count=1))
    assert (code, out) == (1, b"") and err.count(b"\n") == 16, err


@forks
def test_out_of_memory_while_numpy_loads_kills_the_child(corpus):
    script = REFUSE_NUMPY + COUNT_FORKS.format(first=2, count=1)
    assert _spawn(["MemoryError", "table", corpus], script=script) == (1, b"", b"qrotor: table: out of memory\n")


# Runs ``main`` with the forked child exiting 1 before it sends its scans.
CHILD_FAILS = """
import os, sys
from qrotor import reader
reader._send = lambda fd, data: os._exit(1)
from qrotor.__main__ import main
sys.exit(main(sys.argv[1:]))
"""


@forks
def test_a_failed_child_changes_nothing(corpus):
    assert _spawn(["table", corpus], script=CHILD_FAILS) == _spawn(["table", corpus], core=_one_core())


@forks
@pytest.mark.parametrize("argv,inputs", [(["table"], "valid_corpus"), (["table", "--json"], "report_corpus")],
                         ids=["scan", "report"])
def test_fork_raises_no_deprecation_warning(request, argv, inputs):
    """From Python 3.12, ``os.fork`` warns in a process that runs threads:
    the scan forks before numpy, and OpenBLAS, start any, and the report
    after numpy has loaded OpenBLAS on one thread, as ``python -m qrotor``
    sets it."""
    argv = [*argv, request.getfixturevalue(inputs)]
    assert _spawn(argv, flags=["-W", "error::DeprecationWarning"]) == _spawn(argv, core=_one_core())


@pytest.fixture(scope="module")
def one_long_band(tmp_path_factory):
    """One band of more levels than a JSON report formats in-process: one
    chunk of the report."""
    path = tmp_path_factory.mktemp("long") / "long.band"
    path.write_text("# nucleus: long\n" + "".join(f"{j} {j * (j + 1)}\n" for j in range(cli._FORK_LEVELS + 1)))
    return path


@pytest.mark.parametrize("inputs", ["bands_dir", "one_long_band"], ids=["data-bands", "one-chunk"])
def test_a_report_of_one_chunk_or_few_levels_never_forks(request, inputs):
    script = COUNT_FORKS.format(first=1, count=0)
    argv = ["table", "--json", request.getfixturevalue(inputs), "-o", os.devnull]
    assert _spawn(argv, script=script) == (0, b"", b"")


@forks
@pytest.mark.parametrize("argv", [["table", "--json"], ["table", "--classical-only", "--json"]],
                         ids=["json", "classical-only-json"])
def test_forked_report_gives_the_same_bytes(report_corpus, argv):
    in_process = _spawn([*argv, report_corpus], core=_one_core())
    assert in_process[0] == 1 and in_process[1] and in_process[2].count(b"\n") == 2 * 5
    assert _spawn([*argv, report_corpus]) == in_process


@forks
def test_a_forked_report_leaves_no_child(report_corpus):
    script = COUNT_FORKS.format(first=1, count=2)  # the scan's child and the report's
    code, out, err = _spawn(["table", "--json", report_corpus, "-o", os.devnull], script=script)
    assert (code, out) == (1, b"") and err.count(b"\n") == 2 * 5, err


@forks
def test_a_failed_report_child_changes_nothing(report_corpus):
    argv = ["table", "--json", report_corpus]
    assert _spawn(argv, script=CHILD_FAILS) == _spawn(argv, core=_one_core())


# Makes the JSON report's first float in this process, not in a child it
# forks, raise MemoryError.  numpy loads first, so the scan stays in-process.
REPORT_OUT_OF_MEMORY = """
import os
import qrotor.__main__  # OpenBLAS on one thread, as in a run
from qrotor import ingest
parent, floats = os.getpid(), ingest._json_floats

def _json_floats(values):
    if os.getpid() == parent:
        raise MemoryError
    return floats(values)

ingest._json_floats = _json_floats
"""


@forks
def test_out_of_memory_while_the_report_child_runs_kills_it(report_corpus):
    script = REPORT_OUT_OF_MEMORY + COUNT_FORKS.format(first=1, count=1)
    code, out, err = _spawn(["table", "--json", report_corpus], script=script)
    assert (code, out) == (1, b"") and err.endswith(b"\nqrotor: table: out of memory\n"), err
    assert err.count(b"\n") == 2 * 5 + 1


# Runs ``main`` with every fork refused, as when no process is to spare, and
# then fails unless it tried ``count`` forks.
FORK_FAILS = """
import errno, os, sys
tries = []

def fork():
    tries.append(1)
    raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

os.fork = fork
from qrotor.__main__ import main
code = main(sys.argv[1:])
assert len(tries) == {count}, tries
sys.exit(code)
"""


@forks
@pytest.mark.parametrize("argv,count", [(["table"], 1), (["table", "--json"], 2)], ids=["table", "json"])
def test_no_process_to_spare_changes_nothing(report_corpus, argv, count):
    script = FORK_FAILS.format(count=count)
    assert _spawn([*argv, report_corpus], script=script) == _spawn([*argv, report_corpus], core=_one_core())
