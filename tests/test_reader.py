"""The band reader's numpy-free front: its error types, its scan columns and
the forked scan of the command line.

The forked scan runs only in a fresh interpreter, before numpy loads, so its
tests spawn the CLI.  Each compares a run pinned to one core, where the scan
stays in-process, with a run that forks, on a corpus of several chunks with
failing files on both sides of a chunk boundary."""

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
from qrotor import reader
from qrotor.ingest import BandParseError, write_band
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


def _spawn(argv, script=None, core=None):
    """``python -m qrotor argv``, or ``script`` with ``argv``, pinned to
    ``core`` if given: (exit code, stdout, stderr)."""
    command = [sys.executable, *(["-c", script] if script else ["-m", "qrotor"]), *map(str, argv)]
    pin = None if core is None else lambda: os.sched_setaffinity(0, {core})
    proc = subprocess.run(command, capture_output=True, env=_child_env(), cwd=REPO_ROOT, preexec_fn=pin,
                          timeout=120)
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


# Runs ``main`` on its argv and then fails unless it forked one child and
# reaped it.
COUNT_FORKS = """
import os, sys
forks = []
fork = os.fork
os.fork = lambda: forks.append(1) or fork()
from qrotor.cli import main
code = main(sys.argv[{first}:])
assert len(forks) == 1, forks
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    sys.exit(code)
sys.exit("a child outlived the run")
"""


@forks
def test_no_child_outlives_a_run(corpus):
    code, out, err = _spawn(["table", corpus, "-o", os.devnull], script=COUNT_FORKS.format(first=1))
    assert (code, out) == (1, b"") and err.count(b"\n") == 16, err


@forks
def test_out_of_memory_while_numpy_loads_kills_the_child(corpus):
    script = REFUSE_NUMPY + COUNT_FORKS.format(first=2)
    assert _spawn(["MemoryError", "table", corpus], script=script) == (1, b"", b"qrotor: table: out of memory\n")


# Runs ``main`` with the forked child exiting 1 before it sends its scans.
CHILD_FAILS = """
import os, sys
from qrotor import reader
reader._send = lambda fd, data: os._exit(1)
from qrotor.cli import main
sys.exit(main(sys.argv[1:]))
"""


@forks
def test_a_failed_child_changes_nothing(corpus):
    assert _spawn(["table", corpus], script=CHILD_FAILS) == _spawn(["table", corpus], core=_one_core())


@forks
def test_fork_raises_no_deprecation_warning(valid_corpus):
    """From Python 3.12, ``os.fork`` warns in a process that runs threads:
    the fork comes before numpy, and OpenBLAS, start any."""
    proc = subprocess.run([sys.executable, "-W", "error::DeprecationWarning", "-m", "qrotor", "table",
                           str(valid_corpus), "-o", os.devnull], capture_output=True, text=True, env=_child_env(),
                          cwd=REPO_ROOT, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
