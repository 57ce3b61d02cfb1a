"""The whole command line as a contract: over random argument lists and
random band-file trees, ``qrotor.cli.main`` run in-process lets no
exception escape but ``SystemExit``, ends with code 0, 1 or 2, and writes
strict JSON whenever ``--json`` ends with code 0, and whenever it writes
a report at all after some bands failed.

A read-only output directory is not among the trees: the tests may run as
root, who can write into one, so a write refused by its permission bits
cannot be relied on to happen.
"""

import contextlib
import io
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from qrotor.cli import main
from test_band_fuzz import band_bytes
from test_cli import _strict_json

# A valid band, drawn as often as a fuzzed one, so that fuzzed trees also give runs that succeed.
DY_LEVELS = b"# nucleus: 162Dy\n2 80.66\n4 265.785\n6 548.519\n8 920.501\n"
CONTENTS = st.just(DY_LEVELS) | band_bytes
TREES = st.fixed_dictionaries(
    {"a.band": CONTENTS}, optional={name: CONTENTS for name in ["b.band", "c.txt", "sub/d.band", "sub.band/e.band"]}
)
# A name longer than a file system allows, which Path.is_dir raises for.
LONG = "a" * 295 + ".band"
INPUTS = [".", "a.band", "a.band", "b.band", "c.txt", "sub", "sub/d.band", "sub.band", "missing.band", LONG]
# -o into the tree, into a directory that does not exist, onto a directory, and onto an over-long name.
OUTPUTS = [None, "out.txt", "missing/out.txt", "sub", LONG]
# "5_1" and "\u0665\u0661" are 51, and "1_0" is 10, to Python's int() and float().
MAX_DIMS = [str(dim) for dim in range(3, 22, 2)] + ["1", "2", "4", "-3", "1003", "5.0", "1e3", "x", ""]
MAX_DIMS += ["5_1", "\u0665\u0661"]
TOLERANCES = ["1e-12", "1", "1e-300", "0", "-1", "nan", "inf", "x", "", "1_0"]
BAND_FLAGS = ["--json", "--classical-only"]
VERIFY_FLAGS = ["--max-dim", "--tolerance"]


@st.composite
def command_lines(draw):
    """(argv, its -o path or None), with inputs and the -o path relative to
    the tree: the flags of a drawn subcommand, at times one flag of another
    subcommand, and at times an unknown subcommand."""
    subcommand = draw(st.sampled_from(["table", "fit", "plotdata", "verify", "refit"]))
    verify = subcommand == "verify"
    argv = [subcommand]
    for flag in draw(st.lists(st.sampled_from(VERIFY_FLAGS if verify else BAND_FLAGS), max_size=2, unique=True)):
        argv.append(flag)
        if flag == "--max-dim":
            argv.append(draw(st.sampled_from(MAX_DIMS)))
        elif flag == "--tolerance":
            argv.append(draw(st.sampled_from(TOLERANCES)))
    stray = draw(st.sampled_from([None] * 6 + (BAND_FLAGS if verify else ["--max-dim=5", "--tolerance=1"])))
    if stray is not None:
        argv.append(stray)
    if not verify:
        argv.extend(draw(st.lists(st.sampled_from(INPUTS), min_size=1, max_size=3)))
    output = draw(st.sampled_from(OUTPUTS))
    if output is not None:
        argv.extend(["-o", output])
    return argv, output


def _run(argv):
    """Exit code and standard-output bytes of ``main(argv)``; any exception
    but ``SystemExit`` propagates."""
    out = io.BytesIO()
    stdout = io.TextIOWrapper(out, encoding="utf-8", write_through=True)
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        stdout.flush()
        return code, out.getvalue()


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@settings(max_examples=200, deadline=None)
@given(files=TREES, command=command_lines())
@example(files={"a.band": DY_LEVELS}, command=(["table", "--json", "a.band"], None))
@example(files={"a.band": DY_LEVELS}, command=(["fit", "--json", ".", "-o", "out.txt"], "out.txt"))
@example(files={}, command=(["table", "a.band", "-o", "missing/out.txt"], "missing/out.txt"))
@example(files={}, command=(["table", "--json"], None))
@example(files={"a.band": DY_LEVELS}, command=(["table", "--json", "a.band", LONG, "-o", LONG], LONG))
@example(files={}, command=(["verify", "--max-dim", "5", "--tolerance", "1e-300", "-o", "sub"], "sub"))
def test_main_ends_in_an_exit_code_and_strict_json(work, files, command):
    argv, output = command
    with tempfile.TemporaryDirectory(dir=work) as name:
        root = Path(name)
        for file_name, content in files.items():
            (root / file_name).parent.mkdir(exist_ok=True)
            (root / file_name).write_bytes(content)
        if output == "sub":
            (root / "sub").mkdir(exist_ok=True)
        in_tree = set(INPUTS) | {output}
        code, stdout = _run([str(root / arg) if arg in in_tree else arg for arg in argv])
        assert code in (0, 1, 2)
        event(f"{argv[0]} exit {code}")
        if "--json" in argv and code != 2:
            written = output is not None and os.path.isfile(root / output)  # False for an over-long name
            payload = (root / output).read_bytes() if written else stdout
            if code == 0 or payload:
                event("strict JSON checked")
                assert isinstance(_strict_json(payload.decode("utf-8")), list)
