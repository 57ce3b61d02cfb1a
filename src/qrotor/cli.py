"""Command-line entry point: fit bands, verify the operator algebra,
emit report tables and plot-ready data.

``table`` (alias ``fit``) and ``plotdata`` share one runner, ``cmd_bands``;
an input directory stands for its ``*.band`` files, sorted by name.
Exit codes: 0 success, 1 validation or regime failure, 2 usage error.
All diagnostics go to standard error; results go to standard output or
the ``-o`` path, byte-identically for identical inputs.  A subcommand that
runs out of memory ends with one "out of memory" diagnostic and exit 1, and
so does every run, ``--version`` and ``--help`` included, whose standard
output cannot be written, with "cannot write standard output".

Each subcommand loads only its own modules, on its first use of one of
their names, which this module resolves through the package's one name
table, ``qrotor._HOME``: ``table`` and ``plotdata`` load ``reader``, ``fit``,
``ingest`` and ``model``, ``verify`` loads ``bp_space`` and ``suq2``, and
``--version`` and ``--help`` load none of them.  ``qnum``, which the parser
reads, loads with this module but loads no numpy; numpy loads with the
subcommand's modules, so ``--version``, ``--help``, a usage error and "no
band files found" end without paying its import.

``table`` and ``plotdata`` start reading and scanning their files before
numpy loads: ``reader``, which needs no numpy, scans them, and where the
files make two chunks or more and two cores are usable it forks one child
that scans chunks from the start while this process loads numpy, then joins
in (``reader.scan_paths``).  ``ingest`` checks the band rules on the joined
scan, the same scan a run on one core makes in-process.  A JSON report of
more than ``_FORK_LEVELS`` levels is formatted in chunks of bands that this
process and a second forked child share the same way (``reader.forked``),
and written in band order, piece by piece, never joined.  ``python -m qrotor``
runs OpenBLAS on one thread, so that process still runs one thread when the
report forks; a user who sets more formats the report in-process.  An ``-o``
file is whole or left as it was (``_write``).
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import stat
import sys
from collections.abc import Sequence
from pathlib import Path

from . import __version__
from .qnum import MAX_DENSE_DIM, QParameter, RegimeError, _decimal


def __getattr__(name):  # a name of the package's __all__, resolved on first use (PEP 562)
    package = sys.modules[__package__]
    if name not in package.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(package, name)
    return value


# This module: the subcommands read the package's names through it, so a swap applies.
_module = sys.modules[__name__]

__all__ = ["main", "cmd_bands", "cmd_verify"]

DEFAULT_MAX_DIM = 201
VERIFY_SPINS = (0.5, 1.0, 2.0, 5.0, 10.0)


def _odd_dim(text: str) -> int:
    try:
        value = _decimal(text, int)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid dimension {text!r}") from None
    if value < 3 or value % 2 == 0 or value > MAX_DENSE_DIM:
        raise argparse.ArgumentTypeError(f"max dimension must be odd, from 3 to {MAX_DENSE_DIM}, got {value}")
    return value


def _input(text: str) -> Path:
    if not text:  # Path("") is Path("."), the working directory
        raise argparse.ArgumentTypeError("empty path")
    return Path(text)


def _tolerance(text: str) -> float:
    try:
        value = _decimal(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid tolerance {text!r}") from None
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"tolerance must be finite and > 0, got {text}")
    return value


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that flushes the help or version text it writes
    to standard output, and raises where that fails; argparse itself passes
    over a failed write, and the run would exit 0 with nothing written."""

    def _print_message(self, message, file=None):
        if file is None or file is not sys.stdout:
            return super()._print_message(message, file)
        file.write(message)
        file.flush()


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qrotor",
        description="Deformed-rotor fits of nuclear rotational bands with the "
        "deformation fixed by each band's spin content.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_output(p):
        p.add_argument("-o", "--output", type=_input, default=None, help="write results to this file")

    p_table = sub.add_parser("table", aliases=["fit"], help="fit band files or directories and write the table")
    p_table.add_argument("inputs", nargs="+", type=_input, help="band files or directories of *.band")
    p_table.add_argument("--json", action="store_true", help="emit the JSON report with residuals")
    p_table.add_argument("--classical-only", action="store_true", help="fit only the j(j+1) baseline")
    add_output(p_table)
    p_table.set_defaults(handler=cmd_bands, render=_report)

    p_plot = sub.add_parser("plotdata", help="emit 6-column level/residual data per band")
    p_plot.add_argument("inputs", nargs="+", type=_input, help="band files or directories of *.band")
    add_output(p_plot)
    p_plot.set_defaults(handler=cmd_bands, classical_only=False,
                        render=lambda args, fits: [_module.write_plot_data(fits)])

    p_verify = sub.add_parser("verify", help="verify the operator-algebra identities numerically")
    p_verify.add_argument("--max-dim", type=_odd_dim, default=DEFAULT_MAX_DIM,
                          help=f"largest space dimension in the sweep (odd, {MAX_DENSE_DIM} at most, "
                          f"default {DEFAULT_MAX_DIM})")
    p_verify.add_argument("--tolerance", type=_tolerance, default=None,
                          help="override the per-check tolerances with one value")
    add_output(p_verify)
    p_verify.set_defaults(handler=cmd_verify)

    return parser


def _emit(args: argparse.Namespace, pieces: Sequence[bytes]) -> int:
    """Write ``pieces`` as they are, in order, to the ``-o`` path
    (``_write``) or standard output; 1, with a diagnostic, when they cannot
    be written, else 0."""
    try:
        if args.output is None:
            sys.stdout.flush()
            for piece in pieces:
                view = memoryview(piece)
                while view:  # a write cut short by a closing reader returns its count; the next one raises
                    view = view[sys.stdout.buffer.write(view):]
            sys.stdout.buffer.flush()
        else:
            _write(args.output, pieces)
    except OSError as exc:
        if args.output is None:
            return _stdout_failed(exc)
        print(f"qrotor: cannot write {args.output}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    return 0


def _write(path: Path, pieces: Sequence[bytes]) -> None:
    """Write ``pieces`` to ``path``, which holds after it the whole of them
    or, when a write fails, what it held before.  A regular file, or a name
    not yet taken, is written through a new file beside it, under the first
    of ``.NAME.PID.tmp``, ``.NAME.PID.1.tmp``, ... not taken, made with the
    mode a new file gets (0o666 less the umask) or the mode of the file it
    replaces, and renamed onto it after the last piece.  A symlink, which is
    followed, a device, a FIFO, or a path beside which no new file can be
    made, is written in place."""
    try:
        mode = os.lstat(path).st_mode
    except FileNotFoundError:
        mode = None
    flags, temp = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), None
    if mode is None or stat.S_ISREG(mode):
        for n in itertools.count():  # a name a killed run left, under a PID since reused, is passed over
            temp = path.with_name(f".{path.name}.{os.getpid()}{f'.{n}' if n else ''}.tmp")
            try:
                fd = os.open(temp, flags | os.O_EXCL, 0o666)
            except FileExistsError:
                continue
            except OSError:
                temp = None
            break
    if temp is None:
        fd = os.open(path, flags | os.O_TRUNC, 0o666)
    try:
        with open(fd, "wb") as out:
            for piece in pieces:
                out.write(piece)
        if temp is not None:
            if mode is not None:
                os.chmod(temp, stat.S_IMODE(mode))
            os.replace(temp, path)
    except BaseException:
        if temp is not None:
            os.unlink(temp)
        raise


def _stdout_failed(exc: OSError) -> int:
    """Print the diagnostic for a failed write to standard output and point
    its descriptor at the null device, as the "Note on SIGPIPE" in Python's
    ``signal`` docs does, so that the bytes left in its buffer do not fail
    again, with an "Exception ignored" note and exit 120, when Python
    flushes it at exit; 1."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)
    print(f"qrotor: cannot write standard output: {exc.strerror or exc}", file=sys.stderr)
    return 1


# Levels above which a JSON report is formatted on two cores.  Below about
# 10,000, spawned `table --json` runs on two cores gained nothing: the fork,
# and the pages both processes then copy, cost what the second core saved.
_FORK_LEVELS = 10_000


def _report(args: argparse.Namespace, fits) -> list[bytes]:
    """The table or the JSON report of ``fits``, in pieces.  A JSON report
    of more than ``_FORK_LEVELS`` levels is formatted in chunks that this
    process and a forked child share, where ``reader.can_fork()``; any
    other goes through ``write_report``, looked up in this module when
    called, so that a swapped name applies."""
    from .reader import can_fork, forked

    # Tested here too, not in ``forked`` alone: an in-process report goes
    # through ``write_report``, which bench/spans.py's swap records.
    if args.json and len(fits.bands.e) > _FORK_LEVELS and can_fork():
        from .ingest import _report_json, _shown

        return _report_json(fits, _shown(fits, both=False), forked)
    return [_module.write_report(fits, as_json=args.json)]


def _fit_one(path: Path, classical_only: bool):
    """Read and fit one band file on its own: (band, deformed fit or None when
    ``classical_only``, classical fit); raises the classical fit's failure first."""
    band = _module.read_band_file(path).parsed
    fit_cl = _module.fit_A(band, None)
    fit_q = None if classical_only else _module.fit_A(band, _module.q_parameter_from_band(band))
    return band, fit_q, fit_cl


def cmd_bands(args: argparse.Namespace) -> int:
    """Fit the band files and directories in ``args.inputs`` in one batch,
    print each failure in path order, then emit ``args.render`` of the
    batch's fits, which reports the bands that read and fitted."""
    paths: list[Path | str] = []
    for item in args.inputs:
        try:
            if item.is_dir():
                # Joined as Path.glob joins them, without a Path per file.
                base = "" if str(item) == "." else os.path.join(item, "")
                paths.extend(base + name for name in sorted(os.listdir(item)) if name.endswith(".band"))
            else:
                paths.append(item)
        except OSError as exc:  # a name too long to look up, a directory that cannot be listed
            print(f"qrotor: {item}: {exc.strerror or exc}", file=sys.stderr)
            return 1
    if not paths:
        print("qrotor: no band files found", file=sys.stderr)
        return 1
    from .reader import scan_paths  # the standard library alone: a child it forks scans while numpy loads

    # Reading read_bands loads its module, ingest, and with it fit, model and numpy.
    scan = scan_paths(paths, meanwhile=lambda: _module.read_bands)
    from .ingest import _checked

    faults, _, bands = _checked(scan)
    del scan  # its columns, 24 bytes a level, would stay alive through the fit and the report
    fits = _module.compare_batch(bands, args.classical_only)
    failed = fits.failed()
    read = iter(range(len(bands)))
    code = 0
    for path, fault in zip(paths, faults):
        fault = failed.get(next(read)) if fault is None else fault
        if fault is not None:
            print(f"qrotor: {path}: {fault}", file=sys.stderr)
            code = 1
    if len(failed) < len(bands):
        code |= _emit(args, args.render(args, fits))
    return code


def _bp_tolerance(dim: int) -> float:
    return 1e-12 if dim <= 201 else 1e-10


def _irrep_tolerance(dim: int) -> float:
    return 1e-12 if dim <= 201 else 1e-11


def cmd_verify(args: argparse.Namespace) -> int:
    l_max = (args.max_dim - 1) // 2
    l_sweep = sorted({l for l in (1, 2, 5, 25) if l <= l_max} | {l_max})
    lines = []
    failures = []

    def record(name: str, params: str, deviation: float, tol: float) -> None:
        tol = tol if args.tolerance is None else args.tolerance
        status = "PASS" if deviation <= tol else "FAIL"
        lines.append(f"{name:<22} {params:<24} dev={deviation:.3e} tol={tol:g} {status}")
        if status == "FAIL":
            failures.append(f"{name} {params}: deviation {deviation:.3e} exceeds {tol:g}")

    for l in l_sweep:
        for theta0 in (0.0, 0.6):
            space = _module.build_space(l, theta0)
            params = f"l={l} theta0={theta0:.1f}"
            for name, check in _module.BP_CHECKS:
                record(name, params, check(space), _bp_tolerance(space.dim))
            if space.dim <= 101:
                record("shift-power", params, _module.check_shift_power(space), 1e-10)

    for l in l_sweep:
        dim = 2 * l + 1
        qp = QParameter.from_dim(dim)
        for j in VERIFY_SPINS:
            params = f"dim={dim} j={j:g}"
            try:
                irrep = _module.build_irrep(j, qp)
            except RegimeError:
                lines.append(f"{'irrep':<22} {params:<24} skipped (space too small for spin)")
                continue
            for name, check in _module.IRREP_CHECKS:
                record(name, params, check(irrep), _irrep_tolerance(dim))

    code = _emit(args, [("\n".join(lines) + "\n").encode("utf-8")])
    for failure in failures:
        print(f"qrotor: verify: {failure}", file=sys.stderr)
    return 1 if failures else code


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except OSError as exc:  # from the help or version text, the one output a parse writes
        return _stdout_failed(exc)
    try:
        return args.handler(args)
    except MemoryError:
        pass  # the diagnostic is printed once the handler's frames are freed
    print(f"qrotor: {args.subcommand}: out of memory", file=sys.stderr)
    return 1
