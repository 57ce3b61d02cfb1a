"""The band reader's front, which needs no numpy: reading band files and
scanning their text into flat columns.

``_read`` gives a regular file's bytes, or the ``BandError`` that stops
reading it; a pipe or a device is refused before any read.  ``_scan`` reads
one text once, line by line, for its encoding, headers, field counts,
number syntax and the half-integer grid (``qnum.on_grid``), and appends each
data line's twice-spin, energy and line number to the columns.  A ``Scan``
is that result for a batch of texts, in order, as int64 and float64
``array`` columns, which ``ingest`` reads with ``np.frombuffer`` to check the
band rules over the whole batch.  This module imports the standard library
and ``qnum`` alone, so that a child the command line forks reads and scans
while numpy loads.

``scan_paths`` is the one scan of a list of paths.  Where the paths make two
chunks or more, numpy has not loaded and ``can_fork()``, a forked child
scans chunks while this process loads numpy, and then both scan the rest
(``forked``, which the command line's JSON report uses too).  A fork changes
no result.  Elsewhere the same scan runs in this process alone.
"""

from __future__ import annotations

import errno
import marshal
import math
import os
import stat
import sys
from array import array
from collections.abc import Callable, Iterable, Iterator, Sequence
from pathlib import Path

from .qnum import MAX_SPIN, _cores, _decimal, on_grid

__all__ = ["BandError", "BandParseError", "Scan", "scan_paths"]


class BandError(ValueError):
    """A band violates the level-list invariants; ``level`` is the index of
    the offending level, or None when no single level is at fault."""

    def __init__(self, message: str, level: int | None = None):
        super().__init__(message)
        self.level = level


class BandParseError(BandError):
    """A band file failed validation; carries the offending line number
    (0 for file-level problems)."""

    def __init__(self, line: int, message: str):
        self.line = line
        self.message = message
        prefix = f"line {line}: " if line else ""
        super().__init__(f"{prefix}{message}")

    def __reduce__(self):
        # ``args`` holds the formatted text alone, which __init__ does not take.
        return type(self), (self.line, self.message), self.__dict__


def _scan(text: bytes | str, twojs: list[int], energies: list[float],
          line_nos: list[int]) -> tuple[str | None, list[str], BandParseError | None]:
    """Check one file's text (encoding, headers, field count, number syntax,
    half-integer grid) and append each data line before its first fault to
    the columns: twice-spin, energy and line number.  Returns the band name,
    the note lines and that fault, or None."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            line_no = text.count(b"\n", 0, exc.start) + 1
            return None, [], BandParseError(line_no, f"byte {text[exc.start]:#04x} is not valid UTF-8")
    text = text.removeprefix("\ufeff")  # one leading byte-order mark
    read = float if text.isascii() and "_" not in text else _decimal

    name: str | None = None
    notes: list[str] = []
    # Lines end at "\n" only: str.splitlines would also break at form feeds
    # and Unicode separators and shift every later line number.
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        if line[0] == "#":
            body = line[1:].strip()
            if body.startswith("nucleus:"):
                if name is not None:
                    return name, notes, BandParseError(line_no, "duplicate '# nucleus:' header")
                name = body[len("nucleus:"):].strip()
                if not name:
                    return name, notes, BandParseError(line_no, "empty nucleus name")
            elif body.startswith("note:"):
                notes.append(body[len("note:"):].strip())
            continue
        if name is None:
            return name, notes, BandParseError(line_no, "data before the required '# nucleus:' header")
        tokens = line.split()
        if len(tokens) != 2:
            return name, notes, BandParseError(line_no, f"expected '<spin> <energy_keV>', got {len(tokens)} fields")
        try:
            spin = read(tokens[0])
        except ValueError:
            spin = math.nan
        twoj = on_grid(spin)
        if twoj is None:
            if MAX_SPIN < abs(spin) < math.inf:
                return name, notes, BandParseError(line_no, f"spin {tokens[0]!r} exceeds {MAX_SPIN}")
            return name, notes, BandParseError(line_no, f"invalid spin {tokens[0]!r} (integer or half-integer)")
        try:
            energies.append(read(tokens[1]))
        except ValueError:
            return name, notes, BandParseError(line_no, f"non-numeric energy {tokens[1]!r}")
        twojs.append(twoj)
        line_nos.append(line_no)
    if name is None:
        return name, notes, BandParseError(0, "missing '# nucleus:' header")
    return name, notes, None


class Scan:
    """The scanned texts of a batch, in order.  Per text: ``names`` (None
    where no header was read), ``notes`` (the note lines joined by "\\n", or
    None), ``faults`` (the first text fault, or None) and ``counts`` (the
    levels it added); per level: ``twoj``, ``e`` and ``line``, the twice-spin,
    energy and line number.  The four number columns are int64 and float64
    ``array``s.  A text given as a ``BandError``, the error reading it, is
    its own fault."""

    def __init__(self, texts: Iterable[bytes | str | BandError] = ()):
        # Lists while scanning: array.append takes three times as long as list.append.
        twoj, e, line, counts = [], [], [], []
        self.names, self.notes, self.faults = [], [], []
        for text in texts:
            before = len(line)
            name, note, fault = (None, [], text) if isinstance(text, BandError) else _scan(text, twoj, e, line)
            self.names.append(name)
            self.notes.append("\n".join(note) if note else None)
            self.faults.append(fault)
            counts.append(len(line) - before)
        self.twoj, self.e, self.line, self.counts = array("q", twoj), array("d", e), array("q", line), array("q", counts)

    def extend(self, other: Scan) -> None:
        """Append ``other``'s texts after this scan's."""
        for column in ("names", "notes", "faults", "twoj", "e", "line", "counts"):
            getattr(self, column).extend(getattr(other, column))

    def values(self) -> tuple:
        """The scan as values ``marshal`` writes: the number columns as raw
        bytes, and each fault as ``(line, message)``, line None for a plain
        ``BandError``."""
        faults = [None if fault is None else (fault.line, fault.message) if isinstance(fault, BandParseError)
                  else (None, str(fault)) for fault in self.faults]
        columns = (self.twoj, self.e, self.line, self.counts)
        return self.names, self.notes, faults, *(column.tobytes() for column in columns)

    @classmethod
    def of_values(cls, values: tuple) -> Scan:
        """The scan that gave ``values``."""
        scan = cls()
        scan.names, scan.notes, faults, *columns = values
        scan.faults = [None if fault is None else BandError(fault[1]) if fault[0] is None else BandParseError(*fault)
                       for fault in faults]
        for column, data in zip((scan.twoj, scan.e, scan.line, scan.counts), columns, strict=True):
            column.frombytes(data)
        return scan


# Without O_NONBLOCK, opening a FIFO waits for a writer; O_BINARY (Windows
# only) keeps "\r\n" as it is.
_OPEN_FLAGS = os.O_RDONLY | getattr(os, "O_NONBLOCK", 0) | getattr(os, "O_BINARY", 0)


def _read(path: Path | str) -> bytes | BandError:
    """The bytes of a regular file, or the BandError that stops reading it.
    A pipe, a device or a socket is refused before any read."""
    try:
        fd = os.open(path, _OPEN_FLAGS)
        try:
            status = os.fstat(fd)
            if stat.S_ISDIR(status.st_mode):  # os.read's EISDIR would carry no file name
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))
            if not stat.S_ISREG(status.st_mode):
                return BandError("cannot read band file: not a regular file")
            chunks = [os.read(fd, status.st_size + 1)]
            while chunks[-1]:  # a file that grew since fstat
                chunks.append(os.read(fd, 1 << 16))
            chunks.pop()
            return b"".join(chunks)  # one chunk is returned as it is, not copied
        finally:
            os.close(fd)
    except OSError as exc:
        return BandError(f"cannot read band file: {exc}")


def _threads() -> int:
    """Threads in this process: the kernel's count, native threads included,
    where ``/proc`` gives it, else Python's."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        import threading

        return threading.active_count()


# Files per chunk, and the bytes of one chunk number in the pipe.
_CHUNK_FILES = 256
_TOKEN_BYTES = 4


def most_chunks() -> int:
    """The most chunks ``forked`` takes: their numbers fit one pipe write
    that cannot block (1,024 on Linux)."""
    import select  # PIPE_BUF; only a forking platform needs it

    return getattr(select, "PIPE_BUF", 512) // _TOKEN_BYTES


def _chunks(paths: Sequence[Path | str]) -> list[Sequence[Path | str]]:
    """``paths`` cut into consecutive chunks of ``_CHUNK_FILES`` paths; past
    ``most_chunks()`` chunks the chunks grow."""
    size = max(_CHUNK_FILES, -(-len(paths) // most_chunks()))
    return [paths[start:start + size] for start in range(0, len(paths), size)]


def can_fork() -> bool:
    """Whether ``forked`` may fork: ``os.fork`` exists, two cores or more
    are usable, and no other thread runs, which a fork would copy half-way
    through its work."""
    return hasattr(os, "fork") and _cores() >= 2 and _threads() == 1


def _taken(tokens: int) -> Iterator[int]:
    """The chunk numbers this process reads from the pipe ``tokens``, each
    read as it is needed, until the pipe is empty."""
    while token := os.read(tokens, _TOKEN_BYTES):
        yield int.from_bytes(token, "little")


def _send(fd: int, data: bytes) -> None:
    """Write all of ``data`` to ``fd``."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _child(work: Callable[[int], object], tokens: int, results: tuple[int, int]) -> None:
    """The forked child's whole run: work each chunk it takes from
    ``tokens``, send the results to the pipe ``results`` and exit 0; exit 1
    on any failure.  It never returns, nor runs the parent's exit handlers."""
    code = 1
    try:
        os.close(results[0])  # so that a write fails, not blocks, once the parent is gone
        _send(results[1], marshal.dumps([(k, work(k)) for k in _taken(tokens)]))
        code = 0
    finally:
        os._exit(code)


def forked(work: Callable[[int], object], count: int, meanwhile: Callable[[], object] = lambda: None) -> list:
    """``[work(k) for k in range(count)]``, shared with one forked child, and
    ``meanwhile()`` called once in this process before it works.  The caller
    checks ``can_fork()``; ``count`` is at most ``most_chunks()``, and each
    result is a value ``marshal`` writes.

    The chunk numbers go into a pipe in one write, made before the fork; a
    pipe read hands each number to one reader only, so the child takes
    chunks from the start while this process runs ``meanwhile()``, and then
    both take the rest.  The child sends its results in one ``marshal``
    stream.  If no child can be forked, or it fails, or what it sent is cut
    short, this process works its chunks, so a fork changes no result.

    No process outlives the call: on any exception, ``meanwhile``'s among
    them, the child is killed and reaped before it propagates.
    """
    if count < 2:  # a child could only wait, or hold a second copy of the one result
        meanwhile()
        return [work(k) for k in range(count)]
    tokens, write = os.pipe()
    results, pid = -1, -1
    try:
        try:  # one write of at most PIPE_BUF bytes into an empty pipe: it cannot block
            os.write(write, b"".join(k.to_bytes(_TOKEN_BYTES, "little") for k in range(count)))
        finally:
            os.close(write)
        results, write = os.pipe()
        try:
            pid = os.fork()
            if pid == 0:
                _child(work, tokens, (results, write))
        except OSError:  # no process to spare: this one takes every chunk
            pass
        finally:
            os.close(write)
        meanwhile()
        done = {k: work(k) for k in _taken(tokens)}
        if pid > 0:
            with open(results, "rb", buffering=0, closefd=False) as pipe:
                data = pipe.readall()
            _, status = os.waitpid(pid, 0)
            pid = -1
            try:
                if status == 0:
                    done |= dict(marshal.loads(data))
            except (EOFError, TypeError, ValueError):  # what the child sent was cut short
                pass
            del data
    finally:
        if pid > 0:  # an exception left the child running: kill it and reap it
            import signal  # its import builds enums; only this path needs it

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        os.close(tokens)
        if results >= 0:
            os.close(results)
    return [done.pop(k) if k in done else work(k) for k in range(count)]


def scan_paths(paths: Sequence[Path | str], meanwhile: Callable[[], object] = lambda: None) -> Scan:
    """Read and scan the band files at ``paths``, in order, and call
    ``meanwhile()`` once in this process, before it scans.  Where the paths
    make two chunks or more, numpy, whose import the child overlaps and
    whose BLAS may start threads, has not loaded, and ``can_fork()``, a
    forked child scans chunks while ``meanwhile`` runs (``forked``)."""
    if len(paths) <= _CHUNK_FILES or "numpy" in sys.modules or not can_fork():
        meanwhile()
        return Scan(map(_read, paths))
    chunks = _chunks(paths)
    scan = Scan()
    for values in forked(lambda k: Scan(map(_read, chunks[k])).values(), len(chunks), meanwhile):
        scan.extend(Scan.of_values(values))
    return scan
