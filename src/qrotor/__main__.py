import atexit
import gc
import os

# numpy's OpenBLAS starts a worker per extra core that spins about 0.13 s of
# CPU after start-up; no qrotor path gains from BLAS threads, and with none a
# run still has the one thread a JSON report's fork needs (reader.can_fork).
# Set before numpy loads, and only here, so importing qrotor.cli leaves
# os.environ alone.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402

# Interpreter shutdown runs full collections over every object left, numpy's
# whole heap among them, though exit frees nothing those collections could
# find.  atexit handlers run before them, so freezing the heap here leaves
# them nothing to scan.  On two cores the time from a run's last statement to
# its exit fell from 38-46 ms to 8 ms.  stdout and stderr are still flushed,
# and the exit code is main's.
atexit.register(gc.freeze)

if __name__ == "__main__":
    raise SystemExit(main())
