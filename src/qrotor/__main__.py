import os

# numpy's OpenBLAS starts a worker per extra core that spins about 0.13 s of
# CPU after start-up; no qrotor path gains from BLAS threads.  Set before
# numpy loads, and only here, so importing qrotor.cli leaves os.environ alone.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
