#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark of ``qrotor table`` and ``qrotor verify``.

    python3 bench/run.py --workload table-10k --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is ``src/qrotor``.
With ``--trace 0`` the run spawns the CLI as a user runs it
(``python -m qrotor ...`` with ``PYTHONPATH=src``), alternating with a fresh
``python -m qrotor --version`` for set-up time, until ``--seconds`` have
passed, and reports means over the run's invocations.  With ``--trace 1`` it alternates those spawns
with in-process traced passes (see ``spans.py``) and reports per-layer
figures.  Every output is checked against the reference in ``corpus.py``
and ``check.py``.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import check
from corpus import write_corpus

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# Every run, spawned children included, ends within this many seconds.
RUN_DEADLINE_S = 170.0


@dataclass(frozen=True)
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: list[str], stdout: Path, stderr: Path, deadline: float) -> Sample:
    """Run ``python -m qrotor argv`` to completion, timed from spawn to exit,
    with the child's own CPU time and peak RSS from ``os.wait4``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with stdout.open("wb") as out, stderr.open("wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "qrotor", *argv], cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), _kill, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    timer.join()
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


class TableWorkload:
    """``qrotor table [--json] DIR -o OUT`` over a generated band corpus."""

    def __init__(self, n_bands: int, min_levels: int, max_levels: int, as_json: bool):
        self.n_bands, self.min_levels, self.max_levels, self.as_json = n_bands, min_levels, max_levels, as_json

    def prepare(self, work: Path, seed: int) -> None:
        self.corpus = work / "bands"
        self.bands, self.bytes_read = write_corpus(self.corpus, seed, self.n_bands, self.min_levels, self.max_levels)
        self.ops = len(self.bands)

    def argv(self, output: Path) -> list[str]:
        return ["table", *(["--json"] if self.as_json else []), str(self.corpus), "-o", str(output)]

    def check(self, payload: bytes) -> tuple[int, int]:
        return (check.check_json if self.as_json else check.check_table)(payload, self.bands)

    def counters(self, tracer, stats, payload: bytes) -> dict[str, float]:
        files = stats.calls.get("cli.band", 0.0) * tracer.passes
        return {
            "ingest.bytes_read": float(self.bytes_read),
            "ingest.bytes_written": float(len(payload)),
            "fit.levels": tracer.levels / tracer.passes,
            "fit.accept_ratio": tracer.fitted / files if files else 0.0,
        }


class VerifyWorkload:
    """``qrotor verify --max-dim N -o OUT``; it has no generated input, so
    the seed does not change it."""

    def __init__(self, max_dim: int):
        self.max_dim = max_dim

    def prepare(self, work: Path, seed: int) -> None:
        from qrotor import cli

        self.expected = check.expected_verify_lines(
            self.max_dim, [n for n, _ in cli.BP_CHECKS], [n for n, _ in cli.IRREP_CHECKS], cli.VERIFY_SPINS
        )
        self.ops = len(self.expected)

    def argv(self, output: Path) -> list[str]:
        return ["verify", "--max-dim", str(self.max_dim), "-o", str(output)]

    def check(self, payload: bytes) -> tuple[int, int]:
        return check.check_verify(payload, self.expected)

    def counters(self, tracer, stats, payload: bytes) -> dict[str, float]:
        import spans

        flops, matrix_bytes = spans.dense_counts(tracer)
        return {"bp_space.flops_computed": flops, "bp_space.matrix_bytes_computed": matrix_bytes}


# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    "table-10k": lambda: TableWorkload(10_000, 3, 12, as_json=False),
    "json-long": lambda: TableWorkload(1_000, 40, 80, as_json=True),
    "verify-1001": lambda: VerifyWorkload(1001),
}


def _blas_threads() -> int | None:
    """OpenBLAS's own thread count, from the library numpy loaded."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line and line.rstrip().endswith(".so")}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def machine() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as info:
        for line in info:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "cpu": cpu,
    }


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args: argparse.Namespace, spec: dict, work: Path) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    workload = WORKLOADS[args.workload]()
    work.mkdir(parents=True)
    workload.prepare(work, args.seed)
    out, err, version_out = work / "stdout", work / "stderr", work / "version"
    report, traced_report = work / "report", work / "traced-report"

    tracer = None
    if args.trace:
        import spans

        # The benchmark's own objects (the reference corpus) are moved out of
        # the collector's reach, so the traced passes do not pay to scan them.
        gc.collect()
        gc.freeze()
        # A first pass fills caches and finishes lazy imports; its spans are dropped.
        spans.traced_main(spans.Tracer(), workload.argv(traced_report))
        tracer = spans.Tracer()

    attempted = failed = 0
    walls, cpus, rss, setups = [], [], [], []

    def record(exit_code: int, output: Path) -> bytes:
        """Check one invocation's output and count its operations; a wrong
        exit code or a missing output fails them all."""
        nonlocal attempted, failed
        payload = output.read_bytes() if exit_code == 0 and output.exists() else None
        output.unlink(missing_ok=True)
        result = (workload.ops, workload.ops) if payload is None else workload.check(payload)
        attempted += result[0]
        failed += result[1]
        return payload or b""

    spawn(["--version"], version_out, err, deadline)
    spawn(workload.argv(report), out, err, deadline)
    stop = time.monotonic() + args.seconds
    while True:
        setup = spawn(["--version"], version_out, err, deadline)
        if setup.exit_code != 0 or not version_out.read_text(encoding="utf-8").startswith("qrotor "):
            attempted, failed = attempted + 1, failed + 1
        setups.append(setup.wall_s)

        sample = spawn(workload.argv(report), out, err, deadline)
        record(sample.exit_code, report)
        walls.append(sample.wall_s)
        cpus.append(sample.cpu_s)
        rss.append(sample.rss_mb)

        if tracer is not None:
            traced_payload = record(spans.traced_main(tracer, workload.argv(traced_report)), traced_report)
        if time.monotonic() >= stop or time.monotonic() >= deadline:
            break

    # Means, not medians: the host's speed drifts and flips between levels
    # every few seconds, and a run's median jumps between those levels
    # while its mean averages over them (see README.md).
    wall_s = statistics.fmean(walls)
    setup_s = statistics.fmean(setups)
    print(f"workload {args.workload}  seed {args.seed}  {workload.ops} operations per invocation  "
          f"{len(walls)} invocations")
    print(f"machine {json.dumps(machine())}")

    if tracer is None:
        metrics = {
            "wall_s": wall_s,
            "items_per_s": workload.ops / wall_s,
            "cpu_s": statistics.fmean(cpus),
            "peak_rss_mb": statistics.fmean(rss),
            "setup_s": setup_s,
        }
        declared = spec["end_to_end"]
        for name, values in (("wall_s", walls), ("cpu_s", cpus), ("peak_rss_mb", rss), ("setup_s", setups)):
            print(f"{name} samples: median {statistics.median(values):.4f}  "
                  f"all {' '.join(f'{v:.4f}' for v in values)}")
        counts = f"mean of {len(walls)}"
    else:
        import spans

        stats = spans.SpanStats(tracer)
        metrics = spans.layer_metrics(stats, wall_s, setup_s)
        metrics.update(workload.counters(tracer, stats, traced_payload))
        if metrics.get("fit.levels"):
            fit_self = metrics.get("fit.fit_A.q.self_s", 0.0) + metrics.get("fit.fit_A.cl.self_s", 0.0)
            metrics["fit.us_per_level"] = 1e6 * fit_self / metrics["fit.levels"]
        WORK.mkdir(exist_ok=True)
        tracer.dump(WORK / f"trace-{args.workload}.tsv")
        total = sum(stats.layer_self_s.values())
        shares = {layer: round(value / total, 4) for layer, value in stats.layer_self_s.items()}
        print(f"layer shares of traced self time {json.dumps(shares)}")
        declared = spec["per_layer"]
        counts = f"{stats.passes} traced passes"

    for m in declared:
        print(f"{m['name']:<44} {metrics.get(m['name'], 0.0):.6g} {m['unit']}  ({counts})")
    for name in sorted(set(metrics) - {m["name"] for m in declared}):
        print(f"{name:<44} {metrics[name]:.6g}  (not in BENCHMARK.json)")
    print(f"{'failed_ratio':<44} {failed / attempted if attempted else 1.0:.6g} fraction  ({failed}/{attempted})")
    # A declared per-layer name absent here belongs to a span this workload
    # never enters, such as a check the CLI no longer runs: it did no work.
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]} for m in declared},
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "qrotor" / "__init__.py").is_file():
        print(f"bench: no program to measure: {SRC / 'qrotor'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        result = run(args, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
