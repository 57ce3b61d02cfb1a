"""In-process traced runs of ``qrotor table`` and ``qrotor verify``.

A traced pass calls ``cli.main`` itself.  For the pass, the names ``cli.py``
calls through its module namespace are swapped for wrappers that record a
span around each call: name, start, end, parent span, item (band index, or
``l`` for verify) and pass number.  The CLI's own order, sweep, checks and
tolerances therefore apply, and nothing here has to be kept in step with
them.  Spans stay in memory and are written out once, at the end of the run.

A span's name starts with the module that owns the call; that prefix is its
layer.  ``qnum`` has no span of its own inside fits and irreps, since it is
reached only through ``fit`` and ``suq2``.
"""

from __future__ import annotations

import math
import time
import types
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from qrotor import cli

clock = time.perf_counter

# Complex D x D matrix products per call of each dense span.
DENSE_PRODUCTS = {
    "bp_space.build_space": 1,
    "bp_space.unitarity": 2,
    "bp_space.angle-orthonormality": 1,
    "bp_space.angle-completeness": 1,
}
FLOPS_PER_COMPLEX_MAC = 8
COMPLEX_BYTES = 16
# exp_iphi, q_jz and angle_basis.
MATRICES_PER_SPACE = 3


class Tracer:
    """Span store: parallel typed arrays, one row per span, and a stack of
    the spans still open."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.pass_no = array("i")
        self.start = array("d")
        self.end = array("d")
        self.passes = 0
        self.items = 0
        self.stack: list[int] = []
        self.levels = 0
        self.fitted = 0

    def id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int, item: int | None = None) -> int:
        """Open a span under the innermost open one; without an item of its
        own it takes its parent's."""
        parent = self.stack[-1] if self.stack else -1
        if item is None:
            item = self.item[parent] if parent >= 0 else -1
        self.name.append(nid)
        self.parent.append(parent)
        self.item.append(item)
        self.pass_no.append(self.passes)
        self.end.append(math.nan)
        self.start.append(clock())
        self.stack.append(len(self.name) - 1)
        return self.stack[-1]

    def close(self) -> None:
        self.end[self.stack.pop()] = clock()

    def spanned(self, label: str, func, item=None):
        """``func`` with a span named after its module and ``label`` around
        every call; ``item(*args)`` gives the span's item."""
        nid = self.id(f"{func.__module__.rsplit('.', 1)[-1]}.{label}")

        def call(*args, **kwargs):
            self.open(nid, None if item is None else item(*args))
            try:
                return func(*args, **kwargs)
            finally:
                self.close()

        return call

    def next_item(self, *_args) -> int:
        self.items += 1
        return self.items - 1

    def end_pass(self) -> None:
        self.passes += 1
        self.items = 0

    def dump(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as out:
            out.write("span\tname\tstart_s\tend_s\tparent\titem\tpass\n")
            t0 = self.start[0] if self.start else 0.0
            for k in range(len(self.name)):
                out.write(
                    f"{k}\t{self.names[self.name[k]]}\t{self.start[k] - t0:.9f}\t{self.end[k] - t0:.9f}\t"
                    f"{self.parent[k]}\t{self.item[k]}\t{self.pass_no[k]}\n"
                )


def _space_l(space, *_args) -> int:
    return (space.dim - 1) // 2


def _irrep_l(irrep) -> int:
    return (irrep.qp.dim - 1) // 2


@contextmanager
def instrumented(tr: Tracer):
    """Swap the names ``cli.py`` calls for span-recording wrappers, and put
    the originals back on exit."""
    names = ("_fit_one", "read_band_file", "fit_A", "q_parameter_from_band", "write_report", "_emit",
             "build_space", "check_shift_power", "QParameter", "build_irrep", "BP_CHECKS", "IRREP_CHECKS")
    saved = {name: getattr(cli, name) for name in names}
    fit_q = tr.spanned("fit_A.q", saved["fit_A"])
    fit_cl = tr.spanned("fit_A.cl", saved["fit_A"])
    band = tr.spanned("band", saved["_fit_one"], item=tr.next_item)

    def fit_A(fit_band, qp):
        tr.levels += len(fit_band.levels)
        return (fit_cl if qp is None else fit_q)(fit_band, qp)

    def _fit_one(*args, **kwargs):
        result = band(*args, **kwargs)
        tr.fitted += 1
        return result

    from_dim = saved["QParameter"].from_dim
    swapped = {
        "_fit_one": _fit_one,
        "read_band_file": tr.spanned("read_band_file", saved["read_band_file"]),
        "fit_A": fit_A,
        "q_parameter_from_band": tr.spanned("q_parameter_from_band", saved["q_parameter_from_band"]),
        "write_report": tr.spanned("write_report", saved["write_report"]),
        "_emit": tr.spanned("emit", saved["_emit"]),
        "build_space": tr.spanned("build_space", saved["build_space"], item=lambda l, *_: int(l)),
        "check_shift_power": tr.spanned("shift-power", saved["check_shift_power"], item=_space_l),
        "QParameter": types.SimpleNamespace(
            from_dim=tr.spanned("QParameter.from_dim", from_dim, item=lambda dim, *_: (dim - 1) // 2)),
        "build_irrep": tr.spanned("build_irrep", saved["build_irrep"], item=lambda _j, qp: (qp.dim - 1) // 2),
        "BP_CHECKS": tuple((name, tr.spanned(name, check, item=_space_l)) for name, check in saved["BP_CHECKS"]),
        "IRREP_CHECKS": tuple((name, tr.spanned(name, check, item=_irrep_l)) for name, check in saved["IRREP_CHECKS"]),
    }
    for name, value in swapped.items():
        setattr(cli, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(cli, name, value)


def traced_main(tr: Tracer, argv: list[str]) -> int:
    """One ``qrotor argv`` in this process, traced; returns its exit code,
    as a spawned run would."""
    with instrumented(tr):
        tr.open(tr.id(f"cli.{argv[0]}"))
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        finally:
            tr.close()
            tr.end_pass()


class SpanStats:
    """Per-name self time (median over passes), calls per pass and
    per-call duration percentiles; per-layer self time."""

    def __init__(self, tracer: Tracer):
        names = np.frombuffer(tracer.name, dtype=np.int32)
        parent = np.frombuffer(tracer.parent, dtype=np.int32)
        passes = np.frombuffer(tracer.pass_no, dtype=np.int32)
        dur = np.frombuffer(tracer.end, dtype=float) - np.frombuffer(tracer.start, dtype=float)
        self_t = dur.copy()
        child = parent >= 0
        np.subtract.at(self_t, parent[child], dur[child])

        n_names, n_passes = len(tracer.names), tracer.passes
        per_pass = np.bincount(names * n_passes + passes, weights=self_t,
                               minlength=n_names * n_passes).reshape(n_names, n_passes)
        self.passes = n_passes
        self.self_s = dict(zip(tracer.names, np.median(per_pass, axis=1)))
        self.calls = dict(zip(tracer.names, np.bincount(names, minlength=n_names) / n_passes))
        self.durations_us = {name: dur[names == k] * 1e6 for k, name in enumerate(tracer.names)}

        layers = sorted({name.split(".")[0] for name in tracer.names})
        layer_of = np.array([layers.index(name.split(".")[0]) for name in tracer.names])
        layer_pass = np.zeros((len(layers), n_passes))
        np.add.at(layer_pass, layer_of, per_pass)
        self.layer_self_s = dict(zip(layers, np.median(layer_pass, axis=1)))
        roots = ~child
        self.pass_total_s = float(np.median(np.bincount(passes[roots], weights=dur[roots], minlength=n_passes)))

    def percentile_us(self, name: str, q: float) -> float | None:
        """The q-th percentile of per-call time, or None unless at least ten
        calls lie beyond it."""
        samples = self.durations_us.get(name)
        if samples is None or len(samples) * (100.0 - q) / 100.0 < 10:
            return None
        return float(np.percentile(samples, q))


def dense_counts(tr: Tracer) -> tuple[float, float]:
    """Flops of the dense O(D^3) products and bytes of the operator matrices
    per traced ``verify`` pass, computed from the D of each span recorded.
    ``numpy.linalg.matrix_power`` to the D-th power squares and multiplies
    by binary exponentiation."""
    flops = matrix_bytes = 0.0
    for k, nid in enumerate(tr.name):
        name, d = tr.names[nid], 2 * tr.item[k] + 1
        products = DENSE_PRODUCTS.get(name, 0)
        if name == "bp_space.shift-power":
            products = d.bit_length() - 1 + bin(d).count("1") - 1
        flops += products * FLOPS_PER_COMPLEX_MAC * float(d) ** 3
        if name == "bp_space.build_space":
            matrix_bytes += MATRICES_PER_SPACE * COMPLEX_BYTES * float(d) ** 2
    return flops / tr.passes, matrix_bytes / tr.passes


def layer_metrics(stats: SpanStats, wall_s: float, setup_s: float) -> dict[str, float]:
    """Self time, calls and per-call percentiles of every span, each layer's
    self time, ``cli.self_s`` and ``trace.overhead_s``.

    ``cli.self_s`` is the untraced CLI time (wall minus set-up) left after
    every other layer's traced self time.
    """
    metrics = {}
    for name, value in stats.self_s.items():
        metrics[f"{name}.self_s"] = float(value)
        metrics[f"{name}.calls"] = float(stats.calls[name])
        for q in (50, 99):
            p = stats.percentile_us(name, q)
            if p is not None:
                metrics[f"{name}.us_p{q}"] = p
    layers = {layer: float(value) for layer, value in stats.layer_self_s.items() if layer != "cli"}
    for layer, value in layers.items():
        metrics[f"{layer}.self_s"] = value
    untraced = wall_s - setup_s
    metrics["cli.self_s"] = untraced - sum(layers.values())
    metrics["trace.overhead_s"] = stats.pass_total_s - untraced
    return metrics
