"""The q-rotor model: space-size rule and band energy formula.

A rotational band fixes the deformation a priori: the embedding space must
be just large enough to contain the multiplets of every observed level,

    dim = sum over observed j of (2j+1),  bumped to the next odd number,

and tau = 2*pi/dim.  Level energies are then A*[j][j+1] with a single
inertia parameter A in keV.  Spins are stored as twice-spin integers, int64
under the cap ``qnum.MAX_SPIN``, so half-integer bands need no fractional
arithmetic.  The band reader turns each decimal spin into one with
``qnum.on_grid`` as it reads it; the band rules still refuse a raw
twice-spin past the cap.  ``Bands`` is the one level-column type: the band
rules (``band_faults``), the tau rule (``space_dims``, one odd dimension
per band, which cannot fail) and the fit kernel each run over its columns,
along the last axis, as numpy passes; one band is their one-item case.  A
batch holds no ``BandData`` of its own; indexing it builds one.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .qnum import MAX_SPIN, QParameter, RegimeError, casimir_eigenvalue, in_regime, twice_spin
from .reader import BandError

__all__ = [
    "BandError",
    "BandData",
    "Bands",
    "band_faults",
    "twice_spin",
    "spin_str",
    "space_size",
    "space_dims",
    "q_parameter_from_band",
    "energy",
]


def spin_str(twoj: int) -> str:
    """Decimal text for a twice-spin integer: 4 -> '2', 15 -> '7.5'."""
    if twoj % 2 == 0:
        return str(twoj // 2)
    return f"{twoj / 2:.1f}"


@dataclass(frozen=True, init=False, repr=False)
class BandData:
    """One named rotational band: ordered (twice-spin, energy keV) levels.

    Levels must be at least three, with nonnegative spins up to ``MAX_SPIN``
    increasing by a constant step, a head energy >= 0, and finite energies
    strictly increasing with spin.  ``band_faults`` is the one place those
    rules are checked, over a whole batch of bands; building a BandData from
    a level list is its one-band case.  It stores the values it checked, int
    twice-spins (TypeError for a non-integer) and float energies, as a spin
    column and an energy column; ``levels`` pairs them up when read.
    """

    name: str
    _twoj: tuple[int, ...]
    energies: tuple[float, ...]

    def __init__(self, name: str, levels):
        twoj, energies = zip(*levels) if levels else ((), ())
        twoj, energies = tuple(map(operator.index, twoj)), tuple(map(float, energies))
        # Past the cap, any twice-spin breaks the same rule, so one that fits int64 stands in.
        capped = np.array([t if abs(t) <= 2 * MAX_SPIN else 2 * MAX_SPIN + 1 for t in twoj], dtype=np.int64)
        fault = band_faults([name], capped, np.array(energies, dtype=float), np.array([len(twoj)]))
        if fault:
            raise fault[0]
        vars(self).update(name=name, _twoj=twoj, energies=energies)

    @classmethod
    def _checked(cls, name: str, twoj: tuple[int, ...], energies: tuple[float, ...]) -> "BandData":
        """A band whose levels ``band_faults`` has already passed."""
        band = object.__new__(cls)
        vars(band).update(name=name, _twoj=twoj, energies=energies)
        return band

    def __repr__(self) -> str:
        return f"BandData(name={self.name!r}, levels={self.levels!r})"

    @classmethod
    def from_levels(cls, name: str, levels) -> "BandData":
        """Build from (decimal spin, energy keV) pairs."""
        return cls(name=name, levels=tuple((twice_spin(j), float(e)) for j, e in levels))

    @property
    def levels(self) -> tuple[tuple[int, float], ...]:
        return tuple(zip(self._twoj, self.energies))

    @property
    def j_min(self) -> float:
        return self._twoj[0] / 2

    @property
    def j_max(self) -> float:
        return self._twoj[-1] / 2

    @property
    def twostep(self) -> int:
        """Twice the spin step, from the first two levels."""
        return self._twoj[1] - self._twoj[0]

    @property
    def step(self) -> float:
        return self.twostep / 2

    @property
    def spins(self) -> tuple[float, ...]:
        return tuple(twoj / 2 for twoj in self._twoj)


class Bands(Sequence):
    """The validated bands of one batch as flat level columns: names, int64
    twice-spins ``twoj``, spins ``j``, energies ``e`` and head-referenced
    energies ``de``.  Band k owns the slice ``starts[k]:starts[k] + counts[k]``
    of every column; indexing builds its ``BandData`` from that slice."""

    def __init__(self, names: list[str], twoj: np.ndarray, e: np.ndarray, counts: np.ndarray):
        self.names = names
        self.twoj = np.asarray(twoj, dtype=np.int64)
        self.j = self.twoj / 2
        self.e = e
        self.counts = counts
        self.starts = np.cumsum(counts) - counts
        self.de = e - self.head(e)

    @classmethod
    def of(cls, bands: Sequence[BandData]) -> "Bands":
        """``bands`` as a batch, with its columns gathered from each band."""
        if isinstance(bands, Bands):
            return bands
        counts = np.fromiter((len(band.energies) for band in bands), np.intp, len(bands))
        n = int(counts.sum())
        twoj = np.fromiter(chain.from_iterable(band._twoj for band in bands), np.int64, n)
        e = np.fromiter(chain.from_iterable(band.energies for band in bands), float, n)
        return cls([band.name for band in bands], twoj, e, counts)

    def __len__(self) -> int:
        return len(self.names)

    def __getitem__(self, index: int) -> BandData:
        k = range(len(self.names))[index]  # negative from the end, IndexError past either end
        lo = int(self.starts[k])
        hi = lo + int(self.counts[k])
        return BandData._checked(self.names[k], tuple(self.twoj[lo:hi].tolist()), tuple(self.e[lo:hi].tolist()))

    def head(self, column: np.ndarray) -> np.ndarray:
        """Each band's first value of ``column`` along the last axis, repeated over its levels."""
        return np.repeat(column[..., self.starts], self.counts, axis=-1)

    def sums(self, column: np.ndarray) -> np.ndarray:
        """Per-band sums of a level column, along the last axis."""
        return np.add.reduceat(column, self.starts, axis=-1)


def _level_fault(rule: int, twoj: int, prev_twoj: int, twostep: int, e: float) -> str:
    """The message of level rule ``rule`` (numbered from 1 in the order
    ``band_faults`` checks them) for a level that breaks it."""
    return (
        f"spin exceeds {MAX_SPIN}",
        f"spins must be nonnegative, got {spin_str(twoj)}",
        f"lowest level energy must be >= 0, got {e}",
        f"duplicate spin {spin_str(twoj)}",
        "spins must be strictly increasing",
        f"inconsistent spin step: {(twoj - prev_twoj) / 2} after {twostep / 2}",
        "energies must be strictly increasing",
        f"energy must be finite, got {e}",
    )[rule - 1]


def band_faults(names: Sequence[str], twoj: np.ndarray, e: np.ndarray, counts: np.ndarray) -> dict[int, BandError]:
    """The band rules over a batch of level columns, band k owning the
    ``counts[k]`` levels after those of the bands before it: the first fault
    of each failing band, by band index.

    A band's name must be a ``str`` of one nonempty line without outer
    whitespace, as the band reader reads it back.  Then each level is
    checked against its predecessor, so the error names the level whose own
    spin or energy breaks a rule, and within a level the rules go in
    ``_level_fault``'s order.  The level count comes last, so a fault in a
    two-level band still names its level.  ``twoj`` is int64.
    """
    starts = np.cumsum(counts) - counts
    head = np.zeros(len(e), dtype=bool)
    head[starts[counts > 0]] = True
    later = ~head
    prev_twoj, prev_e = np.roll(twoj, 1), np.roll(e, 1)
    pairs = counts > 1
    twostep = np.zeros(len(counts), dtype=twoj.dtype)
    twostep[pairs] = twoj[starts[pairs] + 1] - twoj[starts[pairs]]
    broken = [
        np.abs(twoj) > 2 * MAX_SPIN,
        head & (twoj < 0),
        head & (e < 0),
        later & (twoj == prev_twoj),
        later & (twoj < prev_twoj),
        later & (twoj - prev_twoj != np.repeat(twostep, counts)),
        later & (e <= prev_e),
        ~np.isfinite(e),
    ]
    rule = np.select(broken, list(range(1, len(broken) + 1)), 0)
    failing = np.append(np.flatnonzero(rule), len(e))
    first = failing[np.searchsorted(failing, starts)]  # each band's first failing level, if below its end
    at_fault = (first < starts + counts) | (counts < 3)
    faults = {k: BandError(f"band name must be one nonempty line without outer whitespace, got {name!r}")
              for k, name in enumerate(names)
              if not isinstance(name, str) or not name or "\n" in name or name != name.strip()}
    for k in np.flatnonzero(at_fault).tolist():
        if k in faults:
            continue
        at = int(first[k])
        if at < starts[k] + counts[k]:
            message = _level_fault(int(rule[at]), int(twoj[at]), int(prev_twoj[at]), int(twostep[k]), float(e[at]))
            faults[k] = BandError(message, at - int(starts[k]))
        else:
            faults[k] = BandError(f"band needs at least 3 levels, got {int(counts[k])}")
    return faults


def _series_dim(head, step, count):
    """Sum of (2j+1) over ``count`` twice-spins from ``head`` by ``step``,
    bumped to the next odd number if even; elementwise over columns.  Valid
    bands have twice-spins up to 2**31, so every term stays below 2**63."""
    return (count * (head + 1) + step * count * (count - 1) // 2) | 1


def space_size(j_min: float, j_max: float, step: float) -> int:
    """Odd embedding dimension from a spin range: sum of (2j+1), bumped by
    one if the sum comes out even."""
    a, b, s = twice_spin(j_min), twice_spin(j_max), twice_spin(step)
    if a < 0:
        raise ValueError(f"j_min must be nonnegative, got {j_min}")
    if s <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if b < a or (b - a) % s != 0:
        raise ValueError(f"spin range {j_min}..{j_max} is not aligned with step {step}")
    return _series_dim(a, s, (b - a) // s + 1)


def space_dims(bands: Sequence[BandData]) -> np.ndarray:
    """The tau rule over a batch: per band, the odd dimension fixed by its
    own spin content, from the arithmetic series of head twice-spin, step
    and count, as one int64 column.  It cannot fail: a valid band's
    dimension is odd, at least 7 (spins 0, 1/2, 1 sum to 6) and at most
    (2**31 + 1)(2**30 + 1) < 2**62, the sum over every distinct twice-spin
    from 0 to the cap's 2**31, which is ``QParameter``'s bound."""
    bands = Bands.of(bands)
    head = bands.twoj[bands.starts]
    return _series_dim(head, bands.twoj[bands.starts + 1] - head, bands.counts)


def q_parameter_from_band(band: BandData) -> QParameter:
    """Deformation parameter fixed by the band's own spin content: the
    one-band case of ``space_dims``."""
    return QParameter(int(space_dims([band])[0]))


def _check_inertia(A: float) -> None:
    """ValueError unless the inertia parameter A is finite and positive."""
    if not (0.0 < A < math.inf):
        raise ValueError(f"inertia parameter A must be positive and finite, got {A}")


def energy(j: float, A: float, qp: QParameter | None) -> float:
    """Level energy A*[j][j+1] in keV; undeformed A*j*(j+1) for ``qp=None``.

    Requires a finite A > 0, a spin ``casimir_eigenvalue`` accepts and, in
    the deformed case, tau*(j+1) < pi so the band stays in the monotone
    regime.  Raises ValueError when the energy overflows.
    """
    _check_inertia(A)
    eigenvalue = casimir_eigenvalue(j, qp)
    if qp is not None and not in_regime(qp.tau, j):
        raise RegimeError(
            f"tau*(j+1) = {qp.tau * (j + 1.0):.4f} >= pi at j={j}, dim={qp.dim}; "
            "energies would leave the monotone regime"
        )
    value = A * eigenvalue
    if not math.isfinite(value):
        raise ValueError(f"energy at j={j} with A={A} overflows")
    return value
