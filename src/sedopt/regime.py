"""Continuous-time finite-regime Markov chain of river flow.

Regimes are indexed from 0. A chain is described by the discharge level of
each regime and the matrix of switching rates between distinct regimes; the
generator diagonal is always derived as the negative row sum and never
stored.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass
from datetime import datetime
from functools import cached_property
from pathlib import Path

import numpy as np
from numpy.typing import NDArray
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import InputError, StructureError

__all__ = [
    "RegimeChain",
    "DischargeSeries",
    "RegimePath",
    "bin_discharge",
    "estimate_chain",
    "stationary_distribution",
    "sample_regime_path",
    "check_rates",
]

SECONDS_PER_DAY = 86400.0


def _read_only(a: NDArray) -> NDArray:
    a.flags.writeable = False  # cached and shared by every caller
    return a


def check_rates(rates, count: int) -> NDArray[np.float64]:
    """Per-regime drain rates as a float array of shape (count,).

    Raises :class:`StructureError` on a wrong shape and :class:`InputError`
    on a non-finite or negative rate.
    """
    rates = np.asarray(rates, dtype=float)
    if rates.shape != (count,):
        raise StructureError(f"rates shape {rates.shape} != ({count},)")
    if not np.all(np.isfinite(rates)):
        raise InputError("transport rates must be finite")
    if rates.size and rates.min() < 0:
        raise InputError("transport rates must be >= 0")
    return rates


@dataclass(frozen=True)
class RegimeChain:
    """Flow-regime Markov chain: discharge levels plus switching rates.

    Parameters
    ----------
    discharges : (I,) array
        Discharge q_i in m^3/s per regime, strictly increasing, all > 0.
    rates : (I, I) array
        Off-diagonal switching rates in 1/day (>= 0). Diagonal entries must
        be zero; the generator diagonal is derived, not stored.
    """

    discharges: NDArray[np.float64]
    rates: NDArray[np.float64]

    def __post_init__(self):
        q = np.asarray(self.discharges, dtype=float)
        nu = np.asarray(self.rates, dtype=float)
        object.__setattr__(self, "discharges", q)
        object.__setattr__(self, "rates", nu)
        if q.ndim != 1 or q.size < 1:
            raise InputError("discharges must be a non-empty 1-d array")
        if not np.all(q > 0):
            raise InputError("discharges must be positive")
        if q.size > 1 and not np.all(np.diff(q) > 0):
            raise InputError("discharges must be strictly increasing")
        if nu.shape != (q.size, q.size):
            raise InputError(
                f"rates must be square of size {q.size}, got {nu.shape}"
            )
        if not np.all(np.isfinite(nu)):
            raise InputError("switching rates must be finite")
        if np.any(np.diag(nu) != 0.0):
            raise InputError("rates diagonal must be zero (derived, not stored)")
        off = nu[~np.eye(q.size, dtype=bool)]
        if off.size and off.min() < 0:
            raise InputError("off-diagonal switching rates must be >= 0")

    @property
    def count(self) -> int:
        return self.discharges.size

    @cached_property
    def out_rates(self) -> NDArray[np.float64]:
        """Total switching rate out of each regime (0 for an absorbing one)."""
        return _read_only(self.rates.sum(axis=1))

    @cached_property
    def jump_table(self) -> NDArray[np.float64]:
        """Cumulative embedded-chain probabilities, one row per regime.

        Each row is divided by its own last cumulative sum, so every entry
        from the last positive rate on is exactly 1: a zero-probability
        target, the diagonal included, cannot be reached by rounding.
        Absorbing rows are all 1; no jump is ever drawn from them.
        """
        cum = np.cumsum(self.rates, axis=1)
        total = cum[:, -1:]
        return _read_only(np.divide(cum, total, out=np.ones_like(cum), where=total > 0))

    def jump(self, regimes, u):
        """Regimes entered by embedded-chain jumps from `regimes`, one
        uniform u in [0, 1) per jump."""
        u = np.asarray(u, dtype=float)
        return np.count_nonzero(u[..., None] >= self.jump_table[regimes], axis=-1)

    def generator(self) -> NDArray[np.float64]:
        """Generator matrix Q: off-diagonal rates, diagonal -row sums."""
        q = self.rates.copy()
        np.fill_diagonal(q, -self.out_rates)
        return q

    def check_irreducible(self) -> None:
        """Raise :class:`StructureError` naming regimes outside the largest
        strongly connected component of the positive-rate graph."""
        if self.count == 1:
            return
        graph = csr_matrix((self.rates > 0).astype(np.int8))
        n_comp, labels = connected_components(graph, directed=True, connection="strong")
        if n_comp == 1:
            return
        sizes = np.bincount(labels, minlength=n_comp)
        main = int(np.argmax(sizes))
        isolated = np.flatnonzero(labels != main).tolist()
        raise StructureError(
            f"chain is reducible: regimes {isolated} are not mutually "
            "reachable with the rest"
        )

    def closed_classes(self) -> list[list[int]]:
        """Communicating classes that no positive switching rate leaves."""
        n_comp, labels = connected_components(csr_matrix(self.rates), connection="strong")
        src, dst = np.nonzero(self.rates)
        leaky = set(labels[src][labels[src] != labels[dst]].tolist())
        return [np.flatnonzero(labels == c).tolist() for c in range(n_comp) if c not in leaky]

    def to_dict(self) -> dict:
        return {
            "discharges": self.discharges.tolist(),
            "rates": self.rates.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RegimeChain":
        return cls(
            discharges=np.asarray(data["discharges"], dtype=float),
            rates=np.asarray(data["rates"], dtype=float),
        )

    def to_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=1))

    @classmethod
    def from_json(cls, path: str | Path) -> "RegimeChain":
        return cls.from_dict(json.loads(Path(path).read_text()))


@dataclass(frozen=True)
class DischargeSeries:
    """Observed discharge record: (day, m^3/s) samples, increasing in time."""

    times: NDArray[np.float64]
    discharges: NDArray[np.float64]

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        q = np.asarray(self.discharges, dtype=float)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "discharges", q)
        if t.ndim != 1 or t.shape != q.shape:
            raise InputError("times and discharges must be 1-d arrays of equal length")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise InputError("timestamps must be strictly increasing")
        if q.size and q.min() < 0:
            raise InputError("discharges must be >= 0")

    def __len__(self) -> int:
        return self.times.size

    @classmethod
    def from_csv(cls, path: str | Path) -> "DischargeSeries":
        """Read a `timestamp,discharge_m3s` CSV.

        Timestamps are ISO-8601 (detected by a '-' in the field) or plain
        fractional day numbers. ISO timestamps are converted to fractional
        days since the first sample.
        """
        times: list[float] = []
        flows: list[float] = []
        origin: datetime | None = None
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or "timestamp" not in reader.fieldnames \
                    or "discharge_m3s" not in reader.fieldnames:
                raise InputError(
                    f"{path}: expected header 'timestamp,discharge_m3s'"
                )
            for row in reader:
                stamp = row["timestamp"].strip()
                if "-" in stamp:
                    when = datetime.fromisoformat(stamp)
                    if origin is None:
                        origin = when
                    times.append((when - origin).total_seconds() / SECONDS_PER_DAY)
                else:
                    times.append(float(stamp))
                flows.append(float(row["discharge_m3s"]))
        if not times:
            raise InputError(f"{path}: empty series")
        return cls(np.asarray(times), np.asarray(flows))


@dataclass(frozen=True)
class RegimePath:
    """A realized regime trajectory on [0, horizon].

    ``start_times[k]`` is when segment k begins (first one at 0), and
    ``regimes[k]`` is the regime held until the next start time (or the
    horizon for the last segment).
    """

    start_times: NDArray[np.float64]
    regimes: NDArray[np.int64]
    horizon: float
    count: int = 0  # regimes of the generating chain; derived if omitted

    def __post_init__(self):
        t = np.asarray(self.start_times, dtype=float)
        r = np.asarray(self.regimes, dtype=np.int64)
        object.__setattr__(self, "start_times", t)
        object.__setattr__(self, "regimes", r)
        if t.ndim != 1 or t.shape != r.shape or t.size == 0:
            raise InputError("start_times and regimes must be 1-d, equal length, non-empty")
        if t[0] != 0.0:
            raise InputError("first segment must start at time 0")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise InputError("segment start times must be strictly increasing")
        if t.size > 1 and np.any(r[1:] == r[:-1]):
            raise InputError("consecutive segments must hold different regimes")
        if self.horizon <= t[-1] and t.size > 1:
            raise InputError("horizon must exceed the last segment start")
        if self.horizon <= 0:
            raise InputError("horizon must be positive")
        n = self.count if self.count else int(r.max()) + 1
        object.__setattr__(self, "count", n)
        if r.min() < 0 or r.max() >= n:
            raise InputError("regime indices out of range")

    def spans(self):
        """Yield (t_start, t_end, regime) covering [0, horizon]."""
        ends = np.append(self.start_times[1:], self.horizon)
        for t0, t1, idx in zip(self.start_times, ends, self.regimes):
            yield float(t0), float(t1), int(idx)

    def regime_at(self, t: float) -> int:
        if not 0 <= t <= self.horizon:
            raise InputError(f"t={t} outside [0, {self.horizon}]")
        k = int(np.searchsorted(self.start_times, t, side="right")) - 1
        return int(self.regimes[k])

    def occupancy(self) -> NDArray[np.float64]:
        """Total time spent per regime over [0, horizon], in days."""
        occ = np.zeros(self.count)
        for t0, t1, idx in self.spans():
            occ[idx] += t1 - t0
        return occ


def bin_discharge(q: float, width: float, count: int) -> int:
    """Map a discharge to its regime index: floor(q / width), clamped.

    Bin edges sit at multiples of `width`, so centers are (i + 0.5) * width;
    anything above the top edge is clamped to the top regime.
    """
    if width <= 0:
        raise InputError("bin width must be positive")
    if count < 1:
        raise InputError("regime count must be >= 1")
    if q < 0:
        raise InputError("discharge must be >= 0")
    return min(int(q / width), count - 1)


def _bin_indices(q: NDArray[np.float64], width: float, count: int) -> NDArray[np.int64]:
    if q.size and q.min() < 0:
        raise InputError("discharge must be >= 0")
    return np.minimum((q / width).astype(np.int64), count - 1)


def estimate_chain(series: DischargeSeries, width: float, count: int) -> RegimeChain:
    """Estimate switching rates by transition counting on a binned record.

    The off-diagonal rate i -> j is (number of observed i -> j transitions
    between consecutive samples) / (total occupancy time of regime i). Only
    intervals with a successor sample contribute occupancy, so a perfectly
    alternating hourly record yields exactly 24/day. A jump across several
    bins between consecutive samples counts as one direct transition, since
    the sampling cannot resolve intermediate regimes. Regimes never visited
    keep zero outgoing rates and are reported via a warning.
    """
    if width <= 0:
        raise InputError("bin width must be positive")
    if count < 1:
        raise InputError("regime count must be >= 1")
    if len(series) < 2:
        raise InputError("need at least 2 samples to estimate rates")
    bins = _bin_indices(series.discharges, width, count)
    dt = np.diff(series.times)

    occupancy = np.bincount(bins[:-1], weights=dt, minlength=count)
    moved = bins[1:] != bins[:-1]
    counts = np.zeros((count, count))
    np.add.at(counts, (bins[:-1][moved], bins[1:][moved]), 1.0)

    rates = np.zeros_like(counts)
    visited = occupancy > 0
    rates[visited] = counts[visited] / occupancy[visited, None]
    np.fill_diagonal(rates, 0.0)

    unvisited = np.flatnonzero(~visited)
    if unvisited.size:
        warnings.warn(
            f"regimes never visited in the record: {unvisited.tolist()}; "
            "their outgoing rates are zero",
            stacklevel=2,
        )
    centers = (np.arange(count) + 0.5) * width
    return RegimeChain(discharges=centers, rates=rates)


def stationary_distribution(chain: RegimeChain) -> NDArray[np.float64]:
    """Solve p Q = 0, sum(p) = 1 for the unique stationary distribution.

    Least squares on the transposed balance equations with the
    normalization row appended. Requires an irreducible chain.
    """
    chain.check_irreducible()
    n = chain.count
    if n == 1:
        return np.ones(1)
    system = np.vstack([chain.generator().T, np.ones(n)])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    p, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    return p


def sample_regime_path(
    chain: RegimeChain,
    initial: int,
    horizon: float,
    seed: int | np.random.Generator | None = None,
) -> RegimePath:
    """Simulate the chain on [0, horizon] (exponential holds, embedded jumps).

    Holding times are exponential(1) / out-rate and each jump takes one
    uniform through `RegimeChain.jump`. An absorbing regime (zero outgoing
    rate) yields a path that simply stays there; that is a valid
    single-segment result, not an error.
    """
    if horizon <= 0:
        raise InputError("horizon must be positive")
    if not 0 <= initial < chain.count:
        raise InputError(f"initial regime {initial} out of range")
    rng = np.random.default_rng(seed)
    out_rates = chain.out_rates

    times = [0.0]
    visited = [int(initial)]
    t, i = 0.0, int(initial)
    while True:
        rate = out_rates[i]
        if rate <= 0.0:
            break
        t += rng.exponential() / rate
        if t >= horizon:
            break
        i = int(chain.jump(i, rng.random()))
        times.append(t)
        visited.append(i)
    return RegimePath(
        start_times=np.asarray(times),
        regimes=np.asarray(visited, dtype=np.int64),
        horizon=float(horizon),
        count=chain.count,
    )
