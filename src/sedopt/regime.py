"""Continuous-time finite-regime Markov chain of river flow.

Regimes are indexed from 0. A chain is described by the discharge level of
each regime and the matrix of switching rates between distinct regimes; the
generator diagonal is always derived as the negative row sum and never
stored.
"""

from __future__ import annotations

import csv
import json
import math
import operator
import reprlib
import types
import typing
import warnings
from bisect import bisect_right
from dataclasses import MISSING, dataclass, fields
from datetime import datetime
from functools import cache, cached_property
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

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
    "check_horizon",
    "check_integer",
    "read_csv_rows",
    "field_hints",
    "read_json_fields",
    "read_json_record",
    "realistic_chain",
    "spawn_streams",
    "write_json_fields",
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


def check_horizon(horizon) -> float:
    """A horizon in days as a float; :class:`InputError` unless finite and > 0."""
    horizon = float(horizon)
    if not 0.0 < horizon < math.inf:  # NaN fails too
        raise InputError(f"horizon must be finite and positive, got {horizon}")
    return horizon


def check_integer(value, what: str, stop: float = math.inf) -> int:
    """A count, or with `stop` a regime index, as an int; :class:`InputError`
    naming `what` unless `operator.index` takes it (no float, not even 2.0,
    and no bool, which it reads as 0 or 1) and 0 <= value < stop."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise InputError(f"{what} must be an integer, got {reprlib.repr(value)}") from None
    if not 0 <= value < stop:
        raise InputError(f"{what} {value} out of range")
    return value


def read_csv_rows(path: str | Path, fields: tuple[str, ...], parse) -> list:
    """`parse(*values)` of each data row of a CSV whose header names `fields`.

    Raises :class:`InputError` naming the file, and the line where there is
    one, on a missing header field, a row short of a field or a value that
    `parse` rejects with ValueError.
    """
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not set(fields) <= set(reader.fieldnames):
            raise InputError(f"{path}: expected header fields {','.join(fields)}")
        for row in reader:
            values = [row[name] for name in fields]
            where = f"{path}, line {reader.line_num}"
            if None in values:
                raise InputError(f"{where}: no {fields[values.index(None)]} field")
            try:
                rows.append(parse(*values))
            except ValueError as exc:
                raise InputError(f"{where}: {exc}") from None
    return rows


@cache
def field_hints(cls) -> types.MappingProxyType:
    """The resolved field annotations of dataclass `cls`, read-only: found
    once per class, as `typing.get_type_hints` evaluates every annotation."""
    return types.MappingProxyType(typing.get_type_hints(cls))


def read_json_fields(path: str | Path, cls) -> dict:
    """The JSON object in `path` as a dict of fields of dataclass `cls`.

    Raises :class:`InputError` naming the file when it cannot be read or
    parsed, holds no object, or has a key or value that no field of `cls`
    fits. Missing keys are left to `cls`.
    """
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise InputError(f"cannot read {path}: {exc}") from None
    if not isinstance(data, dict):
        raise InputError(f"{path} must hold a JSON object")
    hints = field_hints(cls)
    for name, value in data.items():
        if name not in hints:
            raise InputError(f"{path}: unknown key {name!r}")
        if not _fits(hints[name], value):
            raise InputError(f"{path}: key {name!r} has the wrong type: {reprlib.repr(value)}")
    return data


def read_json_record(path: str | Path, cls):
    """Dataclass `cls` built from the JSON object in `path`; an error of
    `read_json_fields`, a missing key of a field with no default or an
    :class:`InputError` of `cls` is an :class:`InputError` naming the file."""
    data = read_json_fields(path, cls)
    missing = [f.name for f in fields(cls) if f.name not in data and f.default is MISSING]
    if missing:
        raise InputError(f"{path}: missing keys {missing}")
    try:
        return cls(**data)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def _fits(hint, value) -> bool:
    """Whether a JSON value has a field's type; ints fit floats when a double
    holds them, and any list fits an array field, whose class checks what
    the list holds."""
    if isinstance(hint, types.UnionType):  # X | None
        return any(_fits(option, value) for option in typing.get_args(hint))
    if typing.get_origin(hint) is np.ndarray:
        return isinstance(value, list)
    if typing.get_origin(hint) is list:
        return isinstance(value, list) and all(_fits(typing.get_args(hint)[0], v) for v in value)
    if isinstance(value, bool) or hint is type(None):  # bools are ints to isinstance
        return hint is type(value)
    if hint is float and isinstance(value, int):
        try:
            float(value)
        except OverflowError:  # no double holds it
            return False
        return True
    return isinstance(value, hint)


def _json_value(value):
    """`value` as plain JSON data: arrays and tuples as lists, and a non-finite
    float as None (null), since RFC 8259 JSON has no NaN or Infinity."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def write_json_fields(path: str | Path, record, drop: tuple[str, ...] = (), **extra) -> None:
    """Write the fields of dataclass `record`, less those named in `drop`,
    then `extra`, to `path` as indented strict JSON: arrays are written as
    lists and non-finite floats as null."""
    data = {f.name: getattr(record, f.name) for f in fields(record) if f.name not in drop}
    text = json.dumps({k: _json_value(v) for k, v in (data | extra).items()}, indent=1,
                      allow_nan=False)
    Path(path).write_text(text + "\n")


@dataclass(frozen=True)
class RegimeChain:
    """Flow-regime Markov chain: discharge levels plus switching rates.

    Parameters
    ----------
    discharges : (I,) array
        Discharge q_i in m^3/s per regime, strictly increasing, finite, > 0.
    rates : (I, I) array
        Off-diagonal switching rates in 1/day (>= 0). Diagonal entries must
        be zero; the generator diagonal is derived, not stored.
    """

    discharges: NDArray[np.float64]
    rates: NDArray[np.float64]

    def __post_init__(self):
        for name in ("discharges", "rates"):
            try:
                a = np.asarray(getattr(self, name))
            except ValueError:  # ragged nesting
                raise InputError(f"{name} must be a rectangular array") from None
            if a.dtype.kind not in "iuf":  # strings, objects and bools fail
                raise InputError(f"{name} must hold numbers only")
            object.__setattr__(self, name, np.asarray(a, dtype=float))
        q, nu = self.discharges, self.rates
        if q.ndim != 1 or q.size < 1:
            raise InputError("discharges must be a non-empty 1-d array")
        if not np.all((q > 0.0) & (q < math.inf)):  # NaN fails too
            raise InputError("discharges must be finite and positive")
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
        with np.errstate(over="ignore"):  # an overflowing total is what is checked
            past = np.flatnonzero(~np.isfinite(nu.sum(axis=1)))
        if past.size:
            raise InputError(f"switching rates out of regimes {past.tolist()} sum past "
                             "the double range")

    @property
    def count(self) -> int:
        return self.discharges.size

    @cached_property
    def out_rates(self) -> NDArray[np.float64]:
        """Total switching rate out of each regime (0 for an absorbing one)."""
        return _read_only(self.rates.sum(axis=1))

    @cached_property
    def jump_rows(self) -> tuple[NDArray[np.int64], NDArray[np.float64]]:
        """Embedded-chain jump rows: per regime, its positive-rate targets in
        ascending order and their cumulative probabilities.

        A row's entries are the cumulative sums of its positive rates divided
        by the last of them, so the last is exactly 1: a zero-probability
        target, the diagonal included, cannot be reached by rounding. Rows
        are padded to the largest out-degree (at least 1) with target 0 and
        an entry of 2, above every u. An absorbing row is all padding; no
        jump is ever drawn from it.
        """
        width = max(int((self.rates > 0).sum(axis=1).max()), 1)
        # each row's positive targets first, in ascending order, then its zeros
        to = np.argsort(self.rates <= 0, axis=1, kind="stable")[:, :width]
        ordered = np.take_along_axis(self.rates, to, axis=1)
        real = ordered > 0
        sums = np.cumsum(ordered, axis=1)  # sequential; a zero adds exactly 0.0
        cum = np.divide(sums, sums[:, -1:], out=np.full(ordered.shape, 2.0), where=real)
        return _read_only(np.where(real, to, 0)), _read_only(cum)

    def jump(self, regimes, u):
        """Regimes entered by embedded-chain jumps from `regimes`, one
        uniform u in [0, 1) per jump: the target at the first cumulative
        entry > u of each sparse row.

        That index is the count of the row's entries <= u, taken column by
        column: rows are nondecreasing and padded with 2. The last column
        holds 1 or padding, above every u, so it never counts."""
        targets, cum = self.jump_rows
        regimes = np.asarray(regimes)
        u = np.asarray(u, dtype=float)
        index = regimes * targets.shape[1]
        for column in cum.T[:-1]:
            index += column[regimes] <= u
        return targets.ravel()[index]

    def generator(self) -> NDArray[np.float64]:
        """Generator matrix Q: off-diagonal rates, diagonal -row sums."""
        q = self.rates.copy()
        np.fill_diagonal(q, -self.out_rates)
        return q

    def closed_classes(self) -> list[list[int]]:
        """Communicating classes that no positive switching rate leaves, in
        the order of each class's smallest regime.

        Reachability is the transitive closure of (rates > 0) | identity,
        found by repeated boolean squaring (about log2(count) products). A
        regime lies in a closed class exactly when every regime it reaches
        reaches it back, and its class is then the set it reaches.
        """
        reach = (self.rates > 0) | np.eye(self.count, dtype=bool)
        while not np.array_equal(reach, wider := reach @ reach):
            reach = wider
        closed = (reach <= reach.T).all(axis=1)  # whatever it reaches reaches it back
        return [np.flatnonzero(reach[i]).tolist() for i in np.flatnonzero(closed)
                if reach[i].argmax() == i]  # each class once, at its smallest regime

    def long_run_class(self) -> list[int]:
        """The one closed class: a chain has a unique stationary law and a
        unique long-run cost rate exactly when it has one, and every other
        regime is transient. Otherwise :class:`StructureError` names every
        closed class."""
        closed = self.closed_classes()
        if len(closed) > 1:
            raise StructureError(f"no unique long run: the chain has {len(closed)} "
                                 f"closed classes of regimes, {closed}")
        return closed[0]

    def to_json(self, path: str | Path) -> None:
        write_json_fields(path, self)

    @classmethod
    def from_json(cls, path: str | Path) -> "RegimeChain":
        """Read a chain written by `to_json`; errors name the file."""
        return read_json_record(path, cls)


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
        if not np.all(np.isfinite(t)) or (t.size > 1 and not np.all(np.diff(t) > 0)):
            raise InputError("timestamps must be finite and strictly increasing")
        if not np.all((q >= 0.0) & (q < math.inf)):  # NaN fails both
            raise InputError("discharges must be finite and >= 0")

    def __len__(self) -> int:
        return self.times.size

    @classmethod
    def from_csv(cls, path: str | Path) -> "DischargeSeries":
        """Read a `timestamp,discharge_m3s` CSV.

        Timestamps are fractional day numbers (any field `float` reads,
        negative ones too) or else ISO-8601. ISO timestamps are converted to
        fractional days since the first sample. Every stamp must be of the
        first one's kind: day number, naive ISO or timezone-aware ISO.
        """
        seen: dict[str, str] = {}

        def parse(stamp: str, flow: str):
            stamp = stamp.strip()
            try:
                when, kind = float(stamp), "a day number"
            except ValueError:
                when = datetime.fromisoformat(stamp)
                kind = "a naive ISO time" if when.tzinfo is None else "a timezone-aware ISO time"
            first = seen.setdefault("kind", kind)
            if kind != first:
                raise ValueError(f"timestamp {stamp!r} is {kind}, the first one is {first}")
            return when, float(flow)

        rows = read_csv_rows(path, ("timestamp", "discharge_m3s"), parse)
        if not rows:
            raise InputError(f"{path}: empty series")
        origin = rows[0][0]
        times = [when for when, _ in rows]
        if isinstance(origin, datetime):
            times = [(when - origin).total_seconds() / SECONDS_PER_DAY for when in times]
        return cls(np.asarray(times), np.asarray([flow for _, flow in rows]))


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
    count: int  # regimes of the generating chain, visited or not

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
        if check_horizon(self.horizon) <= t[-1]:
            raise InputError("horizon must exceed the last segment start")
        object.__setattr__(self, "count", check_integer(self.count, "regime count"))
        if r.min() < 0 or r.max() >= self.count:
            raise InputError(f"regime indices out of range for {self.count} regimes")

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
        lengths = np.diff(self.start_times, append=self.horizon)
        return np.bincount(self.regimes, weights=lengths, minlength=self.count)


def bin_discharge(q, width: float, count: int):
    """Map discharges to regime indices: floor(q / width), clamped.

    Bin edges sit at multiples of `width`, so centers are (i + 0.5) * width;
    anything above the top edge is clamped to the top regime. A scalar q
    gives an int, an array q an int64 array of its shape.
    """
    q = np.asarray(q, dtype=float)
    if not 0.0 < width < math.inf:  # NaN fails too
        raise InputError("bin width must be finite and positive")
    if check_integer(count, "regime count") < 1:
        raise InputError("regime count must be >= 1")
    if not np.all((q >= 0.0) & (q < math.inf)):
        raise InputError("discharges must be finite and >= 0")
    # clamp before the cast, so a huge q / width cannot overflow int64
    bins = np.minimum(np.floor(q / width), count - 1).astype(np.int64)
    return int(bins) if bins.ndim == 0 else bins


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
    if len(series) < 2:
        raise InputError("need at least 2 samples to estimate rates")
    bins = bin_discharge(series.discharges, width, count)
    dt = np.diff(series.times)

    occupancy = np.bincount(bins[:-1], weights=dt, minlength=count)
    moved = bins[1:] != bins[:-1]
    counts = np.zeros((count, count))
    np.add.at(counts, (bins[:-1][moved], bins[1:][moved]), 1.0)

    rates = np.zeros_like(counts)
    visited = occupancy > 0
    rates[visited] = counts[visited] / occupancy[visited, None]

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

    It exists when the chain has one closed class (`long_run_class`) and
    is zero off it; on the class, least squares solves the transposed
    balance equations with the normalization row appended.
    """
    closed = chain.long_run_class()
    system = np.vstack([chain.generator()[np.ix_(closed, closed)].T, np.ones(len(closed))])
    rhs = np.zeros(len(closed) + 1)
    rhs[-1] = 1.0
    p = np.zeros(chain.count)
    p[closed] = np.linalg.lstsq(system, rhs, rcond=None)[0]
    return p


def realistic_chain(seed: int) -> RegimeChain:
    """The paper's dam-downstream chain: 43 regimes on 2.5 m^3/s bins with
    nearest-neighbour switching. Up and down rates are drawn by
    `default_rng(seed)` uniformly within 10% of 0.7 and 1.1 per day."""
    rng = np.random.default_rng(seed)
    count = 43
    rates = np.zeros((count, count))
    low = np.arange(count - 1)
    rates[low, low + 1] = 0.7 * rng.uniform(0.9, 1.1, count - 1)
    rates[low + 1, low] = 1.1 * rng.uniform(0.9, 1.1, count - 1)
    return RegimeChain(discharges=1.25 + 2.5 * np.arange(count), rates=rates)


def spawn_streams(seed: int | None) -> list[np.random.Generator]:
    """Independent regime and observation generators from one seed, in
    that order; :class:`InputError` for a bool or a seed that `SeedSequence`
    rejects, a negative one for instance."""
    try:
        if isinstance(seed, bool):  # SeedSequence takes True as 1; it rejects np.True_
            raise TypeError("a bool is not a seed")
        sequence = np.random.SeedSequence(seed)
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad seed {reprlib.repr(seed)}: {exc}") from None
    return [np.random.default_rng(s) for s in sequence.spawn(2)]


def sample_regime_path(
    chain: RegimeChain,
    initial: int,
    horizon: float,
    seed: int | np.random.Generator | None = None,
) -> RegimePath:
    """Simulate the chain on [0, horizon] (exponential holds, embedded jumps).

    Holding times are exponential(1) / out-rate and each jump takes one
    uniform by the rule of `RegimeChain.jump`, applied to one scalar at a
    time on the sparse rows as Python lists: a numpy call per switch would
    cost more than the draw. An absorbing regime (zero outgoing rate)
    yields a path that simply stays there; that is a valid single-segment
    result, not an error.

    It draws from the regime stream of `spawn_streams(seed)` in the engine's
    order (a hold, then a uniform and a hold per switch): the engine's regime
    path for the same seed and initial regime, and `mc.simulate_controlled`'s.
    A Generator passed as `seed` is drawn from as it is.
    """
    horizon = check_horizon(horizon)
    i = check_integer(initial, "initial regime", chain.count)
    rng = seed if isinstance(seed, np.random.Generator) else spawn_streams(seed)[0]
    out_rates = chain.out_rates.tolist()
    targets, cum = (a.tolist() for a in chain.jump_rows)

    times, visited, t = [0.0], [i], 0.0
    while True:
        rate = out_rates[i]
        if rate <= 0.0:
            break
        t += rng.exponential() / rate
        if t >= horizon:
            break
        i = targets[i][bisect_right(cum[i], rng.random())]
        times.append(t)
        visited.append(i)
    return RegimePath(
        start_times=np.asarray(times),
        regimes=np.asarray(visited, dtype=np.int64),
        horizon=horizon,
        count=chain.count,
    )
