import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sedopt.errors import InputError, StructureError
from sedopt.mc import estimate_cost
from sedopt.pde import CostSpec, ThresholdPolicy
from sedopt.regime import (
    DischargeSeries,
    RegimeChain,
    RegimePath,
    bin_discharge,
    estimate_chain,
    realistic_chain,
    sample_regime_path,
    stationary_distribution,
)


def dense_table(chain):
    """The dense embedded-chain table: each row's cumulative rates divided
    by their last entry, and all 1 for an absorbing row."""
    cum = np.cumsum(chain.rates, axis=1)
    total = cum[:, -1:]
    return np.divide(cum, total, out=np.ones_like(cum), where=total > 0)


def dense_jump(chain, regimes, u):
    """The dense embedded-chain rule: the count of cumulative entries <= u."""
    u = np.asarray(u, dtype=float)
    return np.count_nonzero(u[..., None] >= dense_table(chain)[regimes], axis=-1)


def two_regime_chain(up=1.0, down=2.0):
    return RegimeChain(
        discharges=np.array([1.0, 3.0]),
        rates=np.array([[0.0, up], [down, 0.0]]),
    )


class TestRegimeChain:
    def test_validation(self):
        with pytest.raises(InputError):
            RegimeChain(discharges=np.array([3.0, 1.0]), rates=np.zeros((2, 2)))
        with pytest.raises(InputError):
            RegimeChain(discharges=np.array([0.0, 1.0]), rates=np.zeros((2, 2)))
        with pytest.raises(InputError):
            RegimeChain(discharges=np.array([1.0, 2.0]), rates=np.zeros((3, 3)))
        with pytest.raises(InputError):
            RegimeChain(
                discharges=np.array([1.0, 2.0]),
                rates=np.array([[0.5, 0.0], [0.0, 0.0]]),  # nonzero diagonal
            )
        with pytest.raises(InputError):
            RegimeChain(
                discharges=np.array([1.0, 2.0]),
                rates=np.array([[0.0, -1.0], [0.0, 0.0]]),
            )
        with pytest.raises(InputError, match="rectangular"):
            RegimeChain(discharges=[1.0, 2.0], rates=[[0.0, 1.0], [1.0]])
        with pytest.raises(InputError, match="numbers"):
            RegimeChain(discharges=[1.0, 2.0], rates=[[0.0, "abc"], [1.0, 0.0]])
        with pytest.raises(InputError, match="non-empty"):
            RegimeChain(discharges=np.array([]), rates=np.zeros((0, 0)))
        for bad in (np.inf, np.nan):
            with pytest.raises(InputError, match="finite"):
                RegimeChain(discharges=np.array([1.0, 2.0]),
                            rates=np.array([[0.0, bad], [1.0, 0.0]]))
        # an infinite discharge used to pass and fail later as a transport rate
        for discharges in ([1.0, np.inf], [np.nan, 2.0]):
            with pytest.raises(InputError, match="discharges must be finite"):
                RegimeChain(discharges=discharges, rates=np.zeros((2, 2)))

    def test_overflowing_row_sum_rejected(self):
        # each rate is finite, but regime 0's total rate out is not
        with pytest.raises(InputError, match=r"regimes \[0\] sum past the double range"):
            RegimeChain(discharges=[1.0, 2.0, 3.0],
                        rates=[[0.0, 1e308, 1e308], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])

    def test_generator_rows_sum_to_zero(self):
        chain = two_regime_chain()
        q = chain.generator()
        np.testing.assert_allclose(q.sum(axis=1), 0.0, atol=1e-15)
        assert q[0, 1] == 1.0 and q[0, 0] == -1.0

    def test_closed_classes(self):
        q = np.array([1.0, 2.0, 3.0])
        transient = RegimeChain(discharges=q, rates=np.array(
            [[0.0, 1.0, 0.0], [0.0, 0.0, 0.5], [0.0, 0.8, 0.0]]))
        assert transient.closed_classes() == [[1, 2]]
        isolated = RegimeChain(discharges=q, rates=np.zeros((3, 3)))
        assert isolated.closed_classes() == [[0], [1], [2]]
        assert two_regime_chain().closed_classes() == [[0, 1]]

    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.lists(st.sampled_from([0.0, 0.0, 0.4, 1.3]), min_size=n * n, max_size=n * n),
        st.lists(st.booleans(), min_size=n, max_size=n))))
    @settings(max_examples=300, deadline=None)
    def test_closed_classes_match_search(self, case):
        entries, absorbing = case
        n = len(absorbing)
        rates = np.array(entries).reshape(n, n)
        np.fill_diagonal(rates, 0.0)
        rates[np.array(absorbing)] = 0.0  # no rate leaves an absorbing regime

        def reached(start):  # the reference: a depth-first search over positive rates
            seen, stack = {start}, [start]
            while stack:
                for j in np.flatnonzero(rates[stack.pop()] > 0).tolist():
                    if j not in seen:
                        seen.add(j)
                        stack.append(j)
            return seen

        reach = [reached(i) for i in range(n)]
        classes = sorted({tuple(sorted(j for j in reach[i] if i in reach[j])) for i in range(n)})
        # a closed class is one no positive rate leaves
        closed = [list(members) for members in classes
                  if set(np.nonzero(rates[list(members)])[1].tolist()) <= set(members)]
        chain = RegimeChain(discharges=np.arange(1.0, n + 1.0), rates=rates)
        assert chain.closed_classes() == closed
        # a stationary law exists exactly when one class is closed, and it
        # puts no mass off that class
        if len(closed) > 1:
            with pytest.raises(StructureError, match="closed class"):
                stationary_distribution(chain)
            return
        p = stationary_distribution(chain)
        assert np.max(np.abs(np.delete(p, closed[0])), initial=0.0) <= 1e-13
        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.max(np.abs(p @ chain.generator())) <= 1e-12

    def test_json_round_trip(self, tmp_path):
        chain = two_regime_chain()
        path = tmp_path / "chain.json"
        chain.to_json(path)
        back = RegimeChain.from_json(path)
        np.testing.assert_array_equal(back.discharges, chain.discharges)
        np.testing.assert_array_equal(back.rates, chain.rates)


class TestBinDischarge:
    def test_lowest_bin(self):
        assert bin_discharge(0.0, 2.5, 43) == 0

    def test_floor(self):
        assert bin_discharge(5.01, 2.5, 43) == 2

    def test_clamp_to_top(self):
        assert bin_discharge(10000.0, 2.5, 43) == 42

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            bin_discharge(-0.1, 2.5, 43)

    def test_array_matches_scalars(self):
        rng = np.random.default_rng(5)
        q = rng.uniform(0.0, 120.0, 200) * rng.integers(0, 2, 200)  # zeros included
        bins = bin_discharge(q, 2.5, 43)
        assert bins.dtype == np.int64 and bins.shape == q.shape
        scalars = [bin_discharge(float(x), 2.5, 43) for x in q]
        assert all(type(b) is int for b in scalars)
        assert bins.tolist() == scalars

    def test_huge_discharge_lands_in_top_bin(self):
        assert bin_discharge(1e300, 2.5, 43) == 42
        assert bin_discharge(np.array([1e300, 1.0]), 2.5, 43).tolist() == [42, 0]

    @pytest.mark.parametrize("q, width", [
        (np.nan, 2.5), (np.inf, 2.5), (-1.0, 2.5), (np.array([1.0, np.nan]), 2.5),
        (1.0, np.nan), (1.0, np.inf), (1.0, 0.0),
    ])
    def test_bad_discharge_or_width_rejected(self, q, width):
        with pytest.raises(InputError):
            bin_discharge(q, width, 43)

    def test_zero_count_rejected(self):
        with pytest.raises(InputError, match="regime count"):
            bin_discharge(1.0, 2.5, 0)

    @pytest.mark.parametrize("entry", [
        lambda: bin_discharge([1.0, 6.0, 9.0], 2.5, 2.5),
        lambda: estimate_chain(DischargeSeries(np.arange(3.0), np.array([1.0, 6.0, 9.0])),
                               2.5, 3.0),
        lambda: RegimePath(start_times=np.array([0.0, 1.0]), regimes=np.array([0, 1]),
                           horizon=2.0, count=2.5),
        lambda: estimate_chain(DischargeSeries(np.arange(3.0), np.array([1.0, 6.0, 9.0])),
                               2.5, True),
    ], ids=["bin_discharge", "estimate_chain", "RegimePath", "estimate_chain-bool"])
    def test_fractional_count_rejected(self, entry):
        # these used to bin with a fractional top, or raise a bare TypeError
        with pytest.raises(InputError, match="regime count must be an integer"):
            entry()

    @given(
        q=st.floats(0.0, 1e5),
        step=st.floats(0.0, 1e3),
        width=st.floats(0.1, 50.0),
        count=st.integers(1, 60),
    )
    @settings(max_examples=200)
    def test_monotone_in_discharge(self, q, step, width, count):
        assert bin_discharge(q + step, width, count) >= bin_discharge(q, width, count)


class TestEstimateChain:
    def test_constant_series_no_transitions(self):
        t = np.arange(10) / 24.0
        series = DischargeSeries(times=t, discharges=np.full(10, 8.0))  # bin 3
        with pytest.warns(UserWarning, match="never visited"):
            chain = estimate_chain(series, width=2.5, count=5)
        assert chain.rates.sum() == 0.0
        np.testing.assert_allclose(chain.discharges, (np.arange(5) + 0.5) * 2.5)

    def test_alternating_hourly_gives_24_per_day(self):
        # one transition per 1/24 day of occupancy, both directions
        n = 48
        t = np.arange(n) / 24.0
        q = np.where(np.arange(n) % 2 == 0, 1.0, 3.0)  # bins 0, 1
        with pytest.warns(UserWarning):  # regimes 2+ never visited
            chain = estimate_chain(DischargeSeries(t, q), width=2.5, count=4)
        assert chain.rates[0, 1] == pytest.approx(24.0)
        assert chain.rates[1, 0] == pytest.approx(24.0)

    def test_hand_counted_rate(self):
        # 10 h of regime-0 occupancy with successor, 2 transitions 0 -> 1
        bins = [0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 1]
        q = np.where(np.array(bins) == 0, 1.0, 3.0)
        t = np.arange(len(bins)) / 24.0
        chain = estimate_chain(DischargeSeries(t, q), width=2.5, count=2)
        assert chain.rates[0, 1] == pytest.approx(2.0 / (10.0 / 24.0))  # 4.8/day
        assert chain.rates[1, 0] == pytest.approx(1.0 / (2.0 / 24.0))

    def test_multi_bin_jump_counts_once(self):
        t = np.arange(3) / 24.0
        q = np.array([1.0, 11.0, 1.0])  # bins 0 -> 4 -> 0
        with pytest.warns(UserWarning):
            chain = estimate_chain(DischargeSeries(t, q), width=2.5, count=5)
        assert chain.rates[0, 4] > 0
        assert chain.rates[0, 1:4].sum() == 0.0

    def test_singleton_rejected(self):
        series = DischargeSeries(times=np.array([0.0]), discharges=np.array([1.0]))
        with pytest.raises(InputError):
            estimate_chain(series, width=2.5, count=3)

    def test_non_increasing_timestamps_rejected(self):
        with pytest.raises(InputError):
            DischargeSeries(times=np.array([0.0, 0.0]), discharges=np.array([1.0, 1.0]))

    def test_unequal_lengths_rejected(self):
        with pytest.raises(InputError, match="equal length"):
            DischargeSeries(times=np.arange(3.0), discharges=np.array([1.0, 2.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_bad_discharges_rejected(self, bad):
        with pytest.raises(InputError):
            DischargeSeries(times=np.arange(3.0), discharges=np.array([1.0, bad, 3.0]))

    def test_width_checked_by_the_bin_rule(self):
        series = DischargeSeries(times=np.arange(3.0), discharges=np.array([1.0, 2.0, 3.0]))
        with pytest.raises(InputError):
            estimate_chain(series, width=np.nan, count=3)


class TestSeriesCsv:
    def test_iso_and_day_number_autodetect(self, tmp_path):
        iso = tmp_path / "iso.csv"
        iso.write_text(
            "timestamp,discharge_m3s\n"
            "2020-04-01T00:00:00,5.0\n"
            "2020-04-01T12:00:00,6.0\n"
        )
        series = DischargeSeries.from_csv(iso)
        np.testing.assert_allclose(series.times, [0.0, 0.5])

        plain = tmp_path / "days.csv"
        plain.write_text("timestamp,discharge_m3s\n0.25,5.0\n0.75,6.0\n")
        series = DischargeSeries.from_csv(plain)
        np.testing.assert_allclose(series.times, [0.25, 0.75])

    def test_bad_header(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,flow\n0,1\n")
        with pytest.raises(InputError):
            DischargeSeries.from_csv(bad)

    def test_header_only_is_an_empty_series(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("timestamp,discharge_m3s\n")
        with pytest.raises(InputError, match="empty series"):
            DischargeSeries.from_csv(empty)


class TestStationaryDistribution:
    def test_single_regime(self):
        chain = RegimeChain(discharges=np.array([1.0]), rates=np.zeros((1, 1)))
        np.testing.assert_array_equal(stationary_distribution(chain), [1.0])

    def test_two_regime_balance(self):
        # p0 * 1 = p1 * 2  ->  p = (2/3, 1/3)
        p = stationary_distribution(two_regime_chain(up=1.0, down=2.0))
        np.testing.assert_allclose(p, [2.0 / 3.0, 1.0 / 3.0], atol=1e-14)

    def test_reducible_chain_names_regimes(self):
        # 2 -> 0 <-> 1: regime 2 is transient and gets no mass
        chain = RegimeChain(
            discharges=np.array([1.0, 2.0, 3.0]),
            rates=np.array([[0.0, 1.0, 0.0], [2.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
        )
        assert chain.long_run_class() == [0, 1]
        np.testing.assert_allclose(stationary_distribution(chain), [2.0 / 3.0, 1.0 / 3.0, 0.0],
                                   rtol=0.0, atol=1e-15)
        # three uncoupled regimes: three closed classes, no unique law
        isolated = RegimeChain(discharges=chain.discharges, rates=np.zeros((3, 3)))
        with pytest.raises(StructureError, match=r"closed classes of regimes, "
                                                 r"\[\[0\], \[1\], \[2\]\]"):
            stationary_distribution(isolated)

    def test_realistic_scale_chain_fully_supported(self):
        # nearest-neighbour chain over the full 43-level discharge binning:
        # every regime keeps positive stationary mass (the geometric decay
        # per level must stay well above the double-precision noise floor
        # for strict positivity to be checkable at all)
        centers = 1.25 + 2.5 * np.arange(43)
        rates = np.zeros((43, 43))
        for i in range(42):
            rates[i, i + 1] = 0.7
            rates[i + 1, i] = 1.1
        chain = RegimeChain(discharges=centers, rates=rates)
        p = stationary_distribution(chain)
        assert p.min() > 0.0
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.max(np.abs(p @ chain.generator())) < 1e-12

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_residual_and_normalization(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        rates = rng.uniform(0.0, 3.0, size=(n, n))
        np.fill_diagonal(rates, 0.0)
        # a cycle guarantees irreducibility
        for i in range(n):
            rates[i, (i + 1) % n] += 0.5
        chain = RegimeChain(discharges=np.arange(1.0, n + 1.0), rates=rates)
        p = stationary_distribution(chain)
        assert abs(p.sum() - 1.0) < 1e-12
        assert p.min() >= -1e-15
        assert np.max(np.abs(p @ chain.generator())) < 1e-12


def test_realistic_chain_is_the_benchmark_chain():
    # perfbench/workloads.py keeps its own copy of the generator: the seed-s
    # chain of its realistic43 workload is realistic_chain(default_rng(s))
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for seed in range(3):
        ours = realistic_chain(seed)
        theirs = workloads.realistic_chain(np.random.default_rng(seed))
        assert ours.count == 43
        np.testing.assert_array_equal(ours.discharges, theirs.discharges)
        np.testing.assert_array_equal(ours.rates, theirs.rates)


class TestSampleRegimePath:
    def test_single_regime_single_segment(self):
        chain = RegimeChain(discharges=np.array([1.0]), rates=np.zeros((1, 1)))
        path = sample_regime_path(chain, initial=0, horizon=10.0, seed=0)
        assert path.start_times.tolist() == [0.0]
        assert path.regimes.tolist() == [0]
        assert path.horizon == 10.0

    @pytest.mark.parametrize("initial", [-1, 2])
    def test_initial_regime_out_of_range_rejected(self, initial):
        with pytest.raises(InputError, match="initial regime"):
            sample_regime_path(two_regime_chain(), initial=initial, horizon=5.0, seed=0)

    @pytest.mark.parametrize("initial", [0.5, 1.0, np.nan])
    def test_non_integer_initial_regime_rejected(self, initial):
        # 0.5 used to start in regime 0 without a word
        with pytest.raises(InputError, match="initial regime must be an integer"):
            sample_regime_path(two_regime_chain(), initial=initial, horizon=5.0, seed=0)

    def test_absorbing_regime_is_valid(self):
        chain = RegimeChain(
            discharges=np.array([1.0, 2.0]),
            rates=np.array([[0.0, 0.0], [1.0, 0.0]]),
        )
        path = sample_regime_path(chain, initial=0, horizon=5.0, seed=3)
        assert len(path.start_times) == 1

    def test_jump_table(self):
        rates = np.array([
            [0.0, 0.3, 0.0, 0.7],
            [0.0, 0.0, 0.0, 0.0],
            [0.1, 0.2, 0.0, 0.0],
            [1.0, 1.0, 1.0, 0.0],
        ]) / 3.0
        chain = RegimeChain(discharges=np.arange(1.0, 5.0), rates=rates)
        targets, cum = chain.jump_rows
        # a row's last real entry is exactly 1; an absorbing row is all padding
        assert cum[0, 1] == cum[2, 1] == cum[3, 2] == 1.0
        assert np.all(cum[1] == 2.0) and np.all(targets[1] == 0)
        np.testing.assert_allclose(chain.out_rates, [1.0 / 3.0, 0.0, 0.1, 1.0])
        # neither end of [0, 1) reaches a zero-probability target
        start = np.array([0, 2, 3])
        assert chain.jump(start, np.zeros(3)).tolist() == [1, 0, 0]
        assert chain.jump(start, np.full(3, np.nextafter(1.0, 0.0))).tolist() == [3, 1, 2]
        assert int(chain.jump(0, 0.5)) == 3
        u = np.random.default_rng(0).random(200_000)
        freq = np.bincount(chain.jump(np.zeros(u.size, dtype=int), u), minlength=4) / u.size
        assert np.max(np.abs(freq - [0.0, 0.3, 0.0, 0.7])) < 0.005

    def test_same_seed_same_path(self):
        chain = two_regime_chain()
        a = sample_regime_path(chain, 0, 50.0, seed=11)
        b = sample_regime_path(chain, 0, 50.0, seed=11)
        np.testing.assert_array_equal(a.start_times, b.start_times)
        np.testing.assert_array_equal(a.regimes, b.regimes)

    def test_occupancy_matches_stationary_law(self):
        chain = two_regime_chain(up=1.0, down=1.0)
        path = sample_regime_path(chain, 0, 1e5, seed=7)
        occ = path.occupancy() / path.horizon
        assert abs(occ[0] - 0.5) < 0.01

    def test_long_run_occupancy_all_regimes(self):
        rng = np.random.default_rng(5)
        rates = rng.uniform(0.2, 1.5, size=(4, 4))
        np.fill_diagonal(rates, 0.0)
        chain = RegimeChain(discharges=np.arange(1.0, 5.0), rates=rates)
        p = stationary_distribution(chain)
        occ = sample_regime_path(chain, 0, 1e5, seed=42).occupancy() / 1e5
        assert np.max(np.abs(occ - p)) < 0.02

    def test_positive_time_average_transport(self):
        # stationary mass on a transporting regime keeps long-run export positive
        chain = two_regime_chain()
        rates = np.array([0.0, 3.0])
        path = sample_regime_path(chain, 0, 1e4, seed=9)
        avg = float(np.dot(path.occupancy(), rates)) / path.horizon
        assert avg > 0.0


@st.composite
def rate_matrices(draw):
    """Switching rates with zero entries, one absorbing row and one dense row."""
    count = draw(st.integers(2, 7))
    entry = st.one_of(st.just(0.0), st.floats(1e-9, 1e3))
    rates = np.reshape(draw(st.lists(entry, min_size=count**2, max_size=count**2)),
                       (count, count))
    absorbing = draw(st.integers(0, count - 1))
    dense = (absorbing + draw(st.integers(1, count - 1))) % count
    rates[dense] = draw(st.lists(st.floats(1e-9, 1e3), min_size=count, max_size=count))
    rates[absorbing] = 0.0
    np.fill_diagonal(rates, 0.0)
    return rates


UNIFORMS = st.one_of(st.just(0.0), st.just(float(np.nextafter(1.0, 0.0))),
                     st.floats(0.0, 1.0, exclude_max=True))


class _FixedDraws(np.random.Generator):
    """A generator whose first hold is 1, whose later holds never end and
    whose uniforms are all u: exactly one switch of `sample_regime_path`."""

    def __init__(self, u):
        super().__init__(np.random.PCG64(0))
        self.u, self.holds = u, iter([1.0])

    def exponential(self):
        return next(self.holds, math.inf)

    def random(self):
        return self.u


class TestSparseJump:
    @settings(max_examples=200, deadline=None)
    @given(rate_matrices(), st.data())
    def test_sparse_rule_equals_dense_rule(self, rates, data):
        chain = RegimeChain(discharges=np.arange(1.0, rates.shape[0] + 1), rates=rates)
        regimes = np.array(data.draw(st.lists(st.integers(0, chain.count - 1),
                                              min_size=1, max_size=20)))
        # u also hits the table's own entries below 1, where ties decide
        u = np.array([data.draw(st.one_of(UNIFORMS, st.sampled_from(row[row < 1].tolist()))
                                if np.any(row < 1) else UNIFORMS)
                      for row in dense_table(chain)[regimes]])
        expected = dense_jump(chain, regimes, u)
        np.testing.assert_array_equal(chain.jump(regimes, u), expected)
        for r, x, target in zip(regimes, u, expected):
            rate = chain.out_rates[r]
            if rate > 0:  # one switch at t = 1 / rate, then nothing until the horizon
                path = sample_regime_path(chain, int(r), 2.0 / rate, seed=_FixedDraws(x))
                assert path.regimes.tolist() == [r, target]

    def test_rows_are_cut_from_the_table(self):
        chain = RegimeChain(discharges=np.arange(1.0, 5.0), rates=np.array([
            [0.0, 0.3, 0.0, 0.7],
            [0.0, 0.0, 0.0, 0.0],
            [0.1, 0.2, 0.0, 0.0],
            [1.0, 1.0, 1.0, 0.0],
        ]))
        targets, cum = chain.jump_rows
        assert targets.tolist() == [[1, 3, 0], [0, 0, 0], [0, 1, 0], [0, 1, 2]]
        assert cum[:, -1].tolist() == [2.0, 2.0, 2.0, 1.0]
        assert cum[0, :2].tolist() == dense_table(chain)[0, [1, 3]].tolist()
        assert not targets.flags.writeable and not cum.flags.writeable

    def test_wide_rows_match_a_per_row_reference(self):
        # rows of 9 or more positive rates pass numpy's 8-element pairwise
        # summation block, so only the sequential cumulative sum's own last
        # entry divides each of them to an exact 1
        rng = np.random.default_rng(19)
        for _ in range(300):
            count = int(rng.integers(10, 41))
            scale = 10.0 ** rng.integers(-9, 4, (count, count))
            rates = rng.random((count, count)) * scale * (rng.random((count, count)) < 0.7)
            dense = int(rng.integers(count))
            rates[dense] = rng.random(count) * scale[0] + 1e-9  # at least 9 targets
            rates[(dense + rng.integers(1, count)) % count] = 0.0  # an absorbing row
            np.fill_diagonal(rates, 0.0)
            targets, cum = RegimeChain(discharges=np.arange(1.0, count + 1), rates=rates).jump_rows
            degree = (rates > 0).sum(axis=1)
            assert degree.max() >= 9 and degree.min() == 0
            ref_targets = np.zeros(targets.shape, dtype=np.int64)
            ref_cum = np.full(cum.shape, 2.0)
            for i, row in enumerate(rates):
                to = np.flatnonzero(row > 0)  # ascending
                sums = np.cumsum(row[to])
                ref_targets[i, : to.size] = to
                ref_cum[i, : to.size] = sums / sums[-1:]
            assert targets.dtype == ref_targets.dtype and cum.dtype == ref_cum.dtype
            assert targets.tobytes() == ref_targets.tobytes()
            assert cum.tobytes() == ref_cum.tobytes()
            for i, k in enumerate(degree):
                assert k == 0 or cum[i, k - 1] == 1.0
                assert np.all(targets[i, k:] == 0) and np.all(cum[i, k:] == 2.0)

    def test_seeded_costs_equal_the_dense_rule(self, monkeypatch):
        rng = np.random.default_rng(8)
        count = 8
        rates = rng.uniform(0.1, 2.0, (count, count)) * (rng.random((count, count)) < 0.4)
        np.fill_diagonal(rates, 0.0)
        chain = RegimeChain(discharges=np.arange(1.0, count + 1), rates=rates)
        drains = np.linspace(0.0, 0.3, count)
        policy = ThresholdPolicy(boundaries=np.linspace(0.1, 0.8, count))
        costs = CostSpec(delta=0.2, c=0.02, d=0.01, lam=0.5)

        def run():
            return estimate_cost(chain, drains, policy, costs, 0.7, 40.0, 500, seed=21,
                                 initial_regime=3)

        sparse = run()
        monkeypatch.setattr(RegimeChain, "jump", dense_jump)
        dense = run()
        assert dense == sparse
        np.testing.assert_array_equal(dense.samples, sparse.samples)  # == skips samples


class TestRegimePathValidation:
    def test_first_segment_must_start_at_zero(self):
        with pytest.raises(InputError):
            RegimePath(start_times=np.array([1.0]), regimes=np.array([0]), horizon=2.0, count=1)

    def test_consecutive_regimes_differ(self):
        with pytest.raises(InputError):
            RegimePath(
                start_times=np.array([0.0, 1.0]),
                regimes=np.array([0, 0]),
                horizon=2.0,
                count=1,
            )

    @pytest.mark.parametrize("start_times, regimes, horizon", [
        ([0.0, 2.0, 1.0], [0, 1, 0], 3.0),
        ([0.0, 1.0], [0, 1], 1.0),
        ([0.0, 1.0], [0, 2], 2.0),
        ([], [], 1.0),
    ], ids=["decreasing-starts", "horizon-at-last-start", "regime-out-of-range", "empty"])
    def test_malformed_path_rejected(self, start_times, regimes, horizon):
        with pytest.raises(InputError):
            RegimePath(start_times=np.array(start_times), regimes=np.array(regimes),
                       horizon=horizon, count=2)

    @pytest.mark.parametrize("regimes, count", [
        ([0], 0),
        ([0, 1], 1),
    ], ids=["zero", "at-largest-regime"])
    def test_count_must_exceed_every_regime(self, regimes, count):
        # the count is the generating chain's, never guessed from the regimes
        with pytest.raises(InputError):
            RegimePath(start_times=np.arange(len(regimes), dtype=float),
                       regimes=np.array(regimes), horizon=5.0, count=count)

    def test_occupancy_sums_segment_lengths(self):
        path = RegimePath(
            start_times=np.array([0.0, 1.0, 2.5, 3.0]),
            regimes=np.array([0, 2, 0, 1]),
            horizon=4.0,
            count=4,
        )
        np.testing.assert_array_equal(path.occupancy(), [1.5, 1.0, 1.5, 0.0])

    def test_regime_at(self):
        path = RegimePath(
            start_times=np.array([0.0, 1.0, 2.5]),
            regimes=np.array([0, 1, 0]),
            horizon=4.0,
            count=2,
        )
        assert path.regime_at(0.5) == 0
        assert path.regime_at(1.0) == 1
        assert path.regime_at(3.0) == 0
        for t in (-0.5, 4.5, np.nan):
            with pytest.raises(InputError, match="outside"):
                path.regime_at(t)
