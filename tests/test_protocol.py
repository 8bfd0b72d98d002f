import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from defi_stress.errors import HorizonMismatch, InvalidParams
from defi_stress.paths import GbmParams, correlated_chunks
from defi_stress.protocol import (
    LiquidationSetup,
    LiquidationTrace,
    LiquidityModel,
    _caps,
    _liquidate,
    _whole_block,
    liquidate_blocks,
    liquidate_cells,
    liquidity_at,
    run_liquidation,
    trace_cells,
)
from oracle import (
    discrete_barrier_probability,
    margin,
    scalar_liquidation,
    whole_chunk,
)


def holding(units, debt, liquidity, p0, reserve=0.0):
    """A setup whose position opens with `units` collateral units at price
    p0."""
    return LiquidationSetup(debt, liquidity, reserve, units * p0 / debt)


class TestMargins:
    """Self-tests of the margin oracle: margin(units, price, reserve units,
    reserve price, debt, lam)."""

    def test_no_debt(self):
        assert margin(1.0, 150.0, 0.0, 0.0, 0.0) == 150.0

    def test_plain_buffer(self):
        assert margin(1.0, 150.0, 0.0, 0.0, 100.0) == 50.0

    def test_lambda_scales_collateral_side(self):
        assert margin(1.0, 150.0, 0.0, 0.0, 100.0, lam=0.5) == pytest.approx(125.0)

    def test_reserve_zero_equals_basic(self):
        assert margin(2.0, 75.0, 0.0, 223.0, 100.0) == margin(
            2.0, 75.0, 0.0, 0.0, 100.0
        )

    def test_initial_scenario_margin(self):
        # 600m collateral, 1m reserve units at 223, 400m debt
        value = margin(600e6 / 223.0, 223.0, 1e6, 223.0, 400e6)
        assert value == pytest.approx(600e6 + 223e6 - 400e6, rel=1e-12)

    def test_vanishing_prices_leave_minus_debt(self):
        value = margin(1e6, 1e-12, 1e6, 1e-12, 400e6)
        assert value == pytest.approx(-400e6, rel=1e-9)

    @given(
        price=st.floats(min_value=1e-3, max_value=1e6),
        qty=st.floats(min_value=0, max_value=1e9),
        lam=st.floats(min_value=0, max_value=5),
        debt=st.floats(min_value=0, max_value=1e12),
    )
    def test_sign_property(self, price, qty, lam, debt):
        m = margin(qty, price, 0.0, 0.0, debt, lam)
        assert (m >= 0) == (debt <= (1 + lam) * price * qty)


class TestLiquidityAndConstraints:
    def test_constant_liquidity(self):
        model = LiquidityModel(30_000, 0.0)
        assert liquidity_at(model, 0) == 30_000
        assert liquidity_at(model, 57) == 30_000

    def test_decay_at_zero(self):
        assert liquidity_at(LiquidityModel(30_000, 0.01), 0) == 30_000

    def test_decay_closed_form(self):
        assert liquidity_at(LiquidityModel(30_000, 0.01), 100) == pytest.approx(
            30_000 / math.e
        )


class TestRunLiquidation:
    def test_zero_debt_single_day(self):
        setup = LiquidationSetup(0.0, LiquidityModel(10), 1.0)
        trace = run_liquidation(setup, [100.0] * 5, [50.0] * 5)
        assert len(trace) == 1
        assert trace.margins[0] == pytest.approx(50.0)
        assert trace.first_negative_day is None

    def test_instant_discharge(self):
        setup = holding(750_000.0, 100e6, LiquidityModel(1e9), 200.0)
        trace = run_liquidation(setup, [200.0] * 10, [200.0] * 10)
        assert trace.units_sold[0] == pytest.approx(500_000.0)
        assert trace.debt_remaining[-1] == 0.0
        assert len(trace) == 1

    def test_horizon_mismatch(self):
        with pytest.raises(HorizonMismatch):
            run_liquidation(holding(1, 1, LiquidityModel(1), 1.0), [1.0, 1.0], [1.0])

    @pytest.mark.parametrize("p0", [0.0, -1.0, math.nan, math.inf])
    def test_first_price_must_be_positive(self, p0):
        setup = LiquidationSetup(1e8, LiquidityModel(30_000), 1e6)
        with pytest.raises(InvalidParams):
            run_liquidation(setup, [p0, 100.0], [100.0, 100.0])

    def test_empty_path(self):
        setup = LiquidationSetup(1e8, LiquidityModel(30_000), 1e6)
        with pytest.raises(InvalidParams):
            run_liquidation(setup, [], [])

    def test_conservation(self):
        rng = np.random.default_rng(0)
        path = 200 * np.exp(np.cumsum(rng.normal(0, 0.05, 60)))
        setup = holding(3e6, 4e8, LiquidityModel(30_000, 0.01), path[0], 1e6)
        trace = run_liquidation(setup, path, path)
        for t in range(len(trace)):
            assert trace.debt_remaining[t] == pytest.approx(
                4e8 - math.fsum(trace.proceeds[: t + 1]), abs=1e-9 * 4e8
            )

    def test_units_sold_within_liquidity(self):
        rng = np.random.default_rng(3)
        path = 150 * np.exp(np.cumsum(rng.normal(-0.01, 0.06, 80)))
        model = LiquidityModel(25_000, 0.02)
        trace = run_liquidation(holding(4e6, 5e8, model, path[0], 5e5), path, path)
        for t in range(len(trace)):
            assert trace.units_sold[t] <= liquidity_at(model, t) + 1e-12
        assert all(np.diff(trace.debt_remaining) <= 0)
        assert all(np.diff(trace.collateral_remaining) <= 1e-12)

    def test_more_decay_never_reduces_residual_debt(self):
        rng = np.random.default_rng(5)
        path = 180 * np.exp(np.cumsum(rng.normal(-0.02, 0.05, 100)))
        residuals = []
        for rho in (0.0, 0.005, 0.01, 0.05):
            model = LiquidityModel(30_000, rho)
            trace = run_liquidation(
                holding(3.5e6, 4e8, model, path[0], 1e6), path, path
            )
            residuals.append(trace.debt_remaining[-1])
        assert residuals == sorted(residuals)

    def test_more_debt_never_delays_first_event(self):
        rng = np.random.default_rng(8)
        path = 223 * np.exp(np.cumsum(rng.normal(-0.03, 0.05, 100)))
        days = []
        for debt in (2e8, 3e8, 4e8):
            # 150 % of the debt at 223, whatever the path's first price.
            units = debt * 1.5 / 223.0
            model = LiquidityModel(30_000, 0.01)
            trace = run_liquidation(
                holding(units, debt, model, path[0], 1e6), path, path
            )
            days.append(
                trace.first_negative_day
                if trace.first_negative_day is not None
                else math.inf
            )
        assert days == sorted(days, reverse=True)

    def test_ample_constant_liquidity_discharges_day_zero(self):
        path = [120.0, 80.0, 40.0]
        setup = holding(2e6, 1e8, LiquidityModel(1e7, 0.0), path[0])
        trace = run_liquidation(setup, path, path)
        assert trace.debt_remaining[0] == 0.0
        assert trace.first_negative_day is None


class TestTraceCells:
    """Every cell's trace against its own path from one engine call."""

    # Debt 1e5 at price 100. With ample liquidity the debt is discharged on
    # day 0; with a cap of 100 units a day, on about day 10; 500 units sold
    # 50 a day run out on day 9, owing the rest; 1 unit a day never
    # discharges it in 40 days.
    setups = (
        holding(2000.0, 1e5, LiquidityModel(1e7), 100.0, 100.0),
        holding(2000.0, 1e5, LiquidityModel(100.0), 100.0, 100.0),
        holding(500.0, 1e5, LiquidityModel(50.0), 100.0, 100.0),
        holding(5000.0, 1e5, LiquidityModel(1.0), 100.0, 100.0),
    )

    def prices(self):
        # Path r falls r % a day from 100; the reserve price 1 % a day.
        days = np.arange(40)[:, None]
        collateral = 100.0 * (1.0 - np.arange(4) / 100.0) ** days
        reserve = np.tile(100.0 * 0.99**days, (1, 4))
        return collateral, reserve[None]

    def test_traces_equal_run_liquidation(self):
        collateral, reserve = self.prices()
        traces = trace_cells(self.setups, collateral, reserve)
        expected = [
            run_liquidation(setup, collateral[:, r], reserve[0, :, r])
            for r, setup in enumerate(self.setups)
        ]
        assert traces == expected
        # Same arithmetic in the same order as the scalar loop, too.
        assert expected == [
            scalar_liquidation(setup, collateral[:, r], reserve[0, :, r])
            for r, setup in enumerate(self.setups)
        ]
        day_zero, late, stuck, never = expected
        assert len(day_zero) == 1 and day_zero.debt_remaining[-1] == 0.0
        assert len(late) > 1 and late.debt_remaining[-1] == 0.0
        assert len(stuck) == len(never) == 40
        assert stuck.collateral_remaining[-1] == 0.0 < stuck.debt_remaining[-1]
        assert never.collateral_remaining[-1] > 0.0 < never.debt_remaining[-1]
        assert stuck.first_negative_day is not None

    def test_cells_may_share_a_path(self):
        collateral, reserve = self.prices()
        same = [0, 3, 3, 0]
        traces = trace_cells(self.setups, collateral[:, same], reserve[:, :, same])
        assert traces == [
            run_liquidation(setup, collateral[:, k], reserve[0, :, k])
            for setup, k in zip(self.setups, same)
        ]

    def test_one_path_per_setup(self):
        collateral, reserve = self.prices()
        with pytest.raises(InvalidParams):
            trace_cells(self.setups[:3], collateral, reserve)
        with pytest.raises(InvalidParams):
            trace_cells(self.setups, collateral, np.concatenate([reserve] * 2))


class TestLiquidateEnsemble:
    """One setup over every path of a simulated ensemble."""

    def test_matches_scalar_engine(self):
        col = GbmParams(223.0, -0.001592, 0.050581)
        res = GbmParams(223.0, -0.001592, 0.050581 / 2)
        ((_, blocks),) = correlated_chunks(col, res, (0.9,), 60, 200, seed=13)
        collateral, reserve = whole_chunk(blocks)
        setup = LiquidationSetup(4e8, LiquidityModel(30_000, 0.01), 1e6)
        first_neg, terminal = liquidate_cells([setup], collateral, reserve)
        for k in range(200):
            args = (setup, collateral[:, k], reserve[0, :, k])
            expected = scalar_liquidation(*args)
            expected_day = (
                -1
                if expected.first_negative_day is None
                else expected.first_negative_day
            )
            assert first_neg[0, 0, k] == expected_day
            assert terminal[0, 0, k] == pytest.approx(
                expected.terminal_margin, rel=1e-12
            )
            # Same arithmetic in the same order: the trace matches exactly.
            assert run_liquidation(*args) == expected

    def test_shape_mismatch(self):
        setup = LiquidationSetup(1e8, LiquidityModel(30_000), 1e6)
        with pytest.raises(HorizonMismatch):
            liquidate_cells([setup], np.ones((5, 2)), np.ones((1, 4, 2)))

    def test_zero_days(self):
        setup = LiquidationSetup(1e8, LiquidityModel(30_000), 1e6)
        with pytest.raises(InvalidParams):
            liquidate_cells([setup], np.empty((0, 3)), np.empty((1, 0, 3)))


class TestLiquidationBlock:
    """Several correlations x setups x paths stepped as one block."""

    rhos = (-0.5, 0.9)
    setups = (
        LiquidationSetup(1e8, LiquidityModel(30_000, 0.0), 1e6),
        LiquidationSetup(4e8, LiquidityModel(30_000, 0.01), 1e6),
        LiquidationSetup(3e8, LiquidityModel(10_000, 0.005), 1e6, 1.2),
    )

    def prices(self):
        col = GbmParams(223.0, -0.001592, 0.050581)
        res = GbmParams(223.0, -0.001592, 0.050581 / 2)
        ((_, blocks),) = correlated_chunks(col, res, self.rhos, 60, 40, seed=13)
        return whole_chunk(blocks)

    def oracle(self, collateral, reserve, g, r, k):
        return scalar_liquidation(self.setups[r], collateral[:, k], reserve[g, :, k])

    def test_every_row_matches_scalar_engine(self):
        collateral, reserve = self.prices()
        history = []
        _liquidate(*_whole_block(self.setups, collateral, reserve), history)
        traces = {}
        for t, (entries, active, columns) in enumerate(history):
            for i in np.flatnonzero(active):
                g, r, k = np.unravel_index(entries[i], (2, 3, 40))
                trace = traces.setdefault((g, r, k), LiquidationTrace())
                days, *fields = trace._columns()
                days.append(t)
                for field, value in zip(fields, columns):
                    field.append(float(value[i]))
                if trace.margins[-1] < 0 and trace.first_negative_day is None:
                    trace.first_negative_day = t
        assert len(traces) == 2 * 3 * 40
        for (g, r, k), trace in traces.items():
            # Same arithmetic in the same order: every field matches exactly.
            assert trace == self.oracle(collateral, reserve, g, r, k), (g, r, k)

    def test_outcomes_match_scalar_engine(self):
        collateral, reserve = self.prices()
        first_neg, terminal = liquidate_cells(self.setups, collateral, reserve)
        assert first_neg.shape == terminal.shape == (2, 3, 40)
        assert (first_neg >= 0).any() and (first_neg < 0).any()
        for (g, r, k), day in np.ndenumerate(first_neg):
            expected = self.oracle(collateral, reserve, g, r, k)
            assert day == (
                -1
                if expected.first_negative_day is None
                else expected.first_negative_day
            )
            assert terminal[g, r, k] == expected.terminal_margin

    @pytest.mark.parametrize("block_days", [1, 7, 60, 61])
    def test_day_blocks_match_one_block(self, block_days):
        # 61 days, in blocks of block_days days with a shorter last block.
        collateral, reserve = self.prices()
        by_day = reserve.transpose(1, 0, 2)
        blocks = (
            (collateral[lo : lo + block_days], by_day[lo : lo + block_days])
            for lo in range(0, len(collateral), block_days)
        )
        got = liquidate_blocks(self.setups, blocks, collateral[0, 0], len(collateral))
        expected = liquidate_cells(self.setups, collateral, reserve)
        for a, b in zip(got, expected, strict=True):
            assert a.tobytes() == b.tobytes()

    def test_work_follows_the_entries_that_owe_debt(self):
        # Constant prices, one per path, and one cap per row: the debt of
        # row r on path k is discharged after about 1e5 / (l0_r * p_k) days,
        # anywhere from day 0 to day 99.
        prices = 100.0 * (1.0 + np.arange(50) / 10.0)
        collateral = np.tile(prices, (200, 1))
        liquidity = tuple(LiquidityModel(l0) for l0 in (10.0, 30.0, 100.0, 1e4))
        history = []
        _liquidate(
            np.full((4, 1), 1e5),
            np.full((4, 1), 1e4),
            1e6,
            _caps(liquidity, 200),
            [(collateral, collateral[:, None])],
            history,
        )
        stepped = live = 0
        stop_days = []
        for t, (entries, active, columns) in enumerate(history):
            assert (np.diff(entries) > 0).all()
            stepped += len(entries)
            live += np.count_nonzero(active)
            stop_days.extend([t] * np.count_nonzero(columns[4][active] == 0.0))
        block = 4 * 50
        assert len(stop_days) == block and len(set(stop_days)) > 20
        assert stepped <= 2 * live + block
        # Stepping the whole block until its last entry stops costs far more.
        assert 2 * live + block < block * (max(stop_days) + 1) / 2

    def test_outcomes_of_entries_dropped_on_many_days(self):
        # The constant prices above, falling 2 % a day: entries stop on many
        # different days, and some turn negative first.
        prices = 100.0 * (1.0 + np.arange(50) / 10.0)
        collateral = np.tile(prices, (200, 1)) * 0.98 ** np.arange(200)[:, None]
        setups = [
            LiquidationSetup(1e5, LiquidityModel(l0), 0.0, 1.2)
            for l0 in (10.0, 30.0, 100.0, 1e4)
        ]
        history = []
        _liquidate(*_whole_block(setups, collateral, collateral[None]), history)
        sizes = [len(entries) for entries, _, _ in history]
        assert sum(a > b for a, b in zip(sizes, sizes[1:])) >= 3
        first_neg, terminal = liquidate_cells(setups, collateral, collateral[None])
        assert len(np.unique(first_neg)) > 10
        for (g, r, k), day in np.ndenumerate(first_neg):
            expected = scalar_liquidation(
                setups[r], collateral[:, k], collateral[:, k], p0=collateral[0, 0]
            )
            expected_day = expected.first_negative_day
            assert day == (-1 if expected_day is None else expected_day)
            assert terminal[g, r, k] == expected.terminal_margin

    @pytest.mark.parametrize("reserve_units", [0.0, 10.0])
    def test_stuck_entries_match_scalar_engine(self, reserve_units):
        # Constant collateral prices 100, 110, ..., 170, and 64 collateral
        # units against a debt of 1e4: every row sells its cap a day until
        # its collateral runs out, on day 0, 3, 10, 25 or 58 (row 5 never
        # does), owing what the sales left unpaid; at 160 and 170 the sales
        # discharge the debt instead. The reserve price is 1000 until day
        # 29; then it falls 10 % a day on paths 0-2 and 4, to 1 on the last
        # day only on path 3, and never on paths 5-7. With reserve units,
        # stuck entries first turn negative days after they stop selling,
        # on the last day, or never; without, at once.
        n_days = 60
        prices = 100.0 * (1.0 + np.arange(8) / 10.0)
        collateral = np.tile(prices, (n_days, 1))
        reserve = np.full((1, n_days, 8), 1000.0)
        falls = 0.9 ** np.arange(1, n_days - 29)[:, None]
        reserve[0, 30:, [0, 1, 2, 4]] = (1000.0 * falls).T
        reserve[0, -1, 3] = 1.0
        setups = [
            holding(64.0, 1e4, LiquidityModel(l0), 100.0, reserve_units)
            for l0 in (64.0, 16.0, 6.0, 2.5, 1.1, 0.5)
        ]
        expected = {
            (r, k): scalar_liquidation(
                setups[r], collateral[:, k], reserve[0, :, k], p0=100.0
            )
            for r in range(6)
            for k in range(8)
        }
        stuck = {
            cell: (trace.collateral_remaining.index(0.0), trace.first_negative_day)
            for cell, trace in expected.items()
            if trace.debt_remaining[-1] > 0.0 and 0.0 in trace.collateral_remaining
        }
        assert len({day for day, _ in stuck.values()}) == 5
        if reserve_units:
            first_neg = [neg for _, neg in stuck.values()]
            assert any(day < neg - 1 for day, neg in stuck.values() if neg)
            assert n_days - 1 in first_neg and None in first_neg
        else:
            assert all(neg == 0 for _, neg in stuck.values())
        by_day = reserve.transpose(1, 0, 2)
        runs = [liquidate_cells(setups, collateral, reserve)]
        for block_days in (1, 7):
            blocks = (
                (collateral[lo : lo + block_days], by_day[lo : lo + block_days])
                for lo in range(0, n_days, block_days)
            )
            runs.append(liquidate_blocks(setups, blocks, 100.0, n_days))
        for first_neg, terminal in runs:
            for (r, k), trace in expected.items():
                day = trace.first_negative_day
                assert first_neg[0, r, k] == (-1 if day is None else day), (r, k)
                assert terminal[0, r, k] == trace.terminal_margin, (r, k)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_blocks_match_scalar_engine(self, data):
        n_days = data.draw(st.integers(1, 12))
        n_paths = data.draw(st.integers(1, 6))
        n_groups = data.draw(st.integers(1, 2))
        price = st.floats(1e-2, 1e4)
        collateral = data.draw(arrays(np.float64, (n_days, n_paths), elements=price))
        reserve = data.draw(
            arrays(np.float64, (n_groups, n_days, n_paths), elements=price)
        )
        setups = data.draw(
            st.lists(
                st.builds(
                    LiquidationSetup,
                    debt=st.floats(0.0, 1e9),
                    liquidity=st.builds(
                        LiquidityModel, st.floats(0.0, 1e7), st.floats(0.0, 1.0)
                    ),
                    reserve_quantity=st.just(1e3),
                    collateral_ratio=st.floats(0.5, 3.0),
                ),
                min_size=1,
                max_size=3,
            )
        )
        first_neg, terminal = liquidate_cells(setups, collateral, reserve)
        # liquidate_cells opens every position at the first path's day-0 price.
        p0 = collateral[0, 0]
        for (g, r, k), day in np.ndenumerate(first_neg):
            expected = scalar_liquidation(
                setups[r], collateral[:, k], reserve[g, :, k], p0=p0
            )
            expected_day = expected.first_negative_day
            assert day == (-1 if expected_day is None else expected_day)
            assert terminal[g, r, k] == expected.terminal_margin

    def test_setups_must_share_reserve(self):
        collateral, reserve = self.prices()
        setups = self.setups[:1] + (LiquidationSetup(1e8, LiquidityModel(1.0), 2e6),)
        with pytest.raises(InvalidParams):
            liquidate_cells(setups, collateral, reserve)


class TestBarrierOracle:
    """With nothing sold (l0 = 0) and no reserve, a position's margin is
    negative exactly when its collateral price falls below p0 /
    collateral_ratio: the log-price, a Gaussian random walk, crosses the
    constant barrier log(1 / collateral_ratio). So the share of paths that
    go undercollateralised has an answer that draws no random number."""

    ETH = GbmParams(223.0, -0.001592, 0.050581)
    STEP = ETH.sigma / 40

    def oracle(self, horizon, ratio, step=STEP):
        drift = self.ETH.mu - self.ETH.sigma**2 / 2
        barrier = -math.log(ratio)
        return discrete_barrier_probability(
            drift, self.ETH.sigma, horizon, barrier, step
        )

    @pytest.mark.parametrize("horizon, ratio", [(30, 1.5), (100, 2.0)])
    def test_halving_the_step_moves_the_answer_below_1e_4(self, horizon, ratio):
        p, absorbed = self.oracle(horizon, ratio)
        half, _ = self.oracle(horizon, ratio, self.STEP / 2)
        assert abs(half - p) < 1e-4
        assert absorbed.shape == (horizon,) and (absorbed >= 0).all()
        # Watching every instant, not once a day, can only catch more paths.
        normal_cdf = NormalDist().cdf
        drift, sigma = self.ETH.mu - self.ETH.sigma**2 / 2, self.ETH.sigma
        b, mean, sd = -math.log(ratio), drift * horizon, sigma * math.sqrt(horizon)
        continuous = normal_cdf((b - mean) / sd) + math.exp(
            2 * drift * b / sigma**2
        ) * normal_cdf((b + mean) / sd)
        assert p < continuous

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("horizon, ratio", [(30, 1.5), (100, 2.0)])
    def test_share_undercollateralised_within_4_se(self, seed, horizon, ratio):
        n_paths = 100_000
        setup = LiquidationSetup(1e8, LiquidityModel(0.0), 0.0, ratio)
        events = 0
        for _, blocks in correlated_chunks(
            self.ETH, self.ETH, (0.0,), horizon, n_paths, seed
        ):
            first_neg, _ = liquidate_cells([setup], *whole_chunk(blocks))
            events += int((first_neg >= 0).sum())
        share = events / n_paths
        p, _ = self.oracle(horizon, ratio)
        se = math.sqrt(p * (1 - p) / n_paths)
        assert abs(share - p) < 4 * se, (share, p, (share - p) / se)


def test_invalid_types():
    with pytest.raises(InvalidParams):
        LiquidityModel(-1.0)
    with pytest.raises(InvalidParams):
        LiquidityModel(math.inf)
    with pytest.raises(InvalidParams):
        LiquidityModel(30_000, math.nan)


@pytest.mark.parametrize(
    "args",
    [(math.inf, 1e6, 1.5), (1e8, math.inf, 1.5), (1e8, 1e6, math.nan)],
    ids=["debt", "reserve_quantity", "collateral_ratio"],
)
def test_liquidation_setup_rejects_non_finite(args):
    debt, reserve, ratio = args
    with pytest.raises(InvalidParams):
        LiquidationSetup(debt, LiquidityModel(30_000), reserve, ratio)


@pytest.mark.parametrize(
    "args",
    [(-1.0, 1e6, 1.5), (1e8, -1.0, 1.5), (1e8, 1e6, 0.0), (1e8, 1e6, -1.5)],
    ids=["debt", "reserve_quantity", "zero_ratio", "negative_ratio"],
)
def test_liquidation_setup_rejects_out_of_range(args):
    debt, reserve, ratio = args
    with pytest.raises(InvalidParams):
        LiquidationSetup(debt, LiquidityModel(30_000), reserve, ratio)
