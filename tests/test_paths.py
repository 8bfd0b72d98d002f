import math
import warnings

import numpy as np
import pytest

from defi_stress import paths
from defi_stress.errors import InvalidParams, NumericError
from defi_stress.paths import (
    COLLATERAL,
    RESERVE,
    GbmParams,
    correlated_chunks,
    correlated_paths,
    simulate_gbm,
)
from defi_stress.protocol import (
    LiquidationSetup,
    LiquidityModel,
    liquidate_blocks,
    liquidate_cells,
)
from defi_stress.stress import _WorstPaths
from oracle import philox_increments, whole_chunk

ETH_FIT = GbmParams(p0=223.0, mu=0.001592, sigma=0.050581)


def ensemble(collateral, reserve, rho, horizon_days, n_paths, seed):
    """Every chunk of `correlated_chunks` for one rho, joined along the
    path axis: day-major collateral and reserve prices, (days, paths)."""
    chunks = correlated_chunks(
        collateral, reserve, (rho,), horizon_days, n_paths, seed
    )
    col, res = zip(*(whole_chunk(blocks) for _, blocks in chunks))
    return np.concatenate(col, axis=1), np.concatenate(res, axis=2)[0]


def log_return_corr(col: np.ndarray, res: np.ndarray) -> float:
    rc = np.diff(np.log(col), axis=0).ravel()
    rr = np.diff(np.log(res), axis=0).ravel()
    return float(np.corrcoef(rc, rr)[0, 1])


class TestIncrements:
    @pytest.mark.parametrize("asset", [COLLATERAL, RESERVE])
    @pytest.mark.parametrize("seed", [0, 42, 2**64 + 5])
    @pytest.mark.parametrize("horizon", [1, 365])
    def test_matches_one_generator_per_path(self, asset, seed, horizon):
        z = np.empty((horizon, 5000))
        paths._increments(seed, asset, range(5000), z)
        expected = philox_increments(seed, asset, horizon, 5000)
        assert z.T.tobytes() == expected.tobytes()

    def test_offset_selects_later_paths(self):
        z = np.empty((30, 20))
        paths._increments(7, RESERVE, range(13, 33), z)
        expected = philox_increments(7, RESERVE, 30, 33)[13:]
        assert z.T.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "start, n_paths",
        [
            (0, 3 * paths._TILE_PATHS),
            (paths._TILE_PATHS + 3, 2 * paths._TILE_PATHS + 5),
        ],
        ids=["whole_tiles", "offset_partial_tile"],
    )
    def test_tiles_written_into_a_view_match_one_generator_per_path(
        self, start, n_paths
    ):
        buffer = np.full((40, n_paths + 7), np.nan)
        out = buffer[5:35, 2 : 2 + n_paths]
        paths._increments(11, RESERVE, range(start, start + n_paths), out)
        expected = philox_increments(11, RESERVE, 30, start + n_paths)[start:]
        assert out.T.tobytes() == expected.tobytes()
        # Nothing outside the view was written.
        out[:] = np.nan
        assert np.isnan(buffer).all()


def cumsum_prices(params: GbmParams, z: np.ndarray) -> np.ndarray:
    """Day-major prices built with np.cumsum, the reference for the running
    sum of `_price_blocks`."""
    drift = params.mu - params.sigma**2 / 2.0
    log_prices = np.zeros((z.shape[0] + 1, z.shape[1]))
    log_prices[1:] = np.cumsum(drift + params.sigma * z, axis=0)
    return params.p0 * np.exp(log_prices)


def collateral_prices(params: GbmParams, z: np.ndarray, block_days: int) -> np.ndarray:
    """`_price_blocks` of one asset's shocks z, its blocks joined."""
    blocks = paths._price_blocks(params, None, (), z, None, block_days)
    return np.concatenate([col.copy() for col, _ in blocks])


class TestPricesFromShocks:
    @pytest.mark.parametrize("horizon", [1, 2, 365])
    @pytest.mark.parametrize("width", [1, 63, 65, 2048])
    def test_bit_equal_to_cumsum(self, horizon, width):
        z = np.random.default_rng(horizon * width).standard_normal((horizon, width))
        expected = cumsum_prices(ETH_FIT, z).tobytes()
        for block_days in (1, paths.DAY_BLOCK, horizon):
            assert collateral_prices(ETH_FIT, z, block_days).tobytes() == expected

    @pytest.mark.parametrize("mu", [1e308, -1e308, 10.0])
    def test_overflow_raises_without_warning(self, mu):
        z = np.random.default_rng(0).standard_normal((365, 65))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="not finite and > 0"):
                collateral_prices(GbmParams(223.0, mu, 0.05), z, paths.DAY_BLOCK)


def full_temporary_prices(collateral, reserve, rhos, horizon, n_paths, seed, start):
    """Day-major collateral and reserve prices of paths start ..
    start + n_paths - 1, each reserve shock formed from whole-chunk
    temporaries, rho * z_col + sqrt(1 - rho^2) * z_ind, and every asset
    priced with np.cumsum over all its days: the reference for the day
    blocks of `correlated_chunks`."""
    z_col = philox_increments(seed, COLLATERAL, horizon, start + n_paths)[start:].T
    z_ind = philox_increments(seed, RESERVE, horizon, start + n_paths)[start:].T
    reserve_prices = [
        cumsum_prices(reserve, rho * z_col + np.sqrt(1.0 - rho**2) * z_ind)
        for rho in rhos
    ]
    return cumsum_prices(collateral, z_col), np.stack(reserve_prices)


class TestCorrelatedPrices:
    RESERVE_FIT = GbmParams(223.0, 0.001592, 0.050581 / 2)
    B = paths.DAY_BLOCK

    @pytest.mark.parametrize(
        "horizon", [1, B - 1, B, B + 1, 4 * B - 1, 4 * B, 4 * B + 1, 365]
    )
    def test_day_blocks_equal_full_temporaries(self, horizon):
        rhos = (-1.0, -0.9, 0.0, 0.5, 1.0)
        shocks = np.empty((2, horizon, 37))
        blocks = paths._chunk_prices(
            ETH_FIT, self.RESERVE_FIT, rhos, 2**64 + 5, range(5, 42), shocks, self.B
        )
        col, res = whole_chunk(blocks)
        ref_col, ref_res = full_temporary_prices(
            ETH_FIT, self.RESERVE_FIT, rhos, horizon, 37, 2**64 + 5, 5
        )
        assert col.tobytes() == ref_col.tobytes()
        assert res.tobytes() == ref_res.tobytes()

    @pytest.mark.parametrize("rhos", [(-0.4,), (-0.9, -0.4, 0.1, 0.5, 0.9)])
    def test_memory_is_two_shock_arrays_and_one_day_block(self, traced_peak, rhos):
        # Drawing and liquidating one chunk holds its two shock arrays; the
        # rest is one day block of prices, the engine's per-entry arrays and
        # its day caps, none of which is (horizon x paths x rhos) in size.
        setups = [
            LiquidationSetup(4e8, LiquidityModel(30_000, 0.01), 1e6),
            LiquidationSetup(2e8, LiquidityModel(10_000, 0.0), 1e6),
        ]
        horizon, n_paths = 365, paths.CHUNK_PATHS

        def one_chunk():
            ((_, blocks),) = correlated_chunks(
                ETH_FIT, self.RESERVE_FIT, rhos, horizon, n_paths, seed=3
            )
            return liquidate_blocks(setups, blocks, ETH_FIT.p0, horizon + 1)

        peak, (first_neg, _) = traced_peak(one_chunk)
        assert first_neg.shape == (len(rhos), len(setups), n_paths)
        shocks = 2 * horizon * n_paths * 8
        # The day block, (DAY_BLOCK + 1) x (1 + rhos) x paths, its carried
        # row and its DAY_BLOCK x paths buffer of scaled shocks.
        block = 2 * (self.B + 1) * (1 + len(rhos)) * n_paths * 8
        # The engine's 15 arrays of one value per entry (outcomes included),
        # the copies a compaction makes (at most half as long), its bool
        # masks and index temporaries.
        engine = 24 * len(rhos) * len(setups) * n_paths * 8
        caps = 2 * (horizon + 1) * len(setups) * 8
        bound = shocks + block + engine + caps + 2**20
        assert peak < bound
        # The bound is tight enough to see one more whole price array.
        assert peak + (horizon + 1) * n_paths * 8 > bound


class TestSimulateGbm:
    def test_zero_vol_zero_drift_constant(self):
        paths = simulate_gbm(GbmParams(223, 0, 0), 10, 5, seed=0)
        assert np.all(paths == 223)

    def test_zero_vol_pure_drift(self):
        paths = simulate_gbm(GbmParams(100, 0.01, 0), 100, 3, seed=0)
        assert paths[:, -1] == pytest.approx([100 * math.e] * 3, rel=1e-12)

    def test_terminal_mean_matches_gbm_moment(self):
        # E[P_T] = p0 * exp(mu * T); 50k paths keep the MC error well under 1%
        paths = simulate_gbm(ETH_FIT, 100, 50_000, seed=11)
        expected = 223 * math.exp(0.001592 * 100)
        assert paths[:, -1].mean() == pytest.approx(expected, rel=0.01)

    def test_initial_column_is_p0(self):
        paths = simulate_gbm(ETH_FIT, 5, 100, seed=3)
        assert np.all(paths[:, 0] == 223.0)

    def test_positivity(self):
        paths = simulate_gbm(GbmParams(0.01, -0.5, 2.0), 50, 1000, seed=5)
        assert paths.min() > 0

    def test_determinism_and_partition_independence(self):
        a = simulate_gbm(ETH_FIT, 20, 10, seed=42)
        b = simulate_gbm(ETH_FIT, 20, 10, seed=42)
        few = simulate_gbm(ETH_FIT, 20, 3, seed=42)
        assert np.array_equal(a, b)
        assert np.array_equal(a[:3], few)

    def test_shorter_horizon_is_a_prefix(self):
        short = simulate_gbm(ETH_FIT, 20, 10, seed=42)
        long = simulate_gbm(ETH_FIT, 50, 10, seed=42)
        assert short.shape == (10, 21)
        assert np.array_equal(short, long[:, :21])

    def test_martingale_property(self):
        # with zero drift the price ratio is a martingale: E[P_T/p0] = 1
        sigma = 0.05
        paths = simulate_gbm(GbmParams(100, 0.0, sigma), 50, 50_000, seed=9)
        ratio = paths[:, -1] / 100
        se = ratio.std(ddof=1) / math.sqrt(ratio.size)
        assert abs(ratio.mean() - 1) < 3 * se

    def test_drift_equal_half_variance_centers_log_returns(self):
        # mu = sigma^2/2 cancels the log-space correction, so terminal
        # log-ratios average to zero (geometric mean of P_T/p0 is 1)
        sigma = 0.05
        params = GbmParams(100, sigma**2 / 2, sigma)
        paths = simulate_gbm(params, 50, 50_000, seed=9)
        log_ratio = np.log(paths[:, -1] / 100)
        se = log_ratio.std(ddof=1) / math.sqrt(log_ratio.size)
        assert abs(log_ratio.mean()) < 3 * se

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(params=GbmParams(100, 0, 0.1), horizon_days=0, n_paths=1),
            dict(params=GbmParams(100, 0, 0.1), horizon_days=5, n_paths=0),
        ],
    )
    def test_invalid_inputs(self, kwargs):
        with pytest.raises(InvalidParams):
            simulate_gbm(seed=0, **kwargs)

    def test_invalid_gbm_params(self):
        with pytest.raises(InvalidParams):
            GbmParams(0, 0, 0.1)
        with pytest.raises(InvalidParams):
            GbmParams(100, 0, -0.1)

    @pytest.mark.parametrize(
        "args",
        [(math.inf, 0, 0.1), (100, math.nan, 0.1), (100, 0, math.inf)],
        ids=["p0", "mu", "sigma"],
    )
    def test_non_finite_gbm_params(self, args):
        with pytest.raises(InvalidParams):
            GbmParams(*args)


class TestSimulateCorrelated:
    def test_perfect_correlation_identical_params(self):
        col, res = ensemble(ETH_FIT, ETH_FIT, 1.0, 20, 50, seed=1)
        assert np.array_equal(col, res)

    def test_zero_correlation(self):
        col, res = ensemble(ETH_FIT, ETH_FIT, 0.0, 100, 100_000, seed=2)
        assert abs(log_return_corr(col, res)) < 0.02

    def test_strong_correlation_half_sigma(self):
        reserve = GbmParams(223.0, 0.001592, 0.050581 / 2)
        col, res = ensemble(ETH_FIT, reserve, 0.9, 100, 100_000, seed=3)
        assert log_return_corr(col, res) == pytest.approx(0.9, abs=0.02)

    def test_collateral_matches_standalone_simulation(self):
        col, _ = ensemble(ETH_FIT, ETH_FIT, 0.5, 30, 40, seed=8)
        standalone = simulate_gbm(ETH_FIT, 30, 40, seed=8)
        assert np.array_equal(col.T, standalone)

    def test_fewer_paths_are_a_partition(self):
        reserve = GbmParams(223.0, 0.001592, 0.050581 / 2)
        few = ensemble(ETH_FIT, reserve, -0.4, 30, 3, seed=5)
        many = ensemble(ETH_FIT, reserve, -0.4, 30, 10, seed=5)
        assert np.array_equal(few[0], many[0][:, :3])
        assert np.array_equal(few[1], many[1][:, :3])

    def test_rho_out_of_range(self):
        with pytest.raises(InvalidParams):
            correlated_chunks(ETH_FIT, ETH_FIT, (1.5,), 10, 10, seed=0)

    def test_chunk_size_does_not_change_the_ensemble(self, monkeypatch):
        reserve = GbmParams(223.0, 0.001592, 0.050581 / 2)
        whole = ensemble(ETH_FIT, reserve, -0.4, 30, 50, seed=5)
        monkeypatch.setattr(paths, "CHUNK_PATHS", 7)
        chunked = ensemble(ETH_FIT, reserve, -0.4, 30, 50, seed=5)
        assert chunked[0].tobytes() == whole[0].tobytes()
        assert chunked[1].tobytes() == whole[1].tobytes()

    def test_one_path_redraw_equals_its_column(self):
        # Unsorted indices on both sides of a chunk boundary, two rhos.
        reserve = GbmParams(223.0, 0.001592, 0.050581 / 2)
        rhos, ks = (-0.4, 0.7), [4999, 0, 2048, 1, 2047]
        col, res = correlated_paths(ETH_FIT, reserve, rhos, 30, 2**64 + 5, ks)
        assert col.shape == (31, len(ks)) and res.shape == (31, len(rhos), len(ks))
        for g, rho in enumerate(rhos):
            whole_col, whole_res = ensemble(ETH_FIT, reserve, rho, 30, 5000, 2**64 + 5)
            for j, k in enumerate(ks):
                assert col[:, j].tobytes() == whole_col[:, k].tobytes()
                assert res[:, g, j].tobytes() == whole_res[:, k].tobytes()

    @pytest.mark.parametrize(
        "rhos, horizon, ks",
        [
            ((0.5,), 30, []),
            ((0.5,), 30, [3, -1]),
            ((0.5, 1.5), 30, [3]),
            ((0.5,), 0, [3]),
        ],
        ids=["no_path", "negative_index", "rho_out_of_range", "no_day"],
    )
    def test_redraw_rejects_bad_arguments_before_drawing(
        self, monkeypatch, rhos, horizon, ks
    ):
        monkeypatch.setattr(paths, "_increments", None)
        with pytest.raises(InvalidParams):
            correlated_paths(ETH_FIT, ETH_FIT, rhos, horizon, 0, ks)


def worst_path(matrix, setup):
    """(worst path index, first negative day) of setup over the rows of
    matrix, each a path of both the collateral and the reserve price,
    folded one path at a time as one chunk each."""
    prices = np.asarray(matrix, dtype=float).T
    worst = _WorstPaths((1, 1))
    for k in range(prices.shape[1]):
        path = prices[:, k : k + 1]
        worst.fold(k, *liquidate_cells([setup], path, path[None]))
    idx, day, _ = worst.cell(0, 0)
    return idx, day


class TestFastestUndercollateralization:
    # tiny l0 keeps the debt outstanding so the margin tracks prices
    setup = LiquidationSetup(
        debt=120.0, liquidity=LiquidityModel(l0=1e-6), reserve_quantity=0.0
    )

    def test_single_crossing_path(self):
        flat = [100.0] * 10
        crash = [100.0] * 7 + [10.0, 10.0, 10.0]
        assert worst_path([flat, crash, flat], self.setup) == (1, 7)

    def test_tie_breaks_to_lower_index(self):
        crash = [100.0] * 7 + [10.0, 10.0, 10.0]
        assert worst_path([[100.0] * 10, crash, crash], self.setup) == (1, 7)

    def test_no_event_returns_min_terminal_margin(self):
        high = [100.0] * 9 + [130.0]
        low = [100.0] * 9 + [90.0]  # margin 1.8*90 - 120 = 42 > 0
        idx, day = worst_path([high, low], self.setup)
        assert (idx, day) == (1, None)
