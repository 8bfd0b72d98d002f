import filecmp
import json
import math
import sys
from dataclasses import replace

import pytest

from defi_stress import paths, stress
from defi_stress.errors import InvalidParams, SchemaError
from defi_stress.paths import GbmParams, correlated_chunks, correlated_paths
from defi_stress.protocol import LiquidityModel, liquidate_cells
from defi_stress.stress import (
    ScenarioConfig,
    correlation_sweep,
    heatmap,
    run_scenario,
    write_heatmap_csv,
    write_report,
)
from oracle import margin, scalar_liquidation, select_worst_path, whole_chunk

BASELINE_COL = GbmParams(223.0, -0.001592, 0.050581)
BASELINE_RES = GbmParams(223.0, -0.001592, 0.050581 / 2)


def small_config(**overrides):
    base = dict(
        collateral_params=BASELINE_COL,
        reserve_params=BASELINE_RES,
        rho_corr=0.9,
        horizon_days=100,
        n_paths=500,
        seed=42,
        debt_levels=(4e8,),
        liquidity_regimes=(LiquidityModel(30_000, 0.01),),
        reserve_quantity=1e6,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestScenarioConfig:
    def test_from_dict_roundtrip(self, baseline_config):
        config = ScenarioConfig.from_dict(baseline_config)
        assert config.n_paths == 5000
        assert config.collateral_params.p0 == 223.0
        assert len(config.debt_levels) * len(config.liquidity_regimes) == 12

    def test_rejects_wrong_schema(self, baseline_config):
        bad = dict(baseline_config, schema="nope/9")
        with pytest.raises(SchemaError):
            ScenarioConfig.from_dict(bad)

    def test_rejects_out_of_range_correlation(self, baseline_config):
        bad = dict(baseline_config, rho_corr=2.0)
        with pytest.raises(InvalidParams):
            ScenarioConfig.from_dict(bad)

    def test_rejects_no_paths(self):
        with pytest.raises(InvalidParams, match="at least one path"):
            small_config(n_paths=0)

    def test_rejects_empty_debt_levels(self):
        with pytest.raises(InvalidParams):
            small_config(debt_levels=())

    def test_rejects_repeated_cells(self):
        # Two cells with one (debt, regime) pair would share a trace file.
        with pytest.raises(InvalidParams):
            small_config(debt_levels=(1e8, 1e8))
        with pytest.raises(InvalidParams):
            small_config(liquidity_regimes=(LiquidityModel(30_000, 0.01),) * 2)
        # Distinct values that agree to 6 significant digits share a name.
        with pytest.raises(InvalidParams):
            small_config(debt_levels=(1e8, 1.0000001e8))


class TestRunScenario:
    def test_flat_price_single_path(self):
        config = small_config(
            collateral_params=GbmParams(223.0, 0.0, 0.0),
            reserve_params=GbmParams(223.0, 0.0, 0.0),
            n_paths=1,
            debt_levels=(1e8,),
            liquidity_regimes=(LiquidityModel(1e9, 0.0),),
        )
        report = run_scenario(config)
        cell = report.cells[0]
        assert cell.first_negative_day is None
        # full discharge on day 0; trace stops there with a constant margin
        assert cell.trace.debt_remaining[0] == 0.0
        assert cell.terminal_margin == pytest.approx(
            0.5e8 + 223.0 * 1e6, rel=1e-12
        )

    def test_covers_full_cartesian_product(self):
        config = small_config(
            debt_levels=(1e8, 4e8),
            liquidity_regimes=(
                LiquidityModel(30_000, 0.0),
                LiquidityModel(30_000, 0.01),
            ),
            n_paths=200,
        )
        report = run_scenario(config)
        keys = {(c.debt, c.liquidity) for c in report.cells}
        assert len(keys) == 4

    def test_outputs_byte_identical_across_chunk_sizes(self, monkeypatch, tmp_path):
        config = small_config(
            n_paths=150,
            debt_levels=(1e8, 4e8),
            liquidity_regimes=(
                LiquidityModel(30_000, 0.0),
                LiquidityModel(10_000, 0.01),
            ),
        )
        grids = ([1e8, 3e8, 4e8], [10_000, 30_000])
        grid_config = replace(
            config,
            debt_levels=tuple(grids[0]),
            liquidity_regimes=tuple(LiquidityModel(l0) for l0 in grids[1]),
        )
        outputs = []
        # B - 1 and B + 1 start chunks inside a block of paths' generator.
        B = paths.BLOCK_PATHS
        for chunk in (1, 7, B - 1, B + 1, 2048, config.n_paths):
            monkeypatch.setattr(paths, "CHUNK_PATHS", chunk)
            out = tmp_path / str(chunk)
            write_report(run_scenario(config), out)
            write_heatmap_csv(heatmap(grid_config), *grids, out / "heatmap.csv")
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert len(outputs[0]) == 6
        first_days = json.loads(outputs[0]["summary.json"])["cells"]
        assert {c["first_negative_day"] is None for c in first_days} == {True, False}
        for other in outputs[1:]:
            assert other == outputs[0]

    def test_outputs_byte_identical_across_day_blocks(self, monkeypatch, tmp_path):
        config = small_config(
            n_paths=150,
            debt_levels=(1e8, 4e8),
            liquidity_regimes=(
                LiquidityModel(30_000, 0.0),
                LiquidityModel(10_000, 0.01),
            ),
        )
        outputs = []
        # One day at a time, the default, a last block of one day (100 days
        # of shocks), and every day in one block.
        for block_days in (1, paths.DAY_BLOCK, 99, 100):
            monkeypatch.setattr(paths, "DAY_BLOCK", block_days)
            out = tmp_path / str(block_days)
            write_report(run_scenario(config), out)
            sweep = correlation_sweep(config, [-0.5, 0.9])
            for rho, report in sweep.items():
                write_report(report, out / f"rho{rho:g}")
            outputs.append(
                {
                    str(p.relative_to(out)): p.read_bytes()
                    for p in out.rglob("*")
                    if p.is_file()
                }
            )
        assert len(outputs[0]) == 3 * 5
        for other in outputs[1:]:
            assert other == outputs[0]

    def test_worst_paths_match_whole_ensemble_selection(self, monkeypatch):
        config = small_config(
            n_paths=300,
            debt_levels=(1e8, 4e8),
            liquidity_regimes=(
                LiquidityModel(30_000, 0.0),
                LiquidityModel(10_000, 0.01),
            ),
        )
        monkeypatch.setattr(paths, "CHUNK_PATHS", 64)
        report = run_scenario(config)
        # The whole ensemble as one chunk, every cell liquidated at once.
        monkeypatch.setattr(paths, "CHUNK_PATHS", config.n_paths)
        ((_, blocks),) = correlated_chunks(
            BASELINE_COL, BASELINE_RES, (0.9,), 100, 300, seed=42
        )
        collateral, reserve = whole_chunk(blocks)
        first_neg, terminal = liquidate_cells(config.setups(), collateral, reserve)
        for row, cell in enumerate(report.cells):
            assert (cell.worst_path_index, cell.first_negative_day) == (
                select_worst_path(first_neg[0, row], terminal[0, row])
            )
            assert cell.min_terminal_margin == terminal[0, row].min()

    def test_report_files_are_byte_identical_across_runs(self, tmp_path):
        config = small_config(n_paths=300)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        write_report(run_scenario(config), d1)
        write_report(run_scenario(config), d2)
        names = sorted(p.name for p in d1.iterdir())
        assert names == sorted(p.name for p in d2.iterdir())
        for name in names:
            assert filecmp.cmp(d1 / name, d2 / name, shallow=False), name


class TestHeatmap:
    def test_single_cell_matches_run_scenario(self):
        config = small_config(n_paths=400)
        matrix = heatmap(config)
        report = run_scenario(config)
        assert matrix[0][0] == report.cells[0].first_negative_day

    def test_grid_matches_run_scenario_without_traces(self, monkeypatch):
        debts, l0s = (2e8, 4e8), (10_000, 30_000)
        config = small_config(
            n_paths=400,
            debt_levels=debts,
            liquidity_regimes=tuple(LiquidityModel(l0, 0.01) for l0 in l0s),
        )
        report = run_scenario(config)
        expected = [
            [report.cell(d, LiquidityModel(l0, 0.01)).first_negative_day for l0 in l0s]
            for d in debts
        ]
        calls = []
        monkeypatch.setattr(stress, "trace_cells", lambda *a: calls.append(a))
        assert heatmap(config) == expected
        assert calls == []

    def test_monotone_in_debt_and_liquidity(self):
        for seed in (1, 2):
            config = small_config(
                n_paths=2000,
                seed=seed,
                debt_levels=(1e8, 2e8, 3e8, 4e8),
                liquidity_regimes=tuple(
                    LiquidityModel(l0, 0.01) for l0 in (10_000, 20_000, 30_000)
                ),
            )
            matrix = heatmap(config)
            as_num = [
                [math.inf if v is None else v for v in row] for row in matrix
            ]
            for j in range(3):  # more debt -> never slower
                col = [as_num[i][j] for i in range(4)]
                assert col == sorted(col, reverse=True), (seed, col)
            for i in range(4):  # more liquidity -> never faster
                assert as_num[i] == sorted(as_num[i]), (seed, as_num[i])

    def test_empty_grid_rejected(self):
        # A heatmap's grid is its config's cells: an empty grid is rejected
        # when the config is built.
        for empty in (dict(debt_levels=()), dict(liquidity_regimes=())):
            with pytest.raises(InvalidParams):
                small_config(**empty)

    def test_csv_serializes_none_as_empty(self, tmp_path):
        out = tmp_path / "heatmap.csv"
        write_heatmap_csv([[None, 12], [3, 4]], [1e8, 4e8], [1e4, 3e4], out)
        lines = out.read_text().splitlines()
        assert lines[0] == "debt,l0_10000,l0_30000"
        assert lines[1] == "1e+08,,12"
        assert lines[2] == "4e+08,3,4"


class TestCorrelationSweep:
    def test_single_rho_equals_run_scenario(self):
        config = small_config(n_paths=300)
        sweep = correlation_sweep(config, [0.9])
        assert set(sweep) == {0.9}
        direct = run_scenario(config)
        assert [c.first_negative_day for c in sweep[0.9].cells] == [
            c.first_negative_day for c in direct.cells
        ]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_equals_run_scenario_per_rho_with_shocks_drawn_once(
        self, monkeypatch, threads
    ):
        # correlation_sweep's threads has no effect; both values must give
        # the same reports.
        config = small_config(
            n_paths=300,
            debt_levels=(1e8, 4e8),
            liquidity_regimes=(
                LiquidityModel(30_000, 0.0),
                LiquidityModel(10_000, 0.01),
            ),
        )
        rhos = [-0.9, 0.1, 0.9]
        draws = []
        increments = paths._increments
        monkeypatch.setattr(
            paths, "_increments", lambda *a: draws.append(a) or increments(*a)
        )
        sweep = correlation_sweep(config, rhos, threads=threads)
        # Per asset: one shock column per path, whatever len(rhos) is, plus
        # one per distinct worst path across all reports, drawn in one call
        # after the ensemble's one chunk.
        redrawn = {c.worst_path_index for r in sweep.values() for c in r.cells}
        for asset in (paths.COLLATERAL, paths.RESERVE):
            columns = [len(a[2]) for a in draws if a[1] == asset]
            assert columns == [config.n_paths, len(redrawn)]
        assert list(sweep) == rhos
        for rho in rhos:
            # dataclass equality compares every field, traces included
            assert sweep[rho] == run_scenario(replace(config, rho_corr=rho))

    def test_rejects_out_of_range_rho_before_drawing(self, monkeypatch):
        monkeypatch.setattr(paths, "_increments", None)
        with pytest.raises(InvalidParams):
            correlation_sweep(small_config(), [0.5, 1.5])

    def test_traces_equal_the_scalar_oracle_on_the_worst_paths(self, baseline_config):
        # Each trace opens its position at its path's first price.
        config = ScenarioConfig.from_dict(baseline_config)
        sweep = correlation_sweep(config, [-0.5, 0.9])
        # Cells share worst paths, so the shared draw is exercised.
        indices = [c.worst_path_index for r in sweep.values() for c in r.cells]
        assert len(set(indices)) < len(indices)
        for rho, report in sweep.items():
            for setup, cell in zip(config.setups(), report.cells, strict=True):
                col, res = correlated_paths(
                    config.collateral_params,
                    config.reserve_params,
                    [rho],
                    config.horizon_days,
                    config.seed,
                    [cell.worst_path_index],
                )
                trace = scalar_liquidation(setup, col[:, 0], res[:, 0, 0])
                assert cell.trace == trace, (rho, setup)

    def test_negative_correlation_bolsters_margin(self):
        config = small_config(n_paths=2000)
        sweep = correlation_sweep(config, [-0.9, 0.9])
        neg = sweep[-0.9].cells[0].min_terminal_margin
        pos = sweep[0.9].cells[0].min_terminal_margin
        assert neg > pos


def test_trace_margins_match_the_margin_oracle(baseline_config):
    # The oracle takes the debt off before adding the reserve; each order
    # rounds within 2 eps of the largest term.
    config = ScenarioConfig.from_dict(baseline_config)
    reserve = config.reserve_quantity
    rows = 0
    for cell in run_scenario(config).cells:
        trace = cell.trace
        for units, price, reserve_price, debt, value in zip(
            trace.collateral_remaining,
            trace.collateral_prices,
            trace.reserve_prices,
            trace.debt_remaining,
            trace.margins,
        ):
            scale = max(abs(units * price), abs(reserve * reserve_price), debt)
            expected = margin(units, price, reserve, reserve_price, debt)
            assert abs(value - expected) <= 4 * sys.float_info.epsilon * scale
            rows += 1
    assert rows > len(config.setups())


@pytest.mark.parametrize("factor", [4.0, 0.5])
def test_money_scaled_by_a_power_of_two_scales_every_margin_exactly(
    baseline_config, factor
):
    # Every debt level, l0 and the reserve quantity scaled through the config.
    # A power of two scales each rounded operation exactly, so the same paths
    # fail on the same days, and every money or unit column scales with ==.
    # Prices are not scaled.
    scaled = json.loads(json.dumps(baseline_config))
    scaled["debt_levels"] = [d * factor for d in scaled["debt_levels"]]
    for regime in scaled["liquidity_regimes"]:
        regime["l0"] *= factor
    scaled["reserve_quantity"] *= factor
    base = run_scenario(ScenarioConfig.from_dict(baseline_config))
    other = run_scenario(ScenarioConfig.from_dict(scaled))
    assert any(c.first_negative_day is not None for c in base.cells)
    for a, b in zip(base.cells, other.cells, strict=True):
        assert (b.debt, b.liquidity.l0) == (a.debt * factor, a.liquidity.l0 * factor)
        assert b.worst_path_index == a.worst_path_index
        assert b.first_negative_day == a.first_negative_day
        assert b.min_terminal_margin == a.min_terminal_margin * factor
        assert b.trace.days == a.trace.days
        assert b.trace.first_negative_day == a.trace.first_negative_day
        assert b.trace.collateral_prices == a.trace.collateral_prices
        assert b.trace.reserve_prices == a.trace.reserve_prices
        for column in (
            "units_sold",
            "proceeds",
            "debt_remaining",
            "collateral_remaining",
            "margins",
        ):
            values = getattr(a.trace, column)
            assert getattr(b.trace, column) == [v * factor for v in values], column


def test_summary_json_contains_cells(tmp_path):
    config = small_config(n_paths=200)
    files = write_report(run_scenario(config), tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["seed"] == 42
    assert len(summary["cells"]) == 1
    cell = summary["cells"][0]
    assert {"debt", "l0", "first_negative_day", "terminal_margin"} <= set(cell)
    assert any(p.name.startswith("trace_") for p in files)
