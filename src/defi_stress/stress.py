"""Scenario orchestration: Monte Carlo sweep over debt levels and liquidity
regimes, worst-case trace extraction, heatmap grids and correlation sweeps.

All cells of one report are computed from a single seeded ensemble, so
differences between cells are attributable to debt and liquidity alone.
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

from .errors import InvalidParams, SchemaError
from .paths import (
    GbmParams,
    PathEnsemble,
    select_worst_path,
    simulate_correlated,
    sweep_correlated,
)
from .protocol import (
    CollateralPosition,
    LiquidationSetup,
    LiquidationTrace,
    LiquidityModel,
    ProtocolState,
    liquidate_ensemble,
    run_liquidation,
)

CONFIG_SCHEMA = "stress-config/1"


def _trace_name(debt: float, liquidity: LiquidityModel) -> str:
    """The name of a cell's trace CSV in a report directory."""
    return f"trace_debt{debt:g}_l0{liquidity.l0:g}_rho{liquidity.rho:g}.csv"


@dataclass(frozen=True)
class ScenarioConfig:
    collateral_params: GbmParams
    reserve_params: GbmParams
    rho_corr: float
    horizon_days: int
    n_paths: int
    seed: int
    debt_levels: tuple[float, ...]
    liquidity_regimes: tuple[LiquidityModel, ...]
    reserve_quantity: float
    collateral_ratio: float = 1.5

    def __post_init__(self):
        if not self.debt_levels or any(d <= 0 for d in self.debt_levels):
            raise InvalidParams("debt levels must be non-empty and positive")
        if not self.liquidity_regimes:
            raise InvalidParams("at least one liquidity regime required")
        # Each cell writes its trace to a file named by its (debt, regime)
        # pair, to 6 significant digits.
        names = set()
        for debt in self.debt_levels:
            for regime in self.liquidity_regimes:
                name = _trace_name(debt, regime)
                if name in names:
                    raise InvalidParams(
                        f"two cells would write {name}: debt levels and "
                        "liquidity regimes must differ in 6 significant digits"
                    )
                names.add(name)
        if self.horizon_days < 1:
            raise InvalidParams("horizon must be >= 1 day")
        if not -1.0 <= self.rho_corr <= 1.0:
            raise InvalidParams("rho_corr must lie in [-1, 1]")

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        if raw.get("schema") != CONFIG_SCHEMA:
            raise SchemaError(
                f"expected schema {CONFIG_SCHEMA!r}, got {raw.get('schema')!r}"
            )
        try:
            return cls(
                collateral_params=GbmParams(**raw["collateral"]),
                reserve_params=GbmParams(**raw["reserve"]),
                rho_corr=float(raw["rho_corr"]),
                horizon_days=int(raw["horizon_days"]),
                n_paths=int(raw["n_paths"]),
                seed=int(raw["seed"]),
                debt_levels=tuple(float(d) for d in raw["debt_levels"]),
                liquidity_regimes=tuple(
                    LiquidityModel(**r) for r in raw["liquidity_regimes"]
                ),
                reserve_quantity=float(raw["reserve_quantity"]),
                collateral_ratio=float(raw.get("collateral_ratio", 1.5)),
            )
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"bad stress config: {exc}") from exc
        except InvalidParams:
            raise
        except ValueError as exc:
            raise SchemaError(f"bad stress config: {exc}") from exc


@dataclass(frozen=True)
class CellResult:
    debt: float
    liquidity: LiquidityModel
    worst_path_index: int
    first_negative_day: int | None
    terminal_margin: float  # terminal margin of the worst path's trace
    min_terminal_margin: float  # lowest terminal margin across the ensemble
    trace: LiquidationTrace


@dataclass(frozen=True)
class StressReport:
    seed: int
    n_paths: int
    rho_corr: float
    cells: tuple[CellResult, ...]

    def cell(self, debt: float, liquidity: LiquidityModel) -> CellResult:
        for c in self.cells:
            if c.debt == debt and c.liquidity == liquidity:
                return c
        raise KeyError((debt, liquidity))


def _ensemble(config: ScenarioConfig) -> PathEnsemble:
    return simulate_correlated(
        config.collateral_params,
        config.reserve_params,
        config.rho_corr,
        config.horizon_days,
        config.n_paths,
        config.seed,
    )


def _cells(
    config: ScenarioConfig,
    ensemble: PathEnsemble,
    evaluate: Callable[[PathEnsemble, LiquidationSetup], object],
    threads: int,
) -> list:
    """evaluate(ensemble, setup) for every (debt level, liquidity regime)
    cell of config, debt-major, all cells sharing one seeded ensemble."""
    setups = [
        LiquidationSetup(
            debt=debt,
            liquidity=regime,
            reserve_quantity=config.reserve_quantity,
            collateral_ratio=config.collateral_ratio,
        )
        for debt in config.debt_levels
        for regime in config.liquidity_regimes
    ]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda s: evaluate(ensemble, s), setups))
    return [evaluate(ensemble, s) for s in setups]


def _worst_path(
    ensemble: PathEnsemble, setup: LiquidationSetup
) -> tuple[int, int | None, float]:
    """(worst path index, its first negative day, lowest terminal margin)."""
    first_neg, terminal = liquidate_ensemble(
        setup, ensemble.collateral_paths, ensemble.reserve_paths
    )
    idx, day = select_worst_path(first_neg, terminal)
    return idx, day, float(terminal.min())


def _evaluate_cell(ensemble: PathEnsemble, setup: LiquidationSetup) -> CellResult:
    idx, day, min_terminal = _worst_path(ensemble, setup)
    p0 = float(ensemble.collateral_paths[0, 0])
    state = ProtocolState(
        positions=(
            CollateralPosition("collateral", setup.initial_collateral_units(p0)),
        ),
        reserve_quantity=setup.reserve_quantity,
        debt=setup.debt,
    )
    trace = run_liquidation(
        state,
        ensemble.collateral_paths[idx],
        ensemble.reserve_paths[idx],
        setup.liquidity,
    )
    return CellResult(
        debt=setup.debt,
        liquidity=setup.liquidity,
        worst_path_index=idx,
        first_negative_day=day,
        terminal_margin=trace.terminal_margin,
        min_terminal_margin=min_terminal,
        trace=trace,
    )


def run_scenario(config: ScenarioConfig, threads: int = 1) -> StressReport:
    """Simulate one shared ensemble and record the worst-case trace for every
    (debt level, liquidity regime) cell. Deterministic for a fixed config,
    whatever the thread count."""
    return _report(config, _ensemble(config), threads)


def _report(
    config: ScenarioConfig, ensemble: PathEnsemble, threads: int
) -> StressReport:
    cells = tuple(_cells(config, ensemble, _evaluate_cell, threads))
    return StressReport(
        seed=config.seed,
        n_paths=config.n_paths,
        rho_corr=ensemble.correlation,
        cells=cells,
    )


def heatmap(
    config: ScenarioConfig,
    debt_grid: Sequence[float],
    l0_grid: Sequence[float],
    decay_rho: float | None = None,
    threads: int = 1,
) -> list[list[int | None]]:
    """Worst-case first-negative day per (debt, initial liquidity) cell.

    Rows follow debt_grid, columns l0_grid. The liquidity decay rate comes
    from the first regime of the base config unless overridden. All cells
    share the base config's seeded ensemble.
    """
    if not debt_grid or not l0_grid:
        raise InvalidParams("heatmap grids must be non-empty")
    rho = config.liquidity_regimes[0].rho if decay_rho is None else decay_rho
    grid_config = replace(
        config,
        debt_levels=tuple(debt_grid),
        liquidity_regimes=tuple(LiquidityModel(l0=l0, rho=rho) for l0 in l0_grid),
    )
    days = _cells(
        grid_config,
        _ensemble(grid_config),
        lambda e, s: _worst_path(e, s)[1],
        threads,
    )
    width = len(l0_grid)
    return [days[i : i + width] for i in range(0, len(days), width)]


def correlation_sweep(
    config: ScenarioConfig, rhos: Sequence[float], threads: int = 1
) -> dict[float, StressReport]:
    """One report per correlation level, same seed, so differences across
    reports isolate the correlation effect.

    Each report equals run_scenario(replace(config, rho_corr=rho), threads);
    the shocks and collateral prices are computed once for all levels.
    """
    reports = sweep_correlated(
        config.collateral_params,
        config.reserve_params,
        rhos,
        config.horizon_days,
        config.n_paths,
        config.seed,
        lambda ensemble: _report(config, ensemble, threads),
    )
    return dict(zip(rhos, reports))


def report_summary(report: StressReport) -> dict:
    return {
        "seed": report.seed,
        "n_paths": report.n_paths,
        "rho_corr": report.rho_corr,
        "cells": [
            {
                "debt": c.debt,
                "l0": c.liquidity.l0,
                "liquidity_rho": c.liquidity.rho,
                "worst_path_index": c.worst_path_index,
                "first_negative_day": c.first_negative_day,
                "terminal_margin": c.terminal_margin,
                "min_terminal_margin": c.min_terminal_margin,
            }
            for c in report.cells
        ],
    }


def write_report(report: StressReport, out_dir: str | Path) -> list[Path]:
    """Write per-cell trace CSVs and a summary JSON; returns the file list."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for c in report.cells:
        path = out_dir / _trace_name(c.debt, c.liquidity)
        c.trace.to_csv(path)
        written.append(path)
    summary_path = out_dir / "summary.json"
    summary_path.write_text(json.dumps(report_summary(report), indent=2) + "\n")
    written.append(summary_path)
    return written


def write_heatmap_csv(
    matrix: Sequence[Sequence[int | None]],
    debt_grid: Sequence[float],
    l0_grid: Sequence[float],
    path: str | Path,
) -> None:
    """Rows = debt levels, columns = initial liquidity; no-event cells empty."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["debt"] + [f"l0_{l0:g}" for l0 in l0_grid])
        for debt, row in zip(debt_grid, matrix):
            writer.writerow(
                [f"{debt:g}"] + ["" if v is None else v for v in row]
            )
