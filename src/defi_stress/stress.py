"""Scenario orchestration: Monte Carlo sweep over debt levels and liquidity
regimes, worst-case trace extraction, heatmap grids and correlation sweeps.

All cells of one report are computed from a single seeded ensemble, so
differences between cells are attributable to debt and liquidity alone.

One pipeline serves every entry point. The ensemble is drawn in chunks of
`paths.CHUNK_PATHS` paths, and each chunk's prices are built
`paths.DAY_BLOCK` days at a time; on each chunk every (correlation, debt,
regime) row is liquidated in one block, each day block as soon as it is
built, and each row keeps only its running worst path. So memory holds one
chunk's shocks and one day block, however many paths and correlations
there are. The worst paths of each correlation are then re-drawn one by
one and traced together, in one engine call (`protocol.trace_cells`).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InvalidParams, SchemaError, as_int, as_list, check_schema
from .manifest import write_json
from .paths import GbmParams, correlated_chunks, correlated_path
from .paths import _check_rho, _check_size
from .protocol import (
    LiquidationSetup,
    LiquidationTrace,
    LiquidityModel,
    liquidate_blocks,
    trace_cells,
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
        # A cell's debt, l0 and rho name its trace file and label its heatmap
        # row and column, to 6 significant digits.
        cells = {}
        for setup in self.setups():
            cell = (setup.debt, setup.liquidity.l0, setup.liquidity.rho)
            name = _trace_name(setup.debt, setup.liquidity)
            if name in cells:
                raise InvalidParams(
                    f"cells (debt, l0, rho) {cells[name]} and {cell} print "
                    "alike: debt levels and liquidity regimes must differ in "
                    "6 significant digits"
                )
            cells[name] = cell
        _check_size(self.horizon_days, self.n_paths)
        _check_rho(self.rho_corr)

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        check_schema(raw, CONFIG_SCHEMA)
        try:
            return cls(
                collateral_params=GbmParams(**raw["collateral"]),
                reserve_params=GbmParams(**raw["reserve"]),
                rho_corr=float(raw["rho_corr"]),
                horizon_days=as_int(raw["horizon_days"], "horizon_days"),
                n_paths=as_int(raw["n_paths"], "n_paths"),
                seed=as_int(raw["seed"], "seed"),
                debt_levels=tuple(
                    float(d) for d in as_list(raw["debt_levels"], "debt_levels")
                ),
                liquidity_regimes=tuple(
                    LiquidityModel(**r)
                    for r in as_list(raw["liquidity_regimes"], "liquidity_regimes")
                ),
                reserve_quantity=float(raw["reserve_quantity"]),
                collateral_ratio=float(raw.get("collateral_ratio", 1.5)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad stress config: {exc}") from exc

    def setups(self) -> list[LiquidationSetup]:
        """One setup per (debt level, liquidity regime) cell, debt-major."""
        return [
            LiquidationSetup(
                debt=debt,
                liquidity=regime,
                reserve_quantity=self.reserve_quantity,
                collateral_ratio=self.collateral_ratio,
            )
            for debt in self.debt_levels
            for regime in self.liquidity_regimes
        ]


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


class _WorstPaths:
    """Running worst-path reduction of every (correlation, cell) row over
    the chunks of one ensemble, folded in path order.

    Per row it keeps the smallest (first negative day, path index) and the
    smallest terminal margin with the lowest path index on ties: the path
    with the earliest event, else the one with the lowest terminal margin,
    as `np.argmin` would pick it on the whole ensemble.
    """

    _NO_EVENT = np.iinfo(np.int64).max

    def __init__(self, rows: tuple[int, int]):
        self.day = np.full(rows, self._NO_EVENT)
        self.day_index = np.zeros(rows, dtype=np.int64)
        self.margin = np.full(rows, np.inf)
        self.margin_index = np.zeros(rows, dtype=np.int64)

    def fold(self, start: int, first_neg: np.ndarray, terminal: np.ndarray) -> None:
        """Merge the (rows, chunk) results of paths start, start + 1, ..."""
        days = np.where(first_neg >= 0, first_neg, self._NO_EVENT)
        for best, best_index, values in (
            (self.day, self.day_index, days),
            (self.margin, self.margin_index, terminal),
        ):
            local = values.argmin(axis=-1)
            smallest = np.take_along_axis(values, local[..., None], -1)[..., 0]
            # Strict: on a tie the earlier chunk holds the lower index.
            better = smallest < best
            best[better] = smallest[better]
            best_index[better] = start + local[better]

    def cell(self, group: int, row: int) -> tuple[int, int | None, float]:
        """(worst path index, its first negative day, lowest terminal margin)."""
        min_terminal = float(self.margin[group, row])
        day = int(self.day[group, row])
        if day == self._NO_EVENT:
            return int(self.margin_index[group, row]), None, min_terminal
        return int(self.day_index[group, row]), day, min_terminal


def _worst_paths(config: ScenarioConfig, rhos: Sequence[float]) -> _WorstPaths:
    """Every cell of config under every correlation in rhos, reduced over
    config's seeded ensemble one chunk of paths at a time, each chunk's
    prices liquidated day block by day block as they are built."""
    setups = config.setups()
    worst = _WorstPaths((len(rhos), len(setups)))
    p0, n_days = config.collateral_params.p0, config.horizon_days + 1
    for start, blocks in correlated_chunks(
        config.collateral_params,
        config.reserve_params,
        rhos,
        config.horizon_days,
        config.n_paths,
        config.seed,
    ):
        worst.fold(start, *liquidate_blocks(setups, blocks, p0, n_days))
    return worst


def _reports(config: ScenarioConfig, rhos: Sequence[float]) -> list[StressReport]:
    """One report per correlation in rhos, each with the worst-path trace of
    every cell, from one pass over the chunks of the ensemble."""
    setups = config.setups()
    worst = _worst_paths(config, rhos)
    reports = []
    for group, rho in enumerate(rhos):
        rows = [worst.cell(group, row) for row in range(len(setups))]
        worst_prices = [
            correlated_path(
                config.collateral_params,
                config.reserve_params,
                rho,
                config.horizon_days,
                config.seed,
                idx,
            )
            for idx, _, _ in rows
        ]
        collateral, reserve = (np.stack(p, axis=-1) for p in zip(*worst_prices))
        # No new NumericError: the ensemble pass bounded every day and path
        # of these prices with the same setups, so the same coll0.max().
        traces = trace_cells(setups, collateral, reserve[None])
        cells = [
            CellResult(
                debt=setup.debt,
                liquidity=setup.liquidity,
                worst_path_index=idx,
                first_negative_day=day,
                terminal_margin=trace.terminal_margin,
                min_terminal_margin=min_terminal,
                trace=trace,
            )
            for setup, (idx, day, min_terminal), trace in zip(setups, rows, traces)
        ]
        reports.append(
            StressReport(
                seed=config.seed,
                n_paths=config.n_paths,
                rho_corr=rho,
                cells=tuple(cells),
            )
        )
    return reports


def run_scenario(config: ScenarioConfig) -> StressReport:
    """Simulate one shared ensemble and record the worst-case trace for every
    (debt level, liquidity regime) cell. Deterministic for a fixed config."""
    return _reports(config, [config.rho_corr])[0]


def heatmap(config: ScenarioConfig) -> list[list[int | None]]:
    """Worst-case first-negative day of every cell of config, None where no
    path goes negative.

    Rows follow config.debt_levels, columns config.liquidity_regimes. All
    cells share config's seeded ensemble; no trace is computed.
    """
    worst = _worst_paths(config, [config.rho_corr])
    width = len(config.liquidity_regimes)
    days = [worst.cell(0, row)[1] for row in range(len(config.debt_levels) * width)]
    return [days[i : i + width] for i in range(0, len(days), width)]


def correlation_sweep(
    config: ScenarioConfig,
    rhos: Sequence[float],
    # No effect; kept as perfbench/corr_sweep.py passes threads=1 (TypeError without).
    threads: int = 1,
) -> dict[float, StressReport]:
    """One report per correlation level, same seed, so differences across
    reports isolate the correlation effect.

    Each report equals run_scenario(replace(config, rho_corr=rho)); every
    level's cells are liquidated together on each chunk of paths, whose
    shocks are drawn once and whose collateral prices are built once for
    every level. threads has no effect.
    """
    return dict(zip(rhos, _reports(config, rhos)))


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
    written.append(write_json(out_dir / "summary.json", report_summary(report)))
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
