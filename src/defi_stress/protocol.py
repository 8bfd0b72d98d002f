"""Lending-protocol model: liquidity decay and the daily liquidation engine.

The margin used inside liquidation scenarios is the plain buffer
collateral value + reserve value - debt (no overcollateralization factor).
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import HorizonMismatch, InvalidParams, NumericError

# Relative tolerance for treating residual debt as fully discharged.
_DEBT_EPS = 1e-9


@dataclass(frozen=True)
class LiquidityModel:
    """Daily sellable quantity decaying as l0 * exp(-rho * t)."""

    l0: float
    rho: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.l0) and math.isfinite(self.rho)):
            raise InvalidParams("liquidity parameters must be finite")
        if self.l0 < 0 or self.rho < 0:
            raise InvalidParams("liquidity parameters must be >= 0")


@dataclass(frozen=True)
class LiquidationSetup:
    """One stress cell: a debt level, a liquidity regime and the reserve pool.

    Initial collateral units are debt * collateral_ratio / p0, i.e. the
    protocol starts exactly at its collateralization ratio (150% default).
    """

    debt: float
    liquidity: LiquidityModel
    reserve_quantity: float
    collateral_ratio: float = 1.5

    def __post_init__(self):
        values = (self.debt, self.reserve_quantity, self.collateral_ratio)
        if not all(map(math.isfinite, values)):
            raise InvalidParams(
                "debt, reserve quantity and collateral ratio must be finite"
            )
        if self.debt < 0:
            raise InvalidParams("debt must be >= 0")
        if self.reserve_quantity < 0:
            raise InvalidParams("reserve quantity must be >= 0")
        if self.collateral_ratio <= 0:
            raise InvalidParams("collateral ratio must be > 0")

    def initial_collateral_units(self, p0: float) -> float:
        if not 0 < p0 < math.inf:
            raise InvalidParams("initial price must be finite and > 0")
        return self.debt * self.collateral_ratio / p0


@dataclass
class LiquidationTrace:
    """Per-day record of a liquidation run over one price path."""

    days: list[int] = field(default_factory=list)
    collateral_prices: list[float] = field(default_factory=list)
    reserve_prices: list[float] = field(default_factory=list)
    units_sold: list[float] = field(default_factory=list)
    proceeds: list[float] = field(default_factory=list)
    debt_remaining: list[float] = field(default_factory=list)
    collateral_remaining: list[float] = field(default_factory=list)
    margins: list[float] = field(default_factory=list)
    first_negative_day: int | None = None

    def __len__(self) -> int:
        return len(self.days)

    @property
    def terminal_margin(self) -> float:
        return self.margins[-1]

    CSV_HEADER = (
        "day,col_price,res_price,units_sold,proceeds,"
        "debt_remaining,collateral_remaining,margin"
    )

    def _columns(self) -> tuple[list, ...]:
        """The per-day lists, in CSV_HEADER order."""
        return (
            self.days,
            self.collateral_prices,
            self.reserve_prices,
            self.units_sold,
            self.proceeds,
            self.debt_remaining,
            self.collateral_remaining,
            self.margins,
        )

    def to_csv(self, path: str | Path) -> None:
        with Path(path).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.CSV_HEADER.split(","))
            writer.writerows(zip(*self._columns()))


def liquidity_at(model: LiquidityModel, t: float) -> float:
    """Sellable units on day t: l0 * exp(-rho * t)."""
    return model.l0 * math.exp(-model.rho * t)


def _liquidate(
    debt0: np.ndarray,
    coll0: np.ndarray,
    reserve: float,
    caps: np.ndarray,
    collateral_prices: np.ndarray,
    reserve_prices: np.ndarray,
    history: list | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The daily liquidation rule, run on a block of groups x rows x paths.

    Row r starts with debt0[r] and coll0[r] (each a (rows, 1) column) and
    every row holds the same reserve units; caps[t] holds every row's
    sellable units on day t, (rows, 1). Prices are day-major:
    collateral_prices is (days, paths), reserve_prices (groups, days,
    paths), and every row runs against every group's reserve prices, so the
    block has shape (groups, rows, paths).

    Each day t the protocol sells u_t = min(L(t), collateral left,
    debt left / price) on every entry whose debt is outstanding; proceeds
    retire debt one-for-one at the day's price (no price impact). The margin
    is the plain post-sale buffer collateral + reserve - debt. An entry
    stops once its debt is discharged, and the loop once every entry has
    stopped.

    Returns (first_negative_day, terminal_margin), flat over the block in C
    order. An entry's first negative day is the first day its margin is
    negative while it owes debt, -1 if none; its terminal margin is its
    margin on its last active day: the day its debt is discharged, or the
    last day of the horizon.

    The block is held as flat per-entry arrays, in block order. A stopped
    entry owes nothing, so it sells min(cap, coll, 0) = 0 and is carried
    along unchanged until the live entries are half the current length or
    fewer; then the stopped ones are dropped, keeping the order. So a day
    costs at most twice its live entries, and every day's prices and caps
    are gathered per entry.

    If history is a list, each day appends (entries, active, columns) to it:
    the flat block indices of the current entries, a mask of those whose
    debt was outstanding that morning, and a (7, entries) array holding per
    entry the collateral price, reserve price, units sold, proceeds, debt
    left, collateral left and margin, in LiquidationTrace's column order. A
    zero price raises FloatingPointError instead of warning, and a block
    whose margins could overflow raises NumericError before the first day.
    """
    if reserve_prices.shape[1:] != collateral_prices.shape:
        raise HorizonMismatch("collateral and reserve paths must share a shape")
    # Prices are gathered into float buffers, which take no other dtype.
    collateral_prices = np.asarray(collateral_prices, dtype=float)
    reserve_prices = np.asarray(reserve_prices, dtype=float)
    # An entry's collateral never exceeds its start, nor a price the block's
    # highest, so each margin term is at most one of these products. Each
    # bound trips on a single path, whatever the chunking; with both finite,
    # so is collateral + reserve - debt.
    bounds = (
        4.0 * float(coll0.max()) * float(collateral_prices.max()),
        4.0 * reserve * float(reserve_prices.max()),
    )
    if not all(map(math.isfinite, bounds)):
        raise NumericError("a margin overflows: collateral or reserve too large")
    n_days, n_paths = collateral_prices.shape
    n_rows = len(debt0)
    m = len(reserve_prices) * n_rows * n_paths
    entries = np.arange(m)
    path = entries % n_paths
    row = entries // n_paths % n_rows
    # Index into one day's (groups, paths) reserve prices, flattened.
    group_path = entries // (n_rows * n_paths) * n_paths + path
    debt = debt0[row, 0]
    coll = coll0[row, 0]
    discharge_floor = (_DEBT_EPS * debt0)[row, 0]
    first_neg = np.full(m, -1, dtype=np.int64)
    terminal = np.empty(m)
    active = np.ones(m, dtype=bool)
    discharged = np.empty(m, dtype=bool)
    p_col, p_res, u, proceeds, margin, reserve_value = (np.empty(m) for _ in range(6))
    # debt / price may overflow to inf; the min() with the cap discards it.
    with np.errstate(divide="raise", invalid="raise", over="ignore"):
        for t in range(n_days):
            # mode="clip" writes straight into out; every index is in range.
            np.take(collateral_prices[t], path, out=p_col, mode="clip")
            np.take(reserve_prices[:, t], group_path, out=p_res, mode="clip")
            np.take(caps[t, :, 0], row, out=u, mode="clip")
            np.minimum(u, coll, out=u)
            np.divide(debt, p_col, out=proceeds)
            np.minimum(u, proceeds, out=u)
            np.multiply(u, p_col, out=proceeds)
            np.subtract(debt, proceeds, out=debt)
            np.maximum(debt, 0.0, out=debt)
            np.less_equal(debt, discharge_floor, out=discharged)
            np.logical_and(discharged, active, out=discharged)
            np.copyto(debt, 0.0, where=discharged)
            np.subtract(coll, u, out=coll)
            np.multiply(coll, p_col, out=margin)
            np.multiply(reserve, p_res, out=reserve_value)
            np.add(margin, reserve_value, out=margin)
            np.subtract(margin, debt, out=margin)
            if history is not None:
                columns = (p_col, p_res, u, proceeds, debt, coll, margin)
                history.append((entries, active.copy(), np.array(columns)))
            # Few entries turn negative or stop on one day, so only theirs
            # are written, through their block indices.
            negative = entries[(margin < 0.0) & active]
            negative = negative[first_neg[negative] < 0]
            first_neg[negative] = t
            last = np.flatnonzero(active if t == n_days - 1 else discharged)
            terminal[entries[last]] = margin[last]
            np.logical_xor(active, discharged, out=active)
            live = np.count_nonzero(active)
            if 2 * live > m:
                continue
            if live == 0:
                break
            # Drop the stopped entries, in order, and shrink every buffer.
            keep = np.flatnonzero(active)
            per_entry = (entries, path, row, group_path, debt, coll, discharge_floor)
            entries, path, row, group_path, debt, coll, discharge_floor = (
                a[keep] for a in per_entry
            )
            m = live
            buffers = (p_col, p_res, u, proceeds, margin, reserve_value)
            p_col, p_res, u, proceeds, margin, reserve_value = (b[:m] for b in buffers)
            active, discharged = active[:m], discharged[:m]
            active[...] = True
    return first_neg, terminal


@functools.lru_cache(maxsize=1)
def _caps(liquidity: tuple[LiquidityModel, ...], n_days: int) -> np.ndarray:
    """Sellable units per day and regime, (n_days, len(liquidity), 1),
    read-only. Every chunk of a pass asks for the same table, so the last
    one is kept."""
    caps = [[liquidity_at(model, t) for model in liquidity] for t in range(n_days)]
    table = np.array(caps)[..., None]
    table.flags.writeable = False
    return table


def _cell_rows(
    setups: Sequence[LiquidationSetup], collateral_prices: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """`_liquidate`'s (debt0, coll0, reserve, caps): one row per setup over
    the days of the day-major collateral_prices, each position opened at
    the first path's day-0 price. The setups must share one reserve
    quantity, and the block must hold a day and a path."""
    if not collateral_prices.size:
        raise InvalidParams("a price block needs at least one day and one path")
    reserve = {s.reserve_quantity for s in setups}
    if len(reserve) != 1:
        raise InvalidParams("setups must share one reserve quantity")
    p0 = float(collateral_prices[0, 0])
    return (
        np.array([[float(s.debt)] for s in setups]),
        np.array([[s.initial_collateral_units(p0)] for s in setups]),
        reserve.pop(),
        _caps(tuple(s.liquidity for s in setups), len(collateral_prices)),
    )


def run_liquidation(
    setup: LiquidationSetup,
    collateral_path: Sequence[float],
    reserve_path: Sequence[float],
) -> LiquidationTrace:
    """Sell collateral day by day against one simulated price path and
    record every day until the debt is discharged or the path ends. The
    position opens at the path's first price; one that is not finite and
    > 0 is InvalidParams, as is an empty path."""
    collateral_prices = np.asarray(collateral_path, dtype=float).reshape(-1, 1)
    history = []
    (first_neg,), _ = _liquidate(
        *_cell_rows([setup], collateral_prices),
        collateral_prices,
        np.asarray(reserve_path, dtype=float).reshape(1, -1, 1),
        history,
    )
    columns = np.concatenate([values for *_, values in history], axis=1).tolist()
    return LiquidationTrace(
        list(range(len(history))),
        *columns,
        first_negative_day=None if first_neg < 0 else int(first_neg),
    )


def liquidate_cells(
    setups: Sequence[LiquidationSetup],
    collateral_prices: np.ndarray,
    reserve_prices: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Liquidation of every setup over every path of a day-major block.

    collateral_prices is (days, paths) and reserve_prices (groups, days,
    paths), one reserve-price row per group (such as one per correlation).
    The setups must share one reserve quantity. Returns
    (first_negative_day, terminal_margin) arrays of shape
    (groups, len(setups), paths); first_negative_day is -1 where the margin
    never turns negative. Once a path's debt is discharged its margin is
    frozen at that day.
    """
    shape = (len(reserve_prices), len(setups), collateral_prices.shape[1])
    first_neg, terminal = _liquidate(
        *_cell_rows(setups, collateral_prices), collateral_prices, reserve_prices
    )
    return first_neg.reshape(shape), terminal.reshape(shape)
