"""Lending-protocol model: liquidity decay and the daily liquidation engine.

The margin used inside liquidation scenarios is the plain buffer
collateral value + reserve value - debt (no overcollateralization factor).
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

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


def _bounded_days(
    blocks: Iterable[tuple[np.ndarray, np.ndarray]], coll_max: float, reserve: float
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The (collateral, reserve) prices of each day of the day blocks, in
    order. A block whose margins could overflow raises NumericError before
    its first day: an entry's collateral never exceeds coll_max, nor a price
    the block's highest, so each margin term is at most one of the products
    below. Each bound trips on a single path, whatever the chunking or the
    day blocks; with both finite, so is collateral + reserve - debt."""
    for collateral_prices, reserve_prices in blocks:
        bounds = (
            4.0 * coll_max * float(collateral_prices.max()),
            4.0 * reserve * float(reserve_prices.max()),
        )
        if not all(map(math.isfinite, bounds)):
            raise NumericError("a margin overflows: collateral or reserve too large")
        yield from zip(collateral_prices, reserve_prices)


def _liquidate(
    debt0: np.ndarray,
    coll0: np.ndarray,
    reserve: float,
    caps: np.ndarray,
    blocks: Iterable[tuple[np.ndarray, np.ndarray]],
    history: list | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The daily liquidation rule, run on a block of groups x rows x paths.

    Row r starts with debt0[r] and coll0[r] (each a (rows, 1) column) and
    every row holds the same reserve units; caps[t] holds every row's
    sellable units on day t, (rows, 1), for each of the len(caps) days.
    Prices come in day blocks, consecutive from day 0 and len(caps) days in
    all: each a pair of day-major collateral prices, (days, paths), and
    reserve prices, (days, groups, paths). Every row runs against every
    group's reserve prices, so the block has shape (groups, rows, paths).
    Prices are taken to be > 0, as `paths` checks each one it builds.

    Each day t the protocol sells u_t = min(L(t), collateral left,
    debt left / price) on every entry whose debt is outstanding; proceeds
    retire debt one-for-one at the day's price (no price impact). The margin
    is the plain post-sale buffer collateral + reserve - debt. An entry
    stops once its debt is discharged. Every day block is drawn, even once
    every entry has stopped, so every price is checked where it is built
    and bounded by `_bounded_days`.

    Returns (first_negative_day, terminal_margin), each of shape (groups,
    rows, paths). An entry's first negative day is the first day its margin
    is negative while it owes debt, -1 if none; its terminal margin is its
    margin on its last active day: the day its debt is discharged, or the
    last day of the horizon.

    The block is held as flat per-entry arrays, in block order; an entry is
    selling while it owes debt and holds collateral. One that has stopped
    sells min(cap, coll, 0) = 0 and is carried along unchanged until the
    selling entries are half the current length or fewer; then only the
    selling ones are kept, in order. So a day costs at most twice the
    entries still selling, and every day's prices and caps are gathered per
    entry. An entry that is stuck, out of collateral while it still owes,
    sells min(cap, 0, debt / price) = 0 from then on: its debt is fixed and
    its margin is 0 * price + reserve value - debt, which is reserve value -
    debt bit for bit. So when the others are dropped, the stuck ones are
    taken out of the loop. Those whose margin has not turned negative form
    a watch, re-formed at each drop: each watched entry costs a gather, a
    subtraction and a comparison a day. The others cost nothing until the
    last day, which gives every stuck entry's terminal margin.

    If history is a list, each day appends (entries, active, columns) to it:
    the flat block indices of the current entries, a mask of those whose
    debt was outstanding that morning, and a (7, entries) array holding per
    entry the collateral price, reserve price, units sold, proceeds, debt
    left, collateral left and margin, in LiquidationTrace's column order.
    A trace needs each of those rows every day, so stuck entries then stay
    among the selling ones; that is the only difference between the two
    modes. A zero price met by an entry that sells raises
    FloatingPointError instead of warning, and a day block whose margins
    could overflow raises NumericError before its first day.
    """
    days = _bounded_days(blocks, float(coll0.max()), reserve)
    first_day = next(days)
    n_days, n_rows = len(caps), len(debt0)
    n_groups, n_paths = first_day[1].shape
    shape = (n_groups, n_rows, n_paths)
    m = n_groups * n_rows * n_paths
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
    active, owing, stopped = (np.ones(m, dtype=bool) for _ in range(3))
    # p_res is written only for history.
    p_col, p_res, u, proceeds, margin, reserve_value = (np.empty(m) for _ in range(6))
    # Each day's reserve value per (group, path), gathered per entry.
    day_value = np.empty((n_groups, n_paths))
    # Stuck entries' (block index, group_path, debt): all of them, and the
    # watched ones, whose margin had not turned negative when entries were
    # last dropped. The watch is re-formed only then: doing so each day an
    # entry turns negative re-allocates it, and that raised peak RSS.
    stuck = watched = (entries[:0], group_path[:0], debt[:0])
    # debt / price may overflow to inf; the min() with the cap discards it.
    with np.errstate(divide="raise", invalid="raise", over="ignore"):
        for t, (day_col, day_res) in enumerate(itertools.chain([first_day], days)):
            np.multiply(reserve, day_res, out=day_value)
            if len(watched[0]):
                watch_entries, watch_group_path, watch_debt = watched
                value = day_value.take(watch_group_path)
                np.subtract(value, watch_debt, out=value)
                negative = watch_entries[value < 0.0]
                first_neg[negative[first_neg[negative] < 0]] = t
            if t == n_days - 1 and len(stuck[0]):
                stuck_entries, stuck_group_path, stuck_debt = stuck
                terminal[stuck_entries] = day_value.take(stuck_group_path) - stuck_debt
            if not m:
                continue
            # mode="clip" writes straight into out; every index is in range.
            day_col.take(path, out=p_col, mode="clip")
            day_value.take(group_path, out=reserve_value, mode="clip")
            caps[t, :, 0].take(row, out=u, mode="clip")
            np.minimum(u, coll, out=u)
            np.divide(debt, p_col, out=proceeds)
            np.minimum(u, proceeds, out=u)
            np.multiply(u, p_col, out=proceeds)
            np.subtract(debt, proceeds, out=debt)
            # A stopped entry holds debt 0 and the floor is >= 0, so the
            # entries that owe are among the active ones.
            np.greater(debt, discharge_floor, out=owing)
            np.logical_xor(active, owing, out=stopped)
            np.copyto(debt, 0.0, where=stopped)
            np.subtract(coll, u, out=coll)
            np.multiply(coll, p_col, out=margin)
            np.add(margin, reserve_value, out=margin)
            np.subtract(margin, debt, out=margin)
            if history is not None:
                day_res.take(group_path, out=p_res, mode="clip")
                columns = (p_col, p_res, u, proceeds, debt, coll, margin)
                history.append((entries, active.copy(), np.array(columns)))
            # Few entries turn negative or stop on one day, so only theirs
            # are written, through their block indices.
            negative = entries[(margin < 0.0) & active]
            negative = negative[first_neg[negative] < 0]
            first_neg[negative] = t
            last = (active if t == n_days - 1 else stopped).nonzero()[0]
            terminal[entries[last]] = margin[last]
            active, owing = owing, active
            selling = active
            if history is None:
                selling = np.greater(coll, 0.0, out=stopped)
                np.logical_and(selling, active, out=selling)
            live = np.count_nonzero(selling)
            if 2 * live > m:
                continue
            if history is None:
                # Those that owe but do not sell are stuck.
                idle = np.logical_xor(active, selling, out=owing).nonzero()[0]
                idle = (entries[idle], group_path[idle], debt[idle])
                stuck = tuple(map(np.concatenate, zip(stuck, idle)))
                watched = tuple(a[first_neg[stuck[0]] < 0] for a in stuck)
            # Keep the selling entries, in order, and shrink every buffer.
            keep = selling.nonzero()[0]
            per_entry = (entries, path, row, group_path, debt, coll, discharge_floor)
            entries, path, row, group_path, debt, coll, discharge_floor = (
                a[keep] for a in per_entry
            )
            m = live
            buffers = (p_col, p_res, u, proceeds, margin, reserve_value)
            p_col, p_res, u, proceeds, margin, reserve_value = (b[:m] for b in buffers)
            active, owing, stopped = active[:m], owing[:m], stopped[:m]
            active[...] = True
    return first_neg.reshape(shape), terminal.reshape(shape)


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
    setups: Sequence[LiquidationSetup], p0: float, n_days: int
) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """`_liquidate`'s (debt0, coll0, reserve, caps): one row per setup over
    n_days days, each position opened at price p0. The setups must share
    one reserve quantity."""
    reserve = {s.reserve_quantity for s in setups}
    if len(reserve) != 1:
        raise InvalidParams("setups must share one reserve quantity")
    return (
        np.array([[float(s.debt)] for s in setups]),
        np.array([[s.initial_collateral_units(p0)] for s in setups]),
        reserve.pop(),
        _caps(tuple(s.liquidity for s in setups), n_days),
    )


def _whole_block(
    setups: Sequence[LiquidationSetup],
    collateral_prices: np.ndarray,
    reserve_prices: np.ndarray,
) -> tuple:
    """`_liquidate`'s arguments, history aside, for whole day-major price
    arrays, collateral (days, paths) and reserve (groups, days, paths),
    handed over as one day block; each position is opened at the first
    path's day-0 price. The block must hold a day and a path."""
    # Prices are gathered into float buffers, which take no other dtype.
    collateral_prices = np.asarray(collateral_prices, dtype=float)
    reserve_prices = np.asarray(reserve_prices, dtype=float)
    if reserve_prices.shape[1:] != collateral_prices.shape:
        raise HorizonMismatch("collateral and reserve paths must share a shape")
    if not collateral_prices.size:
        raise InvalidParams("a price block needs at least one day and one path")
    p0, n_days = float(collateral_prices[0, 0]), len(collateral_prices)
    block = (collateral_prices, reserve_prices.transpose(1, 0, 2))
    return *_cell_rows(setups, p0, n_days), [block]


def trace_cells(
    setups: Sequence[LiquidationSetup],
    collateral_prices: np.ndarray,
    reserve_prices: np.ndarray,
) -> list[LiquidationTrace]:
    """The trace of setup r against path r, for every setup, from one
    engine call: every day until that debt is discharged or the path ends.

    collateral_prices is day-major, (days, len(setups)), and reserve_prices
    (1, days, len(setups)). Every position opens at the first path's day-0
    price, as in `liquidate_cells`. The setups run against every path as
    one (1, setups, paths) block, so history holds at most 7 x setups^2
    floats a day. Each day's diagonal rows are written into a (7, days,
    setups) table, and a trace is its setup's column, up to its last day.
    """
    n = len(setups)
    if np.shape(collateral_prices)[1:] != (n,) or np.shape(reserve_prices)[:1] != (1,):
        raise InvalidParams("traces need one path per setup and one reserve group")
    history = []
    first_neg, _ = _liquidate(
        *_whole_block(setups, collateral_prices, reserve_prices), history
    )
    table = np.empty((7, len(history), n))
    lengths = np.zeros(n, dtype=np.int64)
    # Entry (0, r, r) of the block has flat index r * (n + 1). A trace's
    # entry is active from day 0 until its last day, and recorded each day.
    for t, (entries, active, values) in enumerate(history):
        diagonal = (active & (entries % (n + 1) == 0)).nonzero()[0]
        cells = entries[diagonal] // (n + 1)
        table[:, t, cells] = values[:, diagonal]
        lengths[cells] = t + 1
    traces = []
    for r, length in enumerate(lengths.tolist()):
        day = first_neg[0, r, r].item()
        traces.append(
            LiquidationTrace(
                list(range(length)),
                *table[:, :length, r].tolist(),
                first_negative_day=None if day < 0 else day,
            )
        )
    return traces


def run_liquidation(
    setup: LiquidationSetup,
    collateral_path: Sequence[float],
    reserve_path: Sequence[float],
) -> LiquidationTrace:
    """Sell collateral day by day against one simulated price path and
    record every day until the debt is discharged or the path ends: the
    one-cell case of `trace_cells`. The position opens at the path's first
    price; one that is not finite and > 0 is InvalidParams, as is an empty
    path."""
    (trace,) = trace_cells(
        [setup],
        np.asarray(collateral_path, dtype=float).reshape(-1, 1),
        np.asarray(reserve_path, dtype=float).reshape(1, -1, 1),
    )
    return trace


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
    return _liquidate(*_whole_block(setups, collateral_prices, reserve_prices))


def liquidate_blocks(
    setups: Sequence[LiquidationSetup],
    blocks: Iterable[tuple[np.ndarray, np.ndarray]],
    p0: float,
    n_days: int,
) -> tuple[np.ndarray, np.ndarray]:
    """`liquidate_cells` over prices that come in day blocks, such as one
    chunk of `paths.correlated_chunks`: pairs of day-major collateral
    prices, (days, paths), and reserve prices, (days, groups, paths),
    consecutive from day 0 and n_days days in all. Each position opens at
    price p0. Each block is liquidated as it comes, and every block is drawn,
    even once every debt is discharged."""
    return _liquidate(*_cell_rows(setups, p0, n_days), blocks)
