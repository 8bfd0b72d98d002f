"""Lending-protocol model: margin equations, liquidity decay and the
daily liquidation engine.

The margin used inside liquidation scenarios is the plain buffer
collateral value + reserve value - debt (no overcollateralization factor);
`margin_basic` / `margin_with_reserve` expose the (1 + lambda) form for the
constraint checks.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import HorizonMismatch, InvalidParams, MissingPrice

# Relative tolerance for treating residual debt as fully discharged.
_DEBT_EPS = 1e-9


@dataclass(frozen=True)
class CollateralPosition:
    asset_id: str
    quantity: float
    lam: float = 0.0

    def __post_init__(self):
        if self.quantity < 0:
            raise InvalidParams("collateral quantity must be >= 0")
        if self.lam < 0:
            raise InvalidParams("overcollateralization factor must be >= 0")


@dataclass(frozen=True)
class ProtocolState:
    positions: tuple[CollateralPosition, ...]
    reserve_quantity: float
    debt: float

    def __post_init__(self):
        if self.debt < 0:
            raise InvalidParams("debt must be >= 0")
        if self.reserve_quantity < 0:
            raise InvalidParams("reserve quantity must be >= 0")

    def total_collateral_units(self) -> float:
        return sum(p.quantity for p in self.positions)


@dataclass(frozen=True)
class LiquidityModel:
    """Daily sellable quantity decaying as l0 * exp(-rho * t)."""

    l0: float
    rho: float = 0.0

    def __post_init__(self):
        if self.l0 < 0 or self.rho < 0:
            raise InvalidParams("liquidity parameters must be >= 0")


@dataclass(frozen=True)
class CounterpartyParams:
    r_d: float
    psi: float
    r_f: float

    def __post_init__(self):
        if self.psi < 0:
            raise InvalidParams("risk premium must be >= 0")


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
        if self.debt < 0:
            raise InvalidParams("debt must be >= 0")
        if self.collateral_ratio <= 0:
            raise InvalidParams("collateral ratio must be > 0")

    def initial_collateral_units(self, p0: float) -> float:
        if p0 <= 0:
            raise InvalidParams("initial price must be > 0")
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


def margin_basic(state: ProtocolState, prices: Mapping[str, float]) -> float:
    """Overcollateralization margin: sum (1 + lambda_i) * P_i * Q_i - debt."""
    total = 0.0
    for pos in state.positions:
        price = prices.get(pos.asset_id)
        if price is None:
            raise MissingPrice(f"no price for asset {pos.asset_id!r}")
        if price <= 0:
            raise InvalidParams(f"price for {pos.asset_id!r} must be > 0")
        total += (1.0 + pos.lam) * price * pos.quantity
    return total - state.debt


def margin_with_reserve(
    state: ProtocolState, prices: Mapping[str, float], reserve_price: float
) -> float:
    """margin_basic plus the reserve pool valued at reserve_price."""
    if reserve_price <= 0:
        raise InvalidParams("reserve price must be > 0")
    return margin_basic(state, prices) + reserve_price * state.reserve_quantity


def liquidity_at(model: LiquidityModel, t: float) -> float:
    """Sellable units on day t: l0 * exp(-rho * t)."""
    return model.l0 * math.exp(-model.rho * t)


def liquidity_constraint_satisfied(
    traded_notionals: Sequence[float], omega_max: float
) -> bool:
    """True iff cumulative traded notional over the horizon <= omega_max."""
    return math.fsum(traded_notionals) <= omega_max


def participation_ok(p: CounterpartyParams) -> bool:
    """Strict participation constraint r_d - psi > r_f.

    Values within 1e-12 relative of the boundary count as equal, so binary
    rounding noise (e.g. 0.05 - 0.02 vs 0.03) cannot flip the strict check.
    """
    excess = p.r_d - p.psi
    if math.isclose(excess, p.r_f, rel_tol=1e-12, abs_tol=1e-15):
        return False
    return excess > p.r_f


def _liquidate(
    debt0: float,
    coll0: float,
    reserve: float,
    liquidity: LiquidityModel,
    collateral_paths: np.ndarray,
    reserve_paths: np.ndarray,
    record: Callable[[int, np.ndarray, tuple[np.ndarray, ...]], None],
) -> None:
    """The daily liquidation rule, run on every path at once.

    Each day t the protocol sells u_t = min(L(t), collateral left,
    debt left / price) on every path whose debt is outstanding; proceeds
    retire debt one-for-one at the day's price (no price impact). The margin
    is the plain post-sale buffer collateral + reserve - debt. A path stops
    once its debt is discharged, and the loop once every path has stopped.

    After each day's sale it calls record(t, active, columns). active marks
    the paths whose debt was outstanding that morning; columns hold every
    path's collateral price, reserve price, units sold, proceeds, debt left,
    collateral left and margin, in LiquidationTrace's column order; active
    is updated in place after record returns. A zero price raises
    FloatingPointError instead of warning.
    """
    if collateral_paths.shape != reserve_paths.shape:
        raise HorizonMismatch("collateral and reserve paths must share a shape")
    n_paths, n_days = collateral_paths.shape
    debt = np.full(n_paths, float(debt0))
    coll = np.full(n_paths, float(coll0))
    active = np.ones(n_paths, dtype=bool)
    with np.errstate(divide="raise", invalid="raise"):
        for t in range(n_days):
            if not active.any():
                break
            p_col = collateral_paths[:, t]
            p_res = reserve_paths[:, t]
            cap = liquidity_at(liquidity, t)
            u = np.where(active, np.minimum(np.minimum(cap, coll), debt / p_col), 0.0)
            proceeds = u * p_col
            debt = np.maximum(debt - proceeds, 0.0)
            debt[debt <= _DEBT_EPS * debt0] = 0.0
            coll = coll - u
            margin = coll * p_col + reserve * p_res - debt
            record(t, active, (p_col, p_res, u, proceeds, debt, coll, margin))
            discharged = active & (debt == 0.0)
            active &= ~discharged


def run_liquidation(
    initial: ProtocolState,
    collateral_path: Sequence[float],
    reserve_path: Sequence[float],
    liquidity: LiquidityModel,
) -> LiquidationTrace:
    """Sell collateral day by day against one simulated price path and
    record every day until the debt is discharged or the path ends."""
    trace = LiquidationTrace()
    days, *columns = trace._columns()

    def record(t, _, values):
        days.append(t)
        for column, value in zip(columns, values):
            column.append(float(value[0]))
        if trace.margins[-1] < 0 and trace.first_negative_day is None:
            trace.first_negative_day = t

    _liquidate(
        initial.debt,
        initial.total_collateral_units(),
        initial.reserve_quantity,
        liquidity,
        np.asarray(collateral_path, dtype=float).reshape(1, -1),
        np.asarray(reserve_path, dtype=float).reshape(1, -1),
        record,
    )
    return trace


def liquidate_ensemble(
    setup: LiquidationSetup,
    collateral_paths: np.ndarray,
    reserve_paths: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Liquidation over a whole path ensemble.

    Returns (first_negative_day, terminal_margin) arrays, one entry per
    path; first_negative_day is -1 where the margin never turns negative.
    Once a path's debt is discharged its margin is frozen at that day.
    """
    n_paths = collateral_paths.shape[0]
    p0 = float(collateral_paths[0, 0])
    first_neg = np.full(n_paths, -1, dtype=np.int64)
    terminal = np.empty(n_paths)

    def record(t, active, columns):
        margin = columns[-1]
        first_neg[active & (margin < 0) & (first_neg < 0)] = t
        terminal[active] = margin[active]

    _liquidate(
        setup.debt,
        setup.initial_collateral_units(p0),
        setup.reserve_quantity,
        setup.liquidity,
        collateral_paths,
        reserve_paths,
        record,
    )
    return first_neg, terminal
