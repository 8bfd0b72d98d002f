"""Reference implementations that the library is compared against.

- `scalar_liquidation`: the daily liquidation rule as one Python loop over
  the days of one price path, the oracle for `defi_stress.protocol`'s
  vectorised engine, field for field.
- `margin`: the overcollateralisation margin (1 + lambda) P Q + R q - D of
  one position, the oracle for the margin column of a liquidation trace.
- `philox_increments`: daily shocks from a freshly built Philox generator
  per path, the oracle for the reused generator of `defi_stress.paths`.
- `select_worst_path`: worst-path selection over a whole ensemble's
  liquidation results at once, the oracle for the chunk-by-chunk fold of
  `defi_stress.stress`.
- `whole_chunk`: one chunk's day blocks joined into whole day-major price
  arrays, the form `liquidate_cells` and the oracles above take.
- `whole_array_systemic_loss`: the contagion loss drawn as one
  (n_samples, n_protocols) array, the oracle for the block-by-block draw of
  `defi_stress.contagion.max_systemic_loss`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from defi_stress.contagion import CompositionModel, LossDistribution
from defi_stress.errors import HorizonMismatch
from defi_stress.protocol import (
    _DEBT_EPS,
    LiquidationSetup,
    LiquidationTrace,
    liquidity_at,
)


def margin(
    units: float,
    price: float,
    reserve_units: float,
    reserve_price: float,
    debt: float,
    lam: float = 0.0,
) -> float:
    """(1 + lam) * price * units + reserve_price * reserve_units - debt,
    with the debt taken off before the reserve is added."""
    return (1.0 + lam) * price * units - debt + reserve_price * reserve_units


def scalar_liquidation(
    setup: LiquidationSetup,
    collateral_path: Sequence[float],
    reserve_path: Sequence[float],
    p0: float | None = None,
) -> LiquidationTrace:
    """Sell collateral day by day against one simulated price path.

    The position opens with setup's debt, its reserve units and
    setup.initial_collateral_units(p0) collateral units; p0 defaults to the
    path's first price. Each day t the protocol sells u_t = min(L(t),
    collateral left, debt left / price); proceeds retire debt one-for-one
    at the day's price (no price impact). The recorded margin is the plain
    post-sale buffer collateral + reserve - debt. Stops once the debt is
    discharged.
    """
    if len(collateral_path) != len(reserve_path):
        raise HorizonMismatch(
            f"collateral path has {len(collateral_path)} days, "
            f"reserve path {len(reserve_path)}"
        )
    if p0 is None:
        p0 = float(collateral_path[0])
    debt0 = setup.debt
    debt = debt0
    coll = setup.initial_collateral_units(p0)
    reserve = setup.reserve_quantity
    trace = LiquidationTrace()
    for t in range(len(collateral_path)):
        p_col = float(collateral_path[t])
        p_res = float(reserve_path[t])
        cap = liquidity_at(setup.liquidity, t)
        u = min(cap, coll, debt / p_col)
        proceeds = u * p_col
        debt = max(debt - proceeds, 0.0)
        if debt <= _DEBT_EPS * debt0:
            debt = 0.0
        coll -= u
        margin = coll * p_col + reserve * p_res - debt
        trace.days.append(t)
        trace.collateral_prices.append(p_col)
        trace.reserve_prices.append(p_res)
        trace.units_sold.append(u)
        trace.proceeds.append(proceeds)
        trace.debt_remaining.append(debt)
        trace.collateral_remaining.append(coll)
        trace.margins.append(margin)
        if margin < 0 and trace.first_negative_day is None:
            trace.first_negative_day = t
        if debt == 0.0:
            break
    return trace


def _stream(seed: int, path_index: int, asset_index: int) -> np.random.Generator:
    key = np.array(
        [seed % 2**64, (path_index << 1) | asset_index], dtype=np.uint64
    )
    return np.random.Generator(np.random.Philox(key=key))


def philox_increments(
    seed: int, asset_index: int, horizon_days: int, n_paths: int
) -> np.ndarray:
    """Standard-normal daily shocks, path-major (n_paths, horizon_days), one
    new generator per path keyed on (seed, path index, asset index)."""
    z = np.empty((n_paths, horizon_days))
    for k in range(n_paths):
        z[k] = _stream(seed, k, asset_index).standard_normal(horizon_days)
    return z


def select_worst_path(
    first_neg: np.ndarray, terminal: np.ndarray
) -> tuple[int, int | None]:
    """Pick the fastest-event path from per-path liquidation results.

    first_neg uses -1 for paths whose margin never turns negative. When no
    path has an event, falls back to the smallest terminal margin. Ties
    break toward the lowest path index (np.argmin returns the first hit).
    """
    has_event = first_neg >= 0
    if has_event.any():
        days = np.where(has_event, first_neg, np.iinfo(np.int64).max)
        idx = int(np.argmin(days))
        return idx, int(first_neg[idx])
    return int(np.argmin(terminal)), None


def whole_chunk(blocks) -> tuple[np.ndarray, np.ndarray]:
    """The day blocks of one chunk of `defi_stress.paths.correlated_chunks`,
    joined in day order: collateral prices, (days, paths), and reserve
    prices, (groups, days, paths). Each block is copied before the next one
    is drawn into the same buffer."""
    collateral, reserve = zip(*((col.copy(), res.copy()) for col, res in blocks))
    reserve = np.concatenate(reserve).transpose(1, 0, 2)
    return np.concatenate(collateral), np.ascontiguousarray(reserve)


def whole_array_systemic_loss(model: CompositionModel) -> LossDistribution:
    """Monte Carlo distribution of the maximum systemic loss.

    Each sample draws an i.i.d. multiplier lambda_pi per protocol and sums
    (D/N) / lambda_pi over the N protocols. Deterministic given the seed.
    A loss or mean that overflows raises FloatingPointError.
    """
    low, high = model.lambda_range
    rng = np.random.Generator(np.random.Philox(key=model.seed % 2**64))
    lams = rng.uniform(low, high, size=(model.n_samples, model.n_protocols))
    per_protocol = model.total_debt / model.n_protocols
    with np.errstate(over="raise", invalid="raise"):
        # In place: one (n_samples, n_protocols) array instead of two.
        losses = np.divide(per_protocol, lams, out=lams).sum(axis=1)
        mean = float(losses.mean())
    return LossDistribution(
        samples=losses,
        mean=mean,
        min=float(losses.min()),
        max=float(losses.max()),
    )
