"""Seeded geometric-Brownian-motion path generation for the collateral and
reserve assets, with optional correlation between their daily shocks.

Every path draws from its own counter-based (Philox) stream keyed on
(master seed, path index, asset index), so path k is bit-identical no
matter how many paths are generated or how work is partitioned. One Philox
generator per asset is reset to each path's key in turn, which yields the
same stream as a fresh generator per path.

Shocks and prices are stored day-major, (days, paths), so the liquidation
engine's read of one day across all paths is contiguous. The arrays handed
out are transposed views of those buffers, with shape (paths, days).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidParams

COLLATERAL = 0
RESERVE = 1


@dataclass(frozen=True)
class GbmParams:
    """Initial price, drift per day and volatility per sqrt(day)."""

    p0: float
    mu: float
    sigma: float

    def __post_init__(self):
        if self.p0 <= 0:
            raise InvalidParams("initial price must be > 0")
        if self.sigma < 0:
            raise InvalidParams("volatility must be >= 0")


@dataclass(frozen=True)
class PathEnsemble:
    horizon_days: int
    n_paths: int
    seed: int
    correlation: float
    # (n_paths, horizon_days + 1): transposed views of day-major buffers
    collateral_paths: np.ndarray
    reserve_paths: np.ndarray


def _increments(
    seed: int, asset_index: int, horizon_days: int, n_paths: int
) -> np.ndarray:
    """Standard-normal daily shocks, day-major: shape (horizon_days, n_paths).

    Column k is the stream of a fresh Philox keyed on
    (seed mod 2**64, k << 1 | asset_index). One bit generator is reset to
    each path's key and to the counter and buffer a fresh one starts with.
    """
    key = np.array([seed % 2**64, 0], dtype=np.uint64)
    bit_generator = np.random.Philox(key=key)
    generator = np.random.Generator(bit_generator)
    fresh = bit_generator.state
    path_key = fresh["state"]["key"]
    z = np.empty((horizon_days, n_paths))
    for k in range(n_paths):
        path_key[1] = (k << 1) | asset_index
        bit_generator.state = fresh
        z[:, k] = generator.standard_normal(horizon_days)
    return z


def _prices_from_shocks(params: GbmParams, z: np.ndarray) -> np.ndarray:
    """P_t = p0 * exp((mu - sigma^2/2) t + sigma W_t), W_t = cumsum of shocks.

    z is day-major, (horizon, n_paths); so is the result, (horizon + 1,
    n_paths), built in one buffer.
    """
    horizon, n_paths = z.shape
    drift = params.mu - params.sigma**2 / 2.0
    prices = np.empty((horizon + 1, n_paths))
    prices[0] = 0.0
    log_steps = prices[1:]
    np.multiply(params.sigma, z, out=log_steps)
    np.add(drift, log_steps, out=log_steps)
    np.cumsum(log_steps, axis=0, out=log_steps)
    np.exp(prices, out=prices)
    np.multiply(params.p0, prices, out=prices)
    return prices


def _check_size(horizon_days: int, n_paths: int) -> None:
    if horizon_days < 1:
        raise InvalidParams("horizon must be >= 1 day")
    if n_paths < 1:
        raise InvalidParams("need at least one path")


def _check_rho(rho: float) -> None:
    if not -1.0 <= rho <= 1.0:
        raise InvalidParams("correlation must lie in [-1, 1]")


def simulate_gbm(
    params: GbmParams,
    horizon_days: int,
    n_paths: int,
    seed: int,
    asset_index: int = COLLATERAL,
) -> np.ndarray:
    """Simulate daily GBM prices; shape (n_paths, horizon_days + 1)."""
    _check_size(horizon_days, n_paths)
    z = _increments(seed, asset_index, horizon_days, n_paths)
    return _prices_from_shocks(params, z).T


def simulate_correlated(
    collateral: GbmParams,
    reserve: GbmParams,
    rho: float,
    horizon_days: int,
    n_paths: int,
    seed: int,
) -> PathEnsemble:
    """Simulate both assets with correlated daily shocks.

    The reserve shock is rho * z_col + sqrt(1 - rho^2) * z_indep, so each
    asset's marginal law matches `simulate_gbm` and the collateral matrix is
    bit-identical to a standalone collateral simulation under the same seed.
    """
    _check_rho(rho)
    _check_size(horizon_days, n_paths)
    z_col = _increments(seed, COLLATERAL, horizon_days, n_paths)
    collateral_paths = _prices_from_shocks(collateral, z_col)
    # The reserve shock is formed in the two shock buffers, so no more than
    # three (days, paths) arrays are alive at once.
    z_col *= rho
    z_res = _increments(seed, RESERVE, horizon_days, n_paths)
    z_res *= np.sqrt(1.0 - rho**2)
    np.add(z_col, z_res, out=z_res)
    del z_col
    return PathEnsemble(
        horizon_days=horizon_days,
        n_paths=n_paths,
        seed=seed,
        correlation=rho,
        collateral_paths=collateral_paths.T,
        reserve_paths=_prices_from_shocks(reserve, z_res).T,
    )


def sweep_correlated(
    collateral: GbmParams,
    reserve: GbmParams,
    rhos: Sequence[float],
    horizon_days: int,
    n_paths: int,
    seed: int,
    evaluate: Callable[[PathEnsemble], object],
) -> list:
    """evaluate(simulate_correlated(collateral, reserve, rho, ...)) for each
    rho in turn, with equal ensembles, byte for byte.

    The shocks are drawn and the collateral prices built once for all rhos;
    only the reserve prices are built per rho, and each rho's are released
    before the next rho's are built. The shared arrays are read-only.
    """
    for rho in rhos:
        _check_rho(rho)
    _check_size(horizon_days, n_paths)
    z_col = _increments(seed, COLLATERAL, horizon_days, n_paths)
    z_ind = _increments(seed, RESERVE, horizon_days, n_paths)
    collateral_paths = _prices_from_shocks(collateral, z_col).T
    collateral_paths.setflags(write=False)
    results = []
    for rho in rhos:
        z_res = rho * z_col
        z_res += np.sqrt(1.0 - rho**2) * z_ind
        reserve_paths = _prices_from_shocks(reserve, z_res).T
        del z_res
        reserve_paths.setflags(write=False)
        ensemble = PathEnsemble(
            horizon_days=horizon_days,
            n_paths=n_paths,
            seed=seed,
            correlation=rho,
            collateral_paths=collateral_paths,
            reserve_paths=reserve_paths,
        )
        results.append(evaluate(ensemble))
        # Release this rho's prices before the next rho's are built.
        del ensemble, reserve_paths
    return results


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
