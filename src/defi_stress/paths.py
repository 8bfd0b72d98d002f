"""Seeded geometric-Brownian-motion path generation for the collateral and
reserve assets, with optional correlation between their daily shocks.

Every path draws from its own counter-based (Philox) stream keyed on
(master seed, path index, asset index), so path k is bit-identical no
matter how many paths are generated or how work is partitioned.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    collateral_paths: np.ndarray  # (n_paths, horizon_days + 1)
    reserve_paths: np.ndarray


def _stream(seed: int, path_index: int, asset_index: int) -> np.random.Generator:
    key = np.array(
        [seed % 2**64, (path_index << 1) | asset_index], dtype=np.uint64
    )
    return np.random.Generator(np.random.Philox(key=key))


def _increments(
    seed: int, asset_index: int, horizon_days: int, n_paths: int
) -> np.ndarray:
    """Standard-normal daily shocks, one independent substream per path."""
    z = np.empty((n_paths, horizon_days))
    for k in range(n_paths):
        z[k] = _stream(seed, k, asset_index).standard_normal(horizon_days)
    return z


def _prices_from_shocks(params: GbmParams, z: np.ndarray) -> np.ndarray:
    """P_t = p0 * exp((mu - sigma^2/2) t + sigma W_t), W_t = cumsum of shocks."""
    n_paths, horizon = z.shape
    drift = params.mu - params.sigma**2 / 2.0
    log_steps = drift + params.sigma * z
    log_paths = np.concatenate(
        [np.zeros((n_paths, 1)), np.cumsum(log_steps, axis=1)], axis=1
    )
    return params.p0 * np.exp(log_paths)


def simulate_gbm(
    params: GbmParams,
    horizon_days: int,
    n_paths: int,
    seed: int,
    asset_index: int = COLLATERAL,
) -> np.ndarray:
    """Simulate daily GBM prices; shape (n_paths, horizon_days + 1)."""
    if horizon_days < 1:
        raise InvalidParams("horizon must be >= 1 day")
    if n_paths < 1:
        raise InvalidParams("need at least one path")
    z = _increments(seed, asset_index, horizon_days, n_paths)
    return _prices_from_shocks(params, z)


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
    if not -1.0 <= rho <= 1.0:
        raise InvalidParams("correlation must lie in [-1, 1]")
    if horizon_days < 1:
        raise InvalidParams("horizon must be >= 1 day")
    if n_paths < 1:
        raise InvalidParams("need at least one path")
    z_col = _increments(seed, COLLATERAL, horizon_days, n_paths)
    z_ind = _increments(seed, RESERVE, horizon_days, n_paths)
    z_res = rho * z_col + np.sqrt(1.0 - rho**2) * z_ind
    return PathEnsemble(
        horizon_days=horizon_days,
        n_paths=n_paths,
        seed=seed,
        correlation=rho,
        collateral_paths=_prices_from_shocks(collateral, z_col),
        reserve_paths=_prices_from_shocks(reserve, z_res),
    )


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
