"""Seeded geometric-Brownian-motion path generation for the collateral and
reserve assets, with optional correlation between their daily shocks.

Every path draws from its own counter-based (Philox) stream keyed on
(master seed, path index, asset index), so path k is bit-identical no
matter how many paths are generated or how work is partitioned. One Philox
generator per asset is reset to each path's key in turn, which yields the
same stream as a fresh generator per path. Each path is drawn into a
contiguous row of a small path-major tile; the whole tile is then copied,
transposed, into the day-major shock buffer in one assignment, so no draw
writes to a strided column.

Shocks and prices are stored day-major, (days, paths), so the liquidation
engine's read of one day across all paths is contiguous. `correlated_chunks`
hands them out so; `simulate_gbm` returns a transposed view, with shape
(paths, days).

Because path k depends only on its key, a correlated ensemble is drawn in
chunks of CHUNK_PATHS paths (`correlated_chunks`), and any single path can
be re-drawn on its own (`correlated_path`) with the same bits, whatever the
chunking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import InvalidParams, NumericError

COLLATERAL = 0
RESERVE = 1

# Paths drawn, priced and liquidated together; memory is bounded by one chunk
# of every array, whatever the ensemble size.
CHUNK_PATHS = 2048
# Identifies the shock scheme above in run manifests.
RNG_SCHEME = "philox-per-path/1"
# Paths per contiguous path-major tile in `_increments`: 128 x 365 days is
# 0.37 MB, small enough to stay in cache between the draws and the
# transposed copy into the day-major buffer.
_TILE_PATHS = 128
# Days per block in which `_correlated_prices` scales the independent shocks
# before adding them to a reserve shock: 32 days x 2048 paths is 0.5 MB,
# in place of a scaled copy of every shock of the chunk.
_SHOCK_DAYS = 32


@dataclass(frozen=True)
class GbmParams:
    """Initial price, drift per day and volatility per sqrt(day)."""

    p0: float
    mu: float
    sigma: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.p0, self.mu, self.sigma))):
            raise InvalidParams("GBM parameters must be finite")
        if self.p0 <= 0:
            raise InvalidParams("initial price must be > 0")
        if self.sigma < 0:
            raise InvalidParams("volatility must be >= 0")


def _increments(
    seed: int,
    asset_index: int,
    horizon_days: int,
    n_paths: int,
    start: int = 0,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Standard-normal daily shocks, day-major: shape (horizon_days, n_paths),
    written to out if given, else to a new array.

    Column j is the stream of path k = start + j, that of a fresh Philox
    keyed on (seed mod 2**64, k << 1 | asset_index). One bit generator is
    reset to each path's key and to the counter and buffer a fresh one
    starts with, and draws into one row of a (_TILE_PATHS, horizon_days)
    tile; each tile of paths is then copied, transposed, into z.
    """
    key = np.array([seed % 2**64, 0], dtype=np.uint64)
    bit_generator = np.random.Philox(key=key)
    generator = np.random.Generator(bit_generator)
    fresh = bit_generator.state
    path_key = fresh["state"]["key"]
    z = np.empty((horizon_days, n_paths)) if out is None else out
    tile = np.empty((min(_TILE_PATHS, n_paths), horizon_days))
    for lo in range(0, n_paths, _TILE_PATHS):
        rows = tile[: min(_TILE_PATHS, n_paths - lo)]
        for k, row in enumerate(rows, start + lo):
            path_key[1] = (k << 1) | asset_index
            bit_generator.state = fresh
            generator.standard_normal(out=row)
        z[:, lo : lo + len(rows)] = rows.T
    return z


def _prices_from_shocks(
    params: GbmParams, z: np.ndarray, prices: np.ndarray | None = None
) -> np.ndarray:
    """P_t = p0 * exp((mu - sigma^2/2) t + sigma W_t), W_t = cumsum of shocks.

    z is day-major, (horizon, n_paths); so is the result, (horizon + 1,
    n_paths), built in one buffer: prices if given, else a new one. z may be
    prices[1:] itself. The running sum adds day t - 1 to day t over whole
    rows, the additions of np.cumsum(axis=0) in the same order, so its bits
    are those of cumsum. A price that is not finite and > 0 (one that
    underflowed to 0 or overflowed to inf, or NaN) raises NumericError,
    whatever the liquidation does with it.
    """
    horizon, n_paths = z.shape
    drift = params.mu - params.sigma**2 / 2.0
    if prices is None:
        prices = np.empty((horizon + 1, n_paths))
    prices[0] = 0.0
    log_steps = prices[1:]
    # An overflow to inf is caught by the check below, not warned about.
    with np.errstate(over="ignore"):
        np.multiply(params.sigma, z, out=log_steps)
        np.add(drift, log_steps, out=log_steps)
        for t in range(1, horizon):
            np.add(log_steps[t - 1], log_steps[t], out=log_steps[t])
        np.exp(prices, out=prices)
        np.multiply(params.p0, prices, out=prices)
    # min() and max() are NaN if any price is.
    if not (prices.min() > 0.0 and prices.max() < math.inf):
        raise NumericError(
            "a simulated price is not finite and > 0: drift or volatility "
            "too extreme"
        )
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
) -> np.ndarray:
    """Simulate daily GBM prices; shape (n_paths, horizon_days + 1)."""
    _check_size(horizon_days, n_paths)
    z = _increments(seed, COLLATERAL, horizon_days, n_paths)
    return _prices_from_shocks(params, z).T


def _correlated_prices(
    collateral: GbmParams,
    reserve: GbmParams,
    rhos: Sequence[float],
    horizon_days: int,
    n_paths: int,
    seed: int,
    start: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Day-major prices of paths start .. start + n_paths - 1: collateral,
    (horizon + 1, n_paths), and reserve, (len(rhos), horizon + 1, n_paths).

    The reserve shock for correlation rho is
    rho * z_col + sqrt(1 - rho^2) * z_indep, so each asset's marginal law
    matches `simulate_gbm`, and the collateral prices are bit-identical to a
    standalone collateral simulation under the same seed. The collateral
    shocks are drawn into the collateral price buffer and turned into prices
    there once every reserve shock is formed. Each reserve shock is formed
    in its own price buffer; the scaled independent shocks are added to it
    in blocks of _SHOCK_DAYS days through one small buffer.
    """
    collateral_prices = np.empty((horizon_days + 1, n_paths))
    z_col = _increments(
        seed, COLLATERAL, horizon_days, n_paths, start, collateral_prices[1:]
    )
    z_ind = _increments(seed, RESERVE, horizon_days, n_paths, start)
    reserve_prices = np.empty((len(rhos), horizon_days + 1, n_paths))
    scaled = np.empty((min(_SHOCK_DAYS, horizon_days), n_paths))
    for prices, rho in zip(reserve_prices, rhos):
        z_res = prices[1:]
        np.multiply(rho, z_col, out=z_res)
        weight = np.sqrt(1.0 - rho**2)
        for lo in range(0, horizon_days, _SHOCK_DAYS):
            hi = min(lo + _SHOCK_DAYS, horizon_days)
            block = scaled[: hi - lo]
            np.multiply(weight, z_ind[lo:hi], out=block)
            np.add(z_res[lo:hi], block, out=z_res[lo:hi])
        _prices_from_shocks(reserve, z_res, prices)
    _prices_from_shocks(collateral, z_col, collateral_prices)
    return collateral_prices, reserve_prices


def correlated_chunks(
    collateral: GbmParams,
    reserve: GbmParams,
    rhos: Sequence[float],
    horizon_days: int,
    n_paths: int,
    seed: int,
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """The seeded two-asset ensemble of n_paths paths, for every rho in rhos
    at once, in consecutive chunks of up to CHUNK_PATHS paths.

    Yields (start, collateral prices, reserve prices) for paths start,
    start + 1, ...: day-major collateral prices, (horizon + 1, chunk), and
    reserve prices per rho, (len(rhos), horizon + 1, chunk). Each chunk's
    shocks are drawn once and its collateral prices built once for all
    rhos. The arguments are checked before the first shock is drawn.
    """
    for rho in rhos:
        _check_rho(rho)
    _check_size(horizon_days, n_paths)
    chunk = CHUNK_PATHS

    def chunks():
        for start in range(0, n_paths, chunk):
            n = min(chunk, n_paths - start)
            yield start, *_correlated_prices(
                collateral, reserve, rhos, horizon_days, n, seed, start
            )

    return chunks()


def correlated_path(
    collateral: GbmParams,
    reserve: GbmParams,
    rho: float,
    horizon_days: int,
    seed: int,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Path k of `correlated_chunks`' ensemble for correlation rho, drawn on
    its own: the collateral and reserve prices, each of length
    horizon_days + 1."""
    _check_rho(rho)
    _check_size(horizon_days, 1)
    if k < 0:
        raise InvalidParams("path index must be >= 0")
    collateral_prices, reserve_prices = _correlated_prices(
        collateral, reserve, (rho,), horizon_days, 1, seed, k
    )
    return collateral_prices[:, 0], reserve_prices[0, :, 0]
