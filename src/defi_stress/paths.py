"""Seeded geometric-Brownian-motion path generation for the collateral and
reserve assets, with optional correlation between their daily shocks.

Paths are drawn in blocks of BLOCK_PATHS: block b, paths b * BLOCK_PATHS
to (b + 1) * BLOCK_PATHS - 1, has one SFC64 stream per asset, seeded by a
SeedSequence keyed on (master seed mod 2**64, b, asset index), that fills a
(horizon, BLOCK_PATHS) buffer day-major in one call; path k is column
k % BLOCK_PATHS of its block, and a set of paths that starts or ends inside
a block draws that whole block. So path k is bit-identical no matter how
many paths are generated or how work is partitioned, and a shorter horizon
draws a prefix of every path's shocks.

Shocks and prices are stored day-major, (days, paths), so the liquidation
engine's read of one day across all paths is contiguous. A chunk of paths
keeps only its two shock arrays, collateral and independent, each
(horizon, paths). Its prices are built DAY_BLOCK days at a time into one
small (days, 1 + correlations, paths) block, the collateral first and then
the reserve under each correlation, and handed out block by block, each
block's log-prices continuing from the last day of the one before. So a
chunk's memory is its shocks plus one day block, whatever the number of
correlations. `simulate_gbm` prices its days as one block and returns a
transposed view, with shape (paths, days).

Because path k depends only on (seed, k, asset), one routine draws paths
by index: a correlated ensemble is drawn in chunks of CHUNK_PATHS
consecutive paths (`correlated_chunks`), and any set of paths, such as the
worst paths of a report, is re-drawn from their blocks and priced as one
block (`correlated_paths`) with the same bits, whatever the chunking or the
day block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import InvalidParams, NumericError

COLLATERAL = 0
RESERVE = 1

# Paths drawn, priced and liquidated together. A chunk holds its two
# (horizon, CHUNK_PATHS) shock arrays and one day block of prices, so memory
# is bounded by one chunk, whatever the ensemble size.
CHUNK_PATHS = 2048
# Days priced and liquidated together: 8 days x 2048 paths x (1 + 5
# correlations) is 0.8 MB, in place of a (horizon + 1) x 2048 price array
# per asset and correlation.
DAY_BLOCK = 8
# Identifies the shock scheme above in run manifests.
RNG_SCHEME = "sfc64-block128/2"
# Paths per generator: a block's (365 days, 128) buffer is 0.37 MB.
BLOCK_PATHS = 128


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


def _increments(seed: int, asset: int, ks: Sequence[int], out: np.ndarray) -> None:
    """Standard-normal daily shocks of paths ks into out, (horizon_days,
    len(ks)): path k is column k % BLOCK_PATHS of the day-major (horizon_days,
    BLOCK_PATHS) draw of the SFC64 of block k // BLOCK_PATHS, seeded by
    SeedSequence(seed mod 2**64, spawn_key=(block, asset)). Each run of
    consecutive paths in one block is copied as one slice; a block that ks
    leave and come back to is drawn again."""
    if isinstance(ks, range) and ks.step == 1:
        # Consecutive paths: a run starts at the first and at each block edge.
        edge = BLOCK_PATHS - ks.start % BLOCK_PATHS
        starts = [0, *range(edge, len(ks), BLOCK_PATHS)]
    else:
        ks = np.asarray(ks)
        breaks = (np.diff(ks) != 1) | (ks[1:] % BLOCK_PATHS == 0)
        starts = [0, *(np.flatnonzero(breaks) + 1).tolist()]
    buf, drawn = np.empty((out.shape[0], BLOCK_PATHS)), None
    for lo, hi in zip(starts, starts[1:] + [len(ks)]):
        block, col = divmod(int(ks[lo]), BLOCK_PATHS)
        if block != drawn:
            seeds = np.random.SeedSequence(seed % 2**64, spawn_key=(block, asset))
            np.random.Generator(np.random.SFC64(seeds)).standard_normal(out=buf)
            drawn = block
        out[:, lo:hi] = buf[:, col : col + hi - lo]


def _price_blocks(
    collateral: GbmParams,
    reserve: GbmParams | None,
    rhos: Sequence[float],
    z_col: np.ndarray,
    z_ind: np.ndarray | None,
    block_days: int,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Day-major prices of the paths of the (horizon, n_paths) shocks z_col
    and z_ind, block_days days at a time.

    Yields (collateral prices, (days, n_paths); reserve prices, (days,
    len(rhos), n_paths)) for consecutive days: day 0, every price its p0,
    with the first block_days days, then block_days days at a time. Both are
    views of one reused (days, 1 + len(rhos), n_paths) block, valid until
    the next block is drawn. reserve and z_ind are unused when rhos is
    empty.

    The reserve shock for correlation rho is rho * z_col + sqrt(1 - rho^2) *
    z_ind, so each asset's marginal law matches `simulate_gbm`, and the
    collateral prices are those of a standalone collateral simulation.
    Prices are P_t = p0 * exp((mu - sigma^2/2) t + sigma W_t), W_t the
    running sum of shocks: day t's log-price is day t - 1's plus day t's
    step, over whole rows, the additions of np.cumsum(axis=0) in the same
    order, so its bits are those of cumsum. The last day's log-price of one
    block is carried into the first row of the next. A price that is not
    finite and > 0 (one that underflowed to 0 or overflowed to inf, or NaN)
    raises NumericError when its block is built, whatever the liquidation
    does with it.
    """
    horizon, n_paths = z_col.shape
    assets = (collateral,) + (reserve,) * len(rhos)
    sigma = np.array([[p.sigma] for p in assets])
    drift = np.array([[p.mu - p.sigma**2 / 2.0] for p in assets])
    p0 = np.array([[p.p0] for p in assets])
    weights = [np.sqrt(1.0 - rho**2) for rho in rhos]
    days = min(block_days, horizon)
    block = np.empty((days + 1, len(assets), n_paths))
    scaled = np.empty((days, n_paths)) if rhos else None
    carry = np.zeros((len(assets), n_paths))
    for lo in range(0, horizon, block_days):
        hi = min(lo + block_days, horizon)
        logs = block[: hi - lo + 1]
        logs[0] = carry
        steps = logs[1:]
        steps[:, 0] = z_col[lo:hi]
        for j, (rho, weight) in enumerate(zip(rhos, weights), start=1):
            np.multiply(rho, z_col[lo:hi], out=steps[:, j])
            np.multiply(weight, z_ind[lo:hi], out=scaled[: hi - lo])
            np.add(steps[:, j], scaled[: hi - lo], out=steps[:, j])
        # An overflow to inf is caught by the check below, not warned about.
        with np.errstate(over="ignore"):
            np.multiply(sigma, steps, out=steps)
            np.add(drift, steps, out=steps)
            # Day 1's log-price is its step; later days add the day before.
            for t in range(2 if lo == 0 else 1, hi - lo + 1):
                np.add(logs[t - 1], logs[t], out=logs[t])
            carry[...] = logs[-1]
            prices = logs if lo == 0 else steps
            np.exp(prices, out=prices)
            np.multiply(p0, prices, out=prices)
        # min() and max() are NaN if any price is.
        if not (prices.min() > 0.0 and prices.max() < math.inf):
            raise NumericError(
                "a simulated price is not finite and > 0: drift or volatility "
                "too extreme"
            )
        yield prices[:, 0], prices[:, 1:]


def _check(rhos: Sequence[float], horizon_days: int, n_paths: int) -> None:
    """InvalidParams unless every rho lies in [-1, 1] and there are a day
    and a path to draw."""
    if not all(-1.0 <= rho <= 1.0 for rho in rhos):
        raise InvalidParams("correlation must lie in [-1, 1]")
    if horizon_days < 1:
        raise InvalidParams("horizon must be >= 1 day")
    if n_paths < 1:
        raise InvalidParams("need at least one path")


def simulate_gbm(
    params: GbmParams,
    horizon_days: int,
    n_paths: int,
    seed: int,
) -> np.ndarray:
    """Simulate daily GBM prices; shape (n_paths, horizon_days + 1)."""
    _check((), horizon_days, n_paths)
    z = np.empty((horizon_days, n_paths))
    _increments(seed, COLLATERAL, range(n_paths), z)
    ((prices, _),) = _price_blocks(params, None, (), z, None, horizon_days)
    return prices.T


def _chunk_prices(
    collateral: GbmParams,
    reserve: GbmParams,
    rhos: Sequence[float],
    seed: int,
    ks: Sequence[int],
    shocks: np.ndarray,
    block_days: int,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """`_price_blocks` of paths ks, whose collateral and independent shocks
    are drawn into shocks[0] and shocks[1], each (horizon, len(ks)), when
    the first block is asked for."""
    z_col, z_ind = shocks
    _increments(seed, COLLATERAL, ks, z_col)
    _increments(seed, RESERVE, ks, z_ind)
    yield from _price_blocks(collateral, reserve, rhos, z_col, z_ind, block_days)


def correlated_chunks(
    collateral: GbmParams,
    reserve: GbmParams,
    rhos: Sequence[float],
    horizon_days: int,
    n_paths: int,
    seed: int,
) -> Iterator[tuple[int, Iterator[tuple[np.ndarray, np.ndarray]]]]:
    """The seeded two-asset ensemble of n_paths paths, for every rho in rhos
    at once, in consecutive chunks of up to CHUNK_PATHS paths.

    Yields (start, blocks) for paths start, start + 1, ...: blocks yields
    the chunk's prices in day order, DAY_BLOCK days at a time (the first
    block also holds day 0), each a pair of day-major collateral prices,
    (days, chunk), and reserve prices per rho, (days, len(rhos), chunk),
    valid until the next block is drawn. Each chunk's shocks are drawn once
    for all rhos, when its first block is asked for, into one pair of shock
    arrays that every chunk reuses: take a chunk's blocks before the next
    chunk's. The arguments are checked before the first shock is drawn.
    """
    _check(rhos, horizon_days, n_paths)
    chunk, block_days = CHUNK_PATHS, DAY_BLOCK

    def chunks():
        # One pair for the whole pass: memory the allocator keeps, not pages
        # returned to the system and faulted in again for every chunk.
        shocks = np.empty((2, horizon_days, min(chunk, n_paths)))
        for start in range(0, n_paths, chunk):
            ks = range(start, min(start + chunk, n_paths))
            yield start, _chunk_prices(
                collateral, reserve, rhos, seed, ks, shocks[..., : len(ks)], block_days
            )

    return chunks()


def correlated_paths(
    collateral: GbmParams,
    reserve: GbmParams,
    rhos: Sequence[float],
    horizon_days: int,
    seed: int,
    ks: Sequence[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Paths ks of `correlated_chunks`' ensemble, drawn on their own and
    priced as one block for every rho in rhos: the collateral prices,
    (horizon_days + 1, len(ks)), and the reserve prices, (horizon_days + 1,
    len(rhos), len(ks)), column j those of path ks[j]. The arguments are
    checked before the first shock is drawn."""
    _check(rhos, horizon_days, len(ks))
    if min(ks) < 0:
        raise InvalidParams("path index must be >= 0")
    shocks = np.empty((2, horizon_days, len(ks)))
    (prices,) = _chunk_prices(collateral, reserve, rhos, seed, ks, shocks, horizon_days)
    return prices
