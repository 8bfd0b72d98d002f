"""System-wide contagion losses: liquidity-sweeping totals over market
snapshots and the collateral-composition maximum-loss model.

Note on terminology: lambda here is the full collateralization multiplier
(1.5 means 150%), not the overcollateralization factor used by the
protocol module's margin equations.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidParams, InvalidRange
from .marketdata import read_csv_rows
from .schema import Obj, Opt


@dataclass(frozen=True)
class MarketEntry:
    market_id: str
    pair: str
    available_notional: float


@dataclass(frozen=True)
class MarketSnapshot:
    entries: tuple[MarketEntry, ...]

    def __post_init__(self):
        for e in self.entries:
            if not 0 <= e.available_notional < math.inf:
                raise InvalidParams(f"{e.market_id}: notional must be finite and >= 0")

    @classmethod
    def from_csv(cls, path: str | Path) -> "MarketSnapshot":
        """The snapshot of a `market,pair,notional_usd` CSV file."""
        entries = read_csv_rows(
            path,
            ["market", "pair", "notional_usd"],
            lambda row: MarketEntry(row[0].strip(), row[1].strip(), float(row[2])),
        )
        return cls(tuple(entries))


@dataclass(frozen=True)
class CompositionModel:
    """N protocols each holding D/N of the failing asset as collateral,
    with collateralization multipliers drawn uniformly from lambda_range."""

    n_protocols: int
    total_debt: float
    lambda_range: tuple[float, float]
    seed: int
    n_samples: int

    def __post_init__(self):
        if self.n_protocols < 1:
            raise InvalidParams("need at least one protocol")
        if not all(map(math.isfinite, (self.total_debt, *self.lambda_range))):
            raise InvalidParams("total debt and lambda range must be finite")
        if self.total_debt <= 0:
            raise InvalidParams("total debt must be > 0")
        low, high = self.lambda_range
        if low <= 1.0:
            raise InvalidRange("lambda range must lie strictly above 1")
        if high < low:
            raise InvalidRange("lambda range must satisfy low <= high")
        if self.n_samples < 1:
            raise InvalidParams("need at least one sample")
        # numpy cannot make an array of more bytes than np.intp can count.
        # The largest arrays drawn are the (n_samples,) loss vector and one
        # block row of n_protocols multipliers, each of 8-byte float64s.
        if max(self.n_samples, self.n_protocols) * 8 > np.iinfo(np.intp).max:
            raise InvalidParams(
                f"n_samples {self.n_samples} or n_protocols {self.n_protocols} "
                "do not fit in one array"
            )


@dataclass(frozen=True)
class LossDistribution:
    samples: np.ndarray
    mean: float
    min: float
    max: float


@dataclass(frozen=True)
class DamageScenario:
    label: str
    loss: float
    lower_bound: bool = False

    def __post_init__(self):
        if not math.isfinite(self.loss):
            raise InvalidParams("damage losses must be finite")


def _contagion_model(lambda_ranges: tuple, **fields) -> dict:
    """The fields of a contagion model, with one composition model per lambda
    range as "models"."""
    shared = {k: fields[k] for k in ("n_protocols", "total_debt", "seed", "n_samples")}
    models = [CompositionModel(lambda_range=r, **shared) for r in lambda_ranges]
    return dict(fields, models=models)


_DAMAGE = Obj(DamageScenario,
              {"label": str, "loss": float, "lower_bound": Opt(bool, False)})
CONTAGION_MODEL = Obj(_contagion_model, {
    "n_protocols": Opt(int, 1),
    "total_debt": Opt(float, 0.0),
    "lambda_ranges": Opt([(float, float)], ()),
    "seed": Opt(int, 0),
    "n_samples": Opt(int, 100_000),
    "snapshot_csv": Opt(str),
    "holdings_cap": Opt(float),
    "damage_scenarios": Opt([_DAMAGE], ()),
}, "contagion-model/1")


def sweepable_total(
    snapshot: MarketSnapshot, holdings_cap: float | None = None
) -> float:
    """Notional an agent can sweep from the snapshot's markets.

    An unlimited cap (None) models the governance-attack case where the
    debt asset can be minted at will; a finite cap models a price crash
    where only existing holdings can be spent.
    """
    total = sum(e.available_notional for e in snapshot.entries)
    if holdings_cap is None:
        return total
    if not holdings_cap >= 0:
        raise InvalidParams(f"holdings_cap must be >= 0, got {holdings_cap}")
    return min(holdings_cap, total)


# Multipliers drawn at once in `max_systemic_loss`: 2**17 float64s is 1 MB,
# so its working memory is the loss vector and one block, whatever the
# number of samples and protocols.
_BLOCK_ELEMENTS = 2**17


def max_systemic_loss(model: CompositionModel) -> LossDistribution:
    """Monte Carlo distribution of the maximum systemic loss.

    Each sample draws an i.i.d. multiplier lambda_pi per protocol and sums
    (D/N) / lambda_pi over the N protocols. Deterministic given the seed.
    A loss or mean that overflows raises FloatingPointError.

    The multipliers are drawn from one generator in blocks of whole samples
    (rows), as many as fit in _BLOCK_ELEMENTS and at least one, so the
    stream, each sample's sum and the mean over all samples are those of
    one (n_samples, n_protocols) draw.
    """
    low, high = model.lambda_range
    rng = np.random.Generator(np.random.Philox(key=model.seed % 2**64))
    per_protocol = model.total_debt / model.n_protocols
    rows = max(1, _BLOCK_ELEMENTS // model.n_protocols)
    losses = np.empty(model.n_samples)
    with np.errstate(over="raise", invalid="raise"):
        for start in range(0, model.n_samples, rows):
            stop = min(start + rows, model.n_samples)
            lams = rng.uniform(low, high, size=(stop - start, model.n_protocols))
            np.divide(per_protocol, lams, out=lams)
            lams.sum(axis=1, out=losses[start:stop])
            # Freed before the next block is drawn.
            del lams
        mean = float(losses.mean())
    return LossDistribution(
        samples=losses,
        mean=mean,
        min=float(losses.min()),
        max=float(losses.max()),
    )


DAMAGE_HEADER = ["label", "loss_usd", "lower_bound"]


def damage_table(scenarios: list[DamageScenario]) -> str:
    """Serialize scenario losses to CSV, keeping lower-bound flags."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(DAMAGE_HEADER)
    for s in scenarios:
        writer.writerow([s.label, f"{s.loss:g}", str(s.lower_bound).lower()])
    return buf.getvalue()


# Rows joined into one string per write: fast, and memory stays bounded.
_ROWS_PER_WRITE = 8192


def write_loss_csv(dist: LossDistribution, path: str | Path) -> None:
    """One "sample,loss" row per sample, as csv.writer would write them
    (floats in repr form, CRLF line ends)."""
    with Path(path).open("w", newline="") as fh:
        fh.write("sample,loss\r\n")
        for start in range(0, len(dist.samples), _ROWS_PER_WRITE):
            block = dist.samples[start : start + _ROWS_PER_WRITE].tolist()
            fh.write(
                "".join(f"{i},{x!r}\r\n" for i, x in enumerate(block, start))
            )
