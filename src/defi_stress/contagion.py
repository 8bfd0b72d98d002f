"""System-wide contagion losses: liquidity-sweeping totals over market
snapshots and the collateral-composition maximum-loss model.

Note on terminology: lambda here is the full collateralization multiplier
(1.5 means 150%), not the overcollateralization factor used by the
protocol module's margin equations.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidParams, InvalidRange, ParseError


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
            if e.available_notional < 0:
                raise InvalidParams("notionals must be >= 0")

    @classmethod
    def from_csv(cls, path: str | Path) -> "MarketSnapshot":
        entries = []
        with Path(path).open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip().lower() for h in header] != [
                "market",
                "pair",
                "notional_usd",
            ]:
                raise ParseError("expected header market,pair,notional_usd")
            for i, row in enumerate(reader):
                if not row or all(not c.strip() for c in row):
                    continue
                if len(row) != 3:
                    raise ParseError(f"expected 3 fields, got {len(row)}", row=i)
                try:
                    entries.append(
                        MarketEntry(row[0].strip(), row[1].strip(), float(row[2]))
                    )
                except ValueError as exc:
                    raise ParseError(str(exc), row=i) from exc
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
        if self.total_debt <= 0:
            raise InvalidParams("total debt must be > 0")
        low, high = self.lambda_range
        if low <= 1.0:
            raise InvalidRange("lambda range must lie strictly above 1")
        if high < low:
            raise InvalidRange("lambda range must satisfy low <= high")
        if self.n_samples < 1:
            raise InvalidParams("need at least one sample")


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
    if holdings_cap < 0:
        raise InvalidParams("holdings cap must be >= 0")
    return min(holdings_cap, total)


def max_systemic_loss(model: CompositionModel) -> LossDistribution:
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
        losses = (per_protocol / lams).sum(axis=1)
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


def parse_damage_table(text: str) -> list[DamageScenario]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != DAMAGE_HEADER:
        raise ParseError(f"expected header {','.join(DAMAGE_HEADER)}")
    return [
        DamageScenario(row[0], float(row[1]), row[2] == "true")
        for row in reader
        if row
    ]


def write_loss_csv(dist: LossDistribution, path: str | Path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample", "loss"])
        for i, loss in enumerate(dist.samples):
            writer.writerow([i, loss])
