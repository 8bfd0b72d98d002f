"""Historical OHLCV ingestion, log-returns, moment estimates and normality test."""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateSample,
    EmptySeries,
    InsufficientData,
    NonMonotonicTime,
    ParseError,
)

CSV_HEADER = ["date", "open", "high", "low", "close", "volume"]


@dataclass(frozen=True)
class Observation:
    date: dt.date
    open: float
    high: float
    low: float
    close: float
    volume: float


@dataclass(frozen=True)
class PriceSeries:
    """Ordered daily OHLCV observations.

    Timestamps strictly increasing, prices finite and positive, volume
    finite and non-negative; enforced at construction, with the offending
    observation's index as the error row.
    """

    observations: tuple[Observation, ...]

    def __post_init__(self):
        prev: dt.date | None = None
        for i, obs in enumerate(self.observations):
            prices = (obs.open, obs.high, obs.low, obs.close)
            if not all(0 < p < math.inf for p in prices):
                raise ParseError("price not finite and positive", row=i)
            if not 0 <= obs.volume < math.inf:
                raise ParseError("volume not finite and non-negative", row=i)
            if prev is not None and obs.date <= prev:
                raise NonMonotonicTime(
                    f"timestamp {obs.date} not after {prev}"
                )
            prev = obs.date

    def __len__(self) -> int:
        return len(self.observations)

    def closes(self) -> np.ndarray:
        return np.array([o.close for o in self.observations])


@dataclass(frozen=True)
class ReturnStats:
    """Sample moments of daily log-returns (sigma uses ddof=1)."""

    mu: float
    sigma: float
    n: int

    def to_json(self) -> str:
        return json.dumps({"mu": self.mu, "sigma": self.sigma, "n": self.n})


def load_series(path: str | Path) -> PriceSeries:
    """Parse a `date,open,high,low,close,volume` CSV into a PriceSeries.

    Dates are ISO-8601; rows are kept in file order, blank rows skipped.
    Raises ParseError with the offending row index (0-based, excluding the
    header) for a malformed row; PriceSeries checks the values.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptySeries(f"{path}: no rows")
        if [h.strip().lower() for h in header] != CSV_HEADER:
            raise ParseError(f"expected header {','.join(CSV_HEADER)}")
        observations = []
        for i, row in enumerate(reader):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 6:
                raise ParseError(f"expected 6 fields, got {len(row)}", row=i)
            try:
                obs = Observation(
                    date=dt.date.fromisoformat(row[0].strip()),
                    open=float(row[1]),
                    high=float(row[2]),
                    low=float(row[3]),
                    close=float(row[4]),
                    volume=float(row[5]),
                )
            except ValueError as exc:
                raise ParseError(str(exc), row=i) from exc
            observations.append(obs)
    if not observations:
        raise EmptySeries(f"{path}: no valid rows")
    return PriceSeries(tuple(observations))


def log_returns(series: PriceSeries) -> np.ndarray:
    """Daily log-returns ln(close[t+1]/close[t]); length = len(series) - 1."""
    if len(series) < 2:
        raise EmptySeries("need at least 2 observations for returns")
    closes = series.closes()
    return np.diff(np.log(closes))


def estimate_stats(returns: Sequence[float]) -> ReturnStats:
    """Sample mean and standard deviation (ddof=1) of log-returns."""
    r = np.asarray(returns, dtype=float)
    if r.size < 2:
        raise InsufficientData("need at least 2 returns")
    return ReturnStats(mu=float(r.mean()), sigma=float(r.std(ddof=1)), n=int(r.size))


def jarque_bera(returns: Sequence[float]) -> tuple[float, float]:
    """Jarque-Bera normality test: n/6 * (S^2 + (K-3)^2 / 4).

    S and K are the moment-based sample skewness and kurtosis. Returns
    (statistic, p_value); the p-value is the closed-form chi-squared(2)
    tail, exp(-statistic / 2).
    """
    r = np.asarray(returns, dtype=float)
    if r.size < 4:
        raise InsufficientData("need at least 4 returns")
    if np.ptp(r) == 0:
        raise DegenerateSample("zero variance sample")
    centered = r - r.mean()
    m2 = np.mean(centered**2)
    if m2 == 0:
        raise DegenerateSample("zero variance sample")
    skew = np.mean(centered**3) / m2**1.5
    kurt = np.mean(centered**4) / m2**2
    stat = r.size / 6.0 * (skew**2 + (kurt - 3.0) ** 2 / 4.0)
    return float(stat), math.exp(-stat / 2.0)
