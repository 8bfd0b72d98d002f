"""Governance-capture attack pricing: orderbook sweep cost, flash-loan
financing, voting gas budget, and end-to-end profitability with
revert-if-unprofitable semantics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

from .errors import (
    InsufficientDepth,
    InsufficientPoolLiquidity,
    InvalidParams,
    SchemaError,
)
from .schema import Obj, build_at

CROWDFUND = "crowdfund"
FLASHLOAN = "flashloan"


@dataclass(frozen=True)
class OrderBookSnapshot:
    """Ask side of one venue: (price, quantity) levels ascending in price."""

    venue_id: str
    levels: tuple[tuple[float, float], ...]

    def __post_init__(self):
        prev = 0.0
        for price, qty in self.levels:
            if not (math.isfinite(price) and math.isfinite(qty)):
                raise InvalidParams(f"{self.venue_id}: levels must be finite")
            if price <= 0:
                raise InvalidParams(f"{self.venue_id}: prices must be > 0")
            if price < prev:
                raise InvalidParams(f"{self.venue_id}: prices must be non-decreasing")
            if qty <= 0:
                raise InvalidParams(f"{self.venue_id}: quantities must be > 0")
            prev = price

    def depth(self) -> float:
        return sum(q for _, q in self.levels)


@dataclass(frozen=True)
class FlashPool:
    pool_id: str
    available: float
    fee_rate: float

    def __post_init__(self):
        if not (math.isfinite(self.available) and math.isfinite(self.fee_rate)):
            raise InvalidParams(
                f"{self.pool_id}: pool liquidity and fee must be finite"
            )
        if self.available < 0 or self.fee_rate < 0:
            raise InvalidParams("pool liquidity and fee must be >= 0")


@dataclass(frozen=True)
class AttackPlan:
    tokens_needed: float
    books: tuple[OrderBookSnapshot, ...]
    flash_pools: tuple[FlashPool, ...]
    seizable_collateral: float  # loan-currency units (e.g. ETH)
    mintable_debt: float  # quote currency (debt token pegged 1:1)
    governance_token_price: float  # quote/unit
    loan_currency_price: float  # quote/unit
    gas_cost: float  # quote currency

    def __post_init__(self):
        amounts = (
            self.tokens_needed,
            self.seizable_collateral,
            self.mintable_debt,
            self.governance_token_price,
            self.loan_currency_price,
            self.gas_cost,
        )
        if not all(map(math.isfinite, amounts)):
            raise InvalidParams("attack plan amounts and prices must be finite")
        if self.tokens_needed <= 0:
            raise InvalidParams("tokens_needed must be > 0")
        for name in ("seizable_collateral", "mintable_debt", "gas_cost"):
            if getattr(self, name) < 0:
                raise InvalidParams(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.governance_token_price <= 0 or self.loan_currency_price <= 0:
            raise InvalidParams("prices must be > 0")


def _attack_plans(strategies: tuple, **base) -> dict[str, AttackPlan]:
    """{strategy name: plan}: one plan per strategy, differing only in gas
    cost. Two strategies may not share a name."""
    plan, plans = AttackPlan(gas_cost=0.0, **base), {}
    for i, strategy in enumerate(strategies):
        name, gas_cost = strategy["name"], strategy["gas_cost"]
        if name in plans:
            raise SchemaError(f"strategies[{i}].name: {name!r} is named twice")
        plans[name] = build_at(f"strategies[{i}]", replace, plan, gas_cost=gas_cost)
    return plans


_BOOK = Obj(lambda venue, **book: OrderBookSnapshot(venue, **book),
            {"venue": str, "levels": [(float, float)]})
_POOL = Obj(lambda pool, **terms: FlashPool(pool, **terms),
            {"pool": str, "available": float, "fee_rate": float})
# The attack-plan/1 kind: sweep-cost reads two of its fields, attack all.
SWEEP = Obj(dict, {"tokens_needed": float, "books": [_BOOK]}, "attack-plan/1")
ATTACK_PLAN = Obj(_attack_plans, {
    **SWEEP.fields,
    "flash_pools": [_POOL],
    "seizable_collateral": float,
    "mintable_debt": float,
    "governance_token_price": float,
    "loan_currency_price": float,
    "strategies": [Obj(dict, {"name": str, "gas_cost": float})],
}, "attack-plan/1")


@dataclass(frozen=True)
class SweepResult:
    total_cost: float
    fills: tuple[tuple[str, float, float], ...]  # (venue, price, qty), fill order

    def venue_totals(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for venue, _, qty in self.fills:
            totals[venue] = totals.get(venue, 0.0) + qty
        return totals


@dataclass(frozen=True)
class AttackOutcome:
    strategy: str
    executed: bool
    net_profit: float
    holdings: dict[str, float]
    sweep_cost: float | None = None
    loan_interest: float | None = None


def _fill(offers: list, target: float, shortfall) -> tuple[list, float]:
    """Fill target from (unit price, quantity, name) offers, cheapest first.

    A stable sort on price keeps the input order of equal prices; offers
    of zero quantity, and all offers once the target is met, are passed
    over. Returns the (name, price, quantity) fills in fill order and their
    cost, the sum of price times quantity in that order. A target that is
    not > 0, NaN included, is InvalidParams.

    One rule fills and decides a shortfall, on the running sum of the
    quantities taken: offers are taken whole while that sum stays within
    the target, and the first offer whose whole quantity would pass it gives
    the rest, target - sum, and ends the fill. If the sum of every offer is
    below the target, the offers fall short: shortfall(target, sum) is
    raised. So a target equal to the offers' quantities summed in fill
    order is filled, and the last fill is what remained of the target.
    """
    if not target > 0:
        raise InvalidParams(f"quantity to fill must be > 0, got {target}")
    ladder = sorted(offers, key=lambda offer: offer[0])
    fills, cost, filled = [], 0.0, 0.0
    for price, qty, name in ladder:
        if filled == target:
            break
        if filled + qty > target:
            rest = target - filled
            fills.append((name, price, rest))
            return fills, cost + rest * price
        if qty > 0:
            fills.append((name, price, qty))
            cost += qty * price
            filled += qty
    if filled < target:
        raise shortfall(target, filled)
    return fills, cost


def sweep_cost(books: Sequence[OrderBookSnapshot], target_qty: float) -> SweepResult:
    """Cost of buying target_qty by walking the cheapest levels across all
    venues merged into one ladder. Ties between equal prices fill in book
    order, then level order."""
    offers = [(price, qty, b.venue_id) for b in books for price, qty in b.levels]
    fills, cost = _fill(offers, target_qty, InsufficientDepth)
    return SweepResult(total_cost=cost, fills=tuple(fills))


def flash_loan_cost(
    pools: Sequence[FlashPool], amount: float
) -> tuple[dict[str, float], float]:
    """Greedy allocation from the lowest-fee pools first.

    Returns ({pool_id: allocated}, total interest). Ties between equal fees
    fill in input order."""
    offers = [(p.fee_rate, p.available, p.pool_id) for p in pools]
    fills, interest = _fill(offers, amount, InsufficientPoolLiquidity)
    return {pool_id: take for pool_id, _, take in fills}, interest


def voting_gas_budget(
    gas_limit: float, per_vote: float, block_fraction: float
) -> int:
    """Votes that fit in a block budget: floor(gas_limit * fraction / per_vote)."""
    if gas_limit <= 0 or per_vote <= 0:
        raise InvalidParams("gas amounts must be > 0")
    if not 0 < block_fraction <= 1:
        raise InvalidParams("block fraction must lie in (0, 1]")
    return math.floor(gas_limit * block_fraction / per_vote)


def attack_profit(plan: AttackPlan, strategy: str) -> AttackOutcome:
    """Net profit of one attack strategy at spot valuations.

    Crowdfund: participants keep their own governance tokens, so the profit
    is the seized collateral plus mintable debt minus gas. Flash loan: the
    swept token cost is repaid from the seized collateral with pool
    interest; the attacker keeps the tokens and the minted debt. The attack
    contract reverts when unprofitable, so a non-executed attack loses only
    its gas.
    """
    sweep = interest = None
    if strategy == CROWDFUND:
        holdings = {
            "loan_currency": plan.seizable_collateral,
            "debt_token": plan.mintable_debt,
        }
        value = plan.seizable_collateral * plan.loan_currency_price + plan.mintable_debt
    elif strategy == FLASHLOAN:
        sweep = sweep_cost(plan.books, plan.tokens_needed).total_cost
        _, interest = flash_loan_cost(plan.flash_pools, sweep)
        holdings = {
            "loan_currency": plan.seizable_collateral - sweep - interest,
            "governance_token": plan.tokens_needed,
            "debt_token": plan.mintable_debt,
        }
        value = (
            holdings["loan_currency"] * plan.loan_currency_price
            + plan.tokens_needed * plan.governance_token_price
            + plan.mintable_debt
        )
    else:
        raise InvalidParams(f"unknown strategy {strategy!r}")
    profit = value - plan.gas_cost
    if profit <= 0:
        return AttackOutcome(strategy, False, -plan.gas_cost, {}, sweep, interest)
    return AttackOutcome(strategy, True, profit, holdings, sweep, interest)
