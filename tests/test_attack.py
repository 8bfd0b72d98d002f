import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from defi_stress.attack import (
    AttackPlan,
    FlashPool,
    OrderBookSnapshot,
    attack_profit,
    flash_loan_cost,
    sweep_cost,
    voting_gas_budget,
)
from defi_stress.errors import (
    InsufficientDepth,
    InsufficientPoolLiquidity,
    InvalidParams,
)


def book(venue, *levels):
    return OrderBookSnapshot(venue_id=venue, levels=tuple(levels))


def brute_force_sweep(books, target):
    """Independent oracle: flatten unit-for-unit priced levels and walk."""
    ladder = sorted(
        (price, qty) for b in books for price, qty in b.levels
    )
    cost, remaining = 0.0, target
    for price, qty in ladder:
        take = min(qty, remaining)
        cost += take * price
        remaining -= take
        if remaining <= 0:
            return cost
    raise AssertionError("oracle ran out of depth")


def load_plan(raw, gas_cost):
    return AttackPlan(
        tokens_needed=raw["tokens_needed"],
        books=tuple(
            OrderBookSnapshot(b["venue"], tuple(map(tuple, b["levels"])))
            for b in raw["books"]
        ),
        flash_pools=tuple(
            FlashPool(p["pool"], p["available"], p["fee_rate"])
            for p in raw["flash_pools"]
        ),
        seizable_collateral=raw["seizable_collateral"],
        mintable_debt=raw["mintable_debt"],
        governance_token_price=raw["governance_token_price"],
        loan_currency_price=raw["loan_currency_price"],
        gas_cost=gas_cost,
    )


class TestSweepCost:
    def test_single_level(self):
        result = sweep_cost([book("a", (10.0, 100.0))], 50.0)
        assert result.total_cost == 500.0

    def test_walks_up_the_ladder(self):
        result = sweep_cost([book("a", (10.0, 5.0), (12.0, 5.0))], 8.0)
        assert result.total_cost == pytest.approx(86.0)

    def test_insufficient_depth_reports_max_fillable(self):
        with pytest.raises(InsufficientDepth) as exc:
            sweep_cost([book("a", (10.0, 5.0))], 8.0)
        assert exc.value.max_fillable == 5.0

    def test_merges_across_venues(self):
        result = sweep_cost(
            [book("a", (10.0, 5.0), (30.0, 10.0)), book("b", (11.0, 5.0))], 10.0
        )
        assert result.total_cost == pytest.approx(10 * 5 + 11 * 5)
        assert result.venue_totals() == {"a": 5.0, "b": 5.0}

    def test_fixture_reproduces_published_ratio(self, attack_plan_raw):
        books = [
            book(b["venue"], *map(tuple, b["levels"]))
            for b in attack_plan_raw["books"]
        ]
        result = sweep_cost(books, 50_000)
        assert result.total_cost == pytest.approx(378_940, rel=1e-6)
        naive = 50_000 * 2.29492  # best quoted price for every unit
        assert result.total_cost / naive == pytest.approx(3.3, abs=0.05)
        fills = result.venue_totals()
        assert fills == {"kyber": 38_000, "uniswap": 11_500, "switcheo": 500}

    def test_matches_brute_force_oracle_randomized(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            books = []
            for v in range(rng.integers(1, 4)):
                n = int(rng.integers(1, 8))
                prices = np.sort(rng.uniform(1, 50, n))
                qtys = rng.uniform(0.5, 20, n)
                books.append(book(f"v{v}", *zip(prices, qtys)))
            depth = sum(b.depth() for b in books)
            target = float(rng.uniform(0.1, depth))
            assert sweep_cost(books, target).total_cost == pytest.approx(
                brute_force_sweep(books, target), rel=1e-12
            )

    @given(st.lists(st.floats(min_value=0.1, max_value=50), min_size=1, max_size=8))
    def test_monotone_and_convex_in_quantity(self, qtys):
        rng = np.random.default_rng(3)
        prices = np.sort(rng.uniform(1, 10, len(qtys)))
        b = book("x", *zip(prices, qtys))
        depth = b.depth()
        targets = np.linspace(depth / 10, depth, 6)
        costs = [sweep_cost([b], float(t)).total_cost for t in targets]
        marginal = np.diff(costs) / np.diff(targets)
        assert all(np.diff(costs) >= -1e-9)
        assert all(np.diff(marginal) >= -1e-9)

    def test_bundled_plan_fills(self, attack_plan_raw):
        plan = load_plan(attack_plan_raw, gas_cost=15.0)
        result = sweep_cost(plan.books, plan.tokens_needed)
        assert result.total_cost == 378940.0
        assert result.fills == (
            ("kyber", 2.29492, 10000.0),
            ("uniswap", 5.0, 6000.0),
            ("switcheo", 5.5, 500.0),
            ("kyber", 6.5, 10000.0),
            ("kyber", 9.8, 10000.0),
            ("kyber", 11.7801, 8000.0),
            ("uniswap", 12.0, 5500.0),
        )

    @pytest.mark.parametrize("target", [0.0, -1.0, float("nan")])
    def test_target_must_be_positive(self, target):
        with pytest.raises(InvalidParams):
            sweep_cost([book("a", (10.0, 5.0))], target)

    def test_book_validation(self):
        with pytest.raises(InvalidParams):
            book("a", (10.0, 5.0), (9.0, 5.0))  # decreasing price
        with pytest.raises(InvalidParams):
            book("a", (10.0, 0.0))


class TestFlashLoanCost:
    def test_zero_fee(self):
        alloc, interest = flash_loan_cost([FlashPool("p", 1e6, 0.0)], 1000.0)
        assert interest == 0.0
        assert alloc == {"p": 1000.0}

    def test_published_interest(self):
        _, interest = flash_loan_cost(
            [FlashPool("aave", 1e6, 0.0009)], 295_355.6
        )
        assert interest == pytest.approx(265.82, abs=0.01)

    def test_greedy_fills_cheapest_first(self):
        pools = [FlashPool("A", 100, 0.001), FlashPool("B", 100, 0.0)]
        alloc, interest = flash_loan_cost(pools, 150)
        assert alloc == {"B": 100, "A": 50}
        assert interest == pytest.approx(0.05)

    def test_insufficient_liquidity(self):
        with pytest.raises(InsufficientPoolLiquidity):
            flash_loan_cost([FlashPool("A", 10, 0.0)], 11)


    @given(
        st.lists(
            st.tuples(st.integers(0, 50), st.sampled_from([0.0, 5e-4, 9e-4, 3e-3])),
            min_size=1,
            max_size=8,
        ),
        st.data(),
    )
    def test_greedy_allocation_properties(self, pool_specs, data):
        # Whole-unit liquidity and amounts keep every sum below exact.
        total = sum(available for available, _ in pool_specs)
        assume(total > 0)
        amount = float(data.draw(st.integers(1, total)))
        pools = [
            FlashPool(f"p{i}", float(available), fee)
            for i, (available, fee) in enumerate(pool_specs)
        ]
        alloc, interest = flash_loan_cost(pools, amount)
        assert sum(alloc.values()) == amount
        drawn = {p.pool_id: alloc.get(p.pool_id, 0.0) for p in pools}
        assert all(0 <= drawn[p.pool_id] <= p.available for p in pools)
        dearest = max(p.fee_rate for p in pools if p.pool_id in alloc)
        for i, p in enumerate(pools):
            if p.fee_rate < dearest:
                assert drawn[p.pool_id] == p.available
            if drawn[p.pool_id] > 0:
                # Every earlier pool of the same fee was drawn in full first.
                for q in pools[:i]:
                    if q.fee_rate == p.fee_rate:
                        assert drawn[q.pool_id] == q.available
        fill_order = sorted(pools, key=lambda p: p.fee_rate)
        assert list(alloc) == [p.pool_id for p in fill_order if p.pool_id in alloc]
        fees = {p.pool_id: p.fee_rate for p in pools}
        expected = 0.0
        for pool_id, take in alloc.items():
            expected += take * fees[pool_id]
        assert interest == expected

    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 1e6), st.sampled_from([0.0, 5e-4, 9e-4, 3e-3])
            ),
            min_size=1,
            max_size=8,
        ),
        st.one_of(st.just(1.0), st.floats(0.9, 1.1)),
    )
    def test_allocation_leaves_nothing_unfilled_or_raises(self, pool_specs, share):
        # Amounts at and about the pools' total, summed in input order.
        pools = [
            FlashPool(f"p{i}", available, fee)
            for i, (available, fee) in enumerate(pool_specs)
        ]
        amount = share * sum(available for available, _ in pool_specs)
        assume(amount > 0)
        fill_order = sorted(pools, key=lambda p: p.fee_rate)
        try:
            alloc, _ = flash_loan_cost(pools, amount)
        except InsufficientPoolLiquidity as exc:
            # Every pool was drawn in full, and that falls short.
            assert exc.available == sum(p.available for p in fill_order)
            assert exc.available < amount
            return
        # Every pool drawn but the last gives all it holds, and the last
        # gives what remained of the amount: nothing is left unfilled.
        available = {p.pool_id: p.available for p in pools}
        takes = list(alloc.values())
        assert takes[:-1] == [available[pool_id] for pool_id in list(alloc)[:-1]]
        drawn = sum(takes[:-1])
        assert takes[-1] == amount - drawn or drawn + takes[-1] == amount
        assert all(take <= available[pool_id] for pool_id, take in alloc.items())

    @pytest.mark.parametrize("amount", [0.0, float("nan")])
    def test_amount_must_be_positive(self, amount):
        with pytest.raises(InvalidParams):
            flash_loan_cost([FlashPool("A", 10, 0.0)], amount)


class TestVotingGasBudget:
    def test_half_block(self):
        assert voting_gas_budget(10_000_000, 69_000, 0.5) == 72

    def test_full_block(self):
        assert voting_gas_budget(10_000_000, 69_000, 1.0) == 144

    def test_vote_larger_than_block(self):
        assert voting_gas_budget(10_000_000, 20_000_000, 1.0) == 0

    @given(
        gas_limit=st.floats(min_value=1e4, max_value=1e8),
        per_vote=st.floats(min_value=1e3, max_value=1e7),
        fraction=st.floats(min_value=0.01, max_value=1.0),
    )
    def test_budget_never_exceeds_block_share(self, gas_limit, per_vote, fraction):
        votes = voting_gas_budget(gas_limit, per_vote, fraction)
        assert votes * per_vote <= gas_limit * fraction


class TestAttackProfit:
    def test_flashloan_feb2020(self, attack_plan_raw):
        plan = load_plan(attack_plan_raw, gas_cost=15.0)
        outcome = attack_profit(plan, "flashloan")
        assert outcome.executed
        assert outcome.holdings["loan_currency"] == pytest.approx(55_667, abs=1)
        assert outcome.holdings["governance_token"] == 50_000
        assert outcome.holdings["debt_token"] == 145e6
        assert outcome.loan_interest == pytest.approx(265.82, abs=0.01)
        assert abs(outcome.net_profit - 191e6) <= 0.05 * 191e6

    def test_crowdfund_feb2020(self, attack_plan_raw):
        plan = load_plan(attack_plan_raw, gas_cost=20.0)
        outcome = attack_profit(plan, "crowdfund")
        assert outcome.executed
        assert abs(outcome.net_profit - 263e6) <= 0.10 * 263e6

    def test_unprofitable_attack_reverts(self, attack_plan_raw):
        raw = dict(attack_plan_raw, seizable_collateral=100.0, mintable_debt=0.0)
        plan = load_plan(raw, gas_cost=15.0)
        outcome = attack_profit(plan, "flashloan")
        assert not outcome.executed
        assert outcome.net_profit == -15.0
        assert outcome.holdings == {}

    @pytest.mark.parametrize(
        "field", ["gas_cost", "seizable_collateral", "mintable_debt"]
    )
    def test_negative_amounts_rejected(self, attack_plan_raw, field):
        raw = dict(attack_plan_raw, gas_cost=15.0)
        raw[field] = -5.0
        with pytest.raises(InvalidParams, match=">= 0"):
            load_plan(raw, gas_cost=raw["gas_cost"])

    def test_unknown_strategy(self, attack_plan_raw):
        with pytest.raises(InvalidParams):
            attack_profit(load_plan(attack_plan_raw, 15.0), "bribe")

    def test_bundled_plan_outcomes(self, attack_plan_raw):
        flash = attack_profit(load_plan(attack_plan_raw, gas_cost=15.0), "flashloan")
        assert flash.net_profit == 184913766.13108
        assert flash.sweep_cost == 378940.0
        assert flash.loan_interest == 265.82003999999995
        assert flash.holdings == {
            "loan_currency": 55667.17996,
            "governance_token": 50000.0,
            "debt_token": 145000000.0,
        }
        crowd = attack_profit(load_plan(attack_plan_raw, gas_cost=20.0), "crowdfund")
        assert crowd.net_profit == 241976659.0
        assert crowd.sweep_cost is None and crowd.loan_interest is None
        assert crowd.holdings == {"loan_currency": 434873.0, "debt_token": 145000000.0}
