import csv
import math

import numpy as np
import pytest

from defi_stress import contagion
from defi_stress.contagion import (
    CompositionModel,
    DamageScenario,
    MarketEntry,
    MarketSnapshot,
    damage_table,
    max_systemic_loss,
    sweepable_total,
    write_loss_csv,
    LossDistribution,
)
from defi_stress.errors import EmptySeries, InvalidParams, InvalidRange, ParseError
from oracle import whole_array_systemic_loss

MB = 2**20


def uniform_inverse_mean(low, high):
    if low == high:
        return 1.0 / low
    return math.log(high / low) / (high - low)


class TestSweepableTotal:
    def test_empty(self):
        assert sweepable_total(MarketSnapshot(())) == 0.0

    def test_unlimited_cap_takes_everything(self, dai_snapshot_csv):
        snapshot = MarketSnapshot.from_csv(dai_snapshot_csv)
        assert sweepable_total(snapshot) == pytest.approx(211e6)

    def test_finite_cap_binds(self, dai_snapshot_csv):
        snapshot = MarketSnapshot.from_csv(dai_snapshot_csv)
        assert sweepable_total(snapshot, 145e6) == pytest.approx(145e6)

    def test_monotone_in_cap_and_entries(self):
        entries = (MarketEntry("m", "DAI/ETH", 100.0),)
        snapshot = MarketSnapshot(entries)
        bigger = MarketSnapshot(entries + (MarketEntry("n", "DAI/USDC", 50.0),))
        assert sweepable_total(snapshot, 30) <= sweepable_total(snapshot, 80)
        assert sweepable_total(snapshot) <= sweepable_total(bigger)

    def test_negative_notional_rejected(self):
        with pytest.raises(InvalidParams):
            MarketSnapshot((MarketEntry("m", "p", -1.0),))

    def test_csv_header_checked(self, tmp_path):
        path = tmp_path / "snap.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ParseError):
            MarketSnapshot.from_csv(path)

    def test_csv_blank_rows_skipped_and_field_count_checked(self, tmp_path):
        path = tmp_path / "snap.csv"
        path.write_text("market,pair,notional_usd\nm,DAI/ETH,5\n\n , ,\nn,DAI/USDC,7\n")
        snapshot = MarketSnapshot.from_csv(path)
        assert snapshot.entries == (
            MarketEntry("m", "DAI/ETH", 5.0),
            MarketEntry("n", "DAI/USDC", 7.0),
        )
        path.write_text("market,pair,notional_usd\nm,DAI/ETH,5\n\nn,DAI/USDC\n")
        with pytest.raises(ParseError) as exc:
            MarketSnapshot.from_csv(path)
        assert exc.value.row == 2
        assert str(exc.value) == "row 2: expected 3 fields, got 2"

    def test_csv_without_a_header_line_is_empty(self, tmp_path):
        path = tmp_path / "snap.csv"
        path.write_text("")
        with pytest.raises(EmptySeries):
            MarketSnapshot.from_csv(path)

    @pytest.mark.parametrize("notional", ["nan", "inf"])
    def test_non_finite_notional_rejected(self, tmp_path, notional):
        path = tmp_path / "snap.csv"
        path.write_text(f"market,pair,notional_usd\nm,DAI/ETH,5\nn,DAI,{notional}\n")
        with pytest.raises(InvalidParams):
            MarketSnapshot.from_csv(path)

    @pytest.mark.parametrize("cap", [-1.0, math.nan])
    def test_cap_must_be_non_negative(self, cap):
        with pytest.raises(InvalidParams):
            sweepable_total(MarketSnapshot(()), cap)


class TestMaxSystemicLoss:
    def test_degenerate_range_single_protocol(self):
        model = CompositionModel(1, 400e6, (2.0, 2.0), seed=0, n_samples=100)
        dist = max_systemic_loss(model)
        assert np.all(dist.samples == pytest.approx(200e6))

    def test_mean_matches_closed_form(self):
        model = CompositionModel(30, 400e6, (1.01, 1.05), seed=5, n_samples=100_000)
        dist = max_systemic_loss(model)
        expected = 400e6 * uniform_inverse_mean(1.01, 1.05)
        assert dist.mean == pytest.approx(expected, rel=0.005)

    def test_monotone_in_range_width(self):
        means = []
        for high in (1.05, 1.5, 3.0):
            model = CompositionModel(30, 400e6, (1.01, high), seed=5, n_samples=50_000)
            means.append(max_systemic_loss(model).mean)
        assert means[0] > means[1] > means[2]

    def test_samples_within_bounds(self):
        model = CompositionModel(10, 400e6, (1.1, 2.5), seed=3, n_samples=20_000)
        dist = max_systemic_loss(model)
        assert dist.min >= 400e6 / 2.5 - 1e-6
        assert dist.max <= 400e6 / 1.1 + 1e-6

    def test_loss_strictly_decreasing_in_each_multiplier(self):
        # pairwise perturbation of the loss function itself
        rng = np.random.default_rng(1)
        lams = rng.uniform(1.01, 2.0, 12)
        base = (400e6 / 12 / lams).sum()
        for i in range(12):
            bumped = lams.copy()
            bumped[i] *= 1.05
            assert (400e6 / 12 / bumped).sum() < base

    def test_deterministic_given_seed(self):
        model = CompositionModel(5, 1e8, (1.2, 1.8), seed=9, n_samples=1000)
        a = max_systemic_loss(model)
        b = max_systemic_loss(model)
        assert np.array_equal(a.samples, b.samples)

    def test_invalid_range(self):
        with pytest.raises(InvalidRange):
            CompositionModel(5, 1e8, (1.0, 1.5), seed=0, n_samples=10)
        with pytest.raises(InvalidRange):
            CompositionModel(5, 1e8, (1.5, 1.2), seed=0, n_samples=10)

    @pytest.mark.parametrize(
        "debt, lambda_range",
        [(math.inf, (1.1, 1.5)), (math.nan, (1.1, 1.5)), (1e8, (1.1, math.inf))],
        ids=["infinite_debt", "nan_debt", "infinite_lambda"],
    )
    def test_non_finite_rejected(self, debt, lambda_range):
        with pytest.raises(InvalidParams):
            CompositionModel(5, debt, lambda_range, seed=0, n_samples=10)

    @pytest.mark.parametrize("n_protocols", [1, 30, 65])
    @pytest.mark.parametrize("samples", ["one", "rows-1", "rows", "rows+1", "100k"])
    def test_blocks_equal_the_whole_array_draw(
        self, monkeypatch, n_protocols, samples
    ):
        # 64 elements a block: 64 rows of 1 protocol, 2 rows of 30, and
        # 1 row of 65 protocols, more than one block's elements.
        monkeypatch.setattr(contagion, "_BLOCK_ELEMENTS", 64)
        rows = max(1, 64 // n_protocols)
        n_samples = {
            "one": 1,
            "rows-1": max(1, rows - 1),
            "rows": rows,
            "rows+1": rows + 1,
            "100k": 100_000,
        }[samples]
        model = CompositionModel(
            n_protocols, 400e6, (1.01, 1.5), seed=7, n_samples=n_samples
        )
        self.assert_equal_to_whole_array(model)

    def test_bundled_model_equals_the_whole_array_draw(self):
        model = CompositionModel(30, 400e6, (1.01, 3.0), seed=7, n_samples=100_000)
        self.assert_equal_to_whole_array(model)

    @staticmethod
    def assert_equal_to_whole_array(model):
        blocked = max_systemic_loss(model)
        whole = whole_array_systemic_loss(model)
        assert blocked.samples.tobytes() == whole.samples.tobytes()
        assert (blocked.mean, blocked.min, blocked.max) == (
            whole.mean,
            whole.min,
            whole.max,
        )

    def test_memory_is_the_loss_vector_and_one_block(self, traced_peak):
        # The bundled model's 100k x 30 multipliers are 24 MB; drawn in
        # blocks, the peak is the 0.8 MB loss vector and about 1 MB more,
        # and ten times as many protocols do not raise it. A first call
        # makes numpy's one-time allocations outside the measured calls.
        max_systemic_loss(CompositionModel(1, 1.0, (1.1, 1.5), seed=0, n_samples=1))
        peaks = []
        for n_protocols in (30, 300):
            model = CompositionModel(
                n_protocols, 400e6, (1.01, 1.5), seed=7, n_samples=100_000
            )
            peak, _ = traced_peak(lambda: max_systemic_loss(model))
            assert peak < 100_000 * 8 + 2 * MB
            peaks.append(peak)
        assert peaks[1] < 1.1 * peaks[0]

    def test_size_rule_checks_the_largest_array_drawn(self):
        limit = np.iinfo(np.intp).max // 8
        # n_samples x n_protocols losses beyond numpy's limit are no
        # longer one array.
        CompositionModel(limit // 4, 1e8, (1.1, 1.5), seed=0, n_samples=8)
        CompositionModel(8, 1e8, (1.1, 1.5), seed=0, n_samples=limit // 4)
        for n_protocols, n_samples in ((limit + 1, 1), (1, limit + 1)):
            with pytest.raises(InvalidParams, match="do not fit in one array"):
                CompositionModel(
                    n_protocols, 1e8, (1.1, 1.5), seed=0, n_samples=n_samples
                )


FEB2020_ROWS = [
    DamageScenario("undercollateralization (price crash)", 145e6),
    DamageScenario("undercollateralization (governance attack)", 211e6),
    DamageScenario("contagious undercollateralization (price crash)", 180e6, True),
    DamageScenario(
        "contagious undercollateralization (governance attack)", 246e6, True
    ),
]


class TestDamageTable:
    def test_feb2020_rows(self):
        text = damage_table(FEB2020_ROWS)
        lines = text.splitlines()
        assert lines[0] == "label,loss_usd,lower_bound"
        assert len(lines) == 5
        assert lines[1].endswith("1.45e+08,false")
        assert lines[3].endswith("1.8e+08,true")

    def test_empty_list(self):
        assert damage_table([]).splitlines() == ["label,loss_usd,lower_bound"]


def test_loss_csv(tmp_path):
    model = CompositionModel(3, 1e6, (1.1, 1.2), seed=2, n_samples=5)
    dist = max_systemic_loss(model)
    out = tmp_path / "losses.csv"
    write_loss_csv(dist, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "sample,loss"
    assert len(lines) == 6


def test_loss_csv_bytes_equal_csv_writer(tmp_path):
    rng = np.random.default_rng(4)
    samples = np.concatenate(
        [
            rng.normal(0.0, 1e6, 20_000),
            [-1.5, 0.0, -0.0, 5e-324, -2e-320, 1e-300, 1e308, -1.7976931348623157e308],
        ]
    )
    dist = LossDistribution(samples=samples, mean=0.0, min=0.0, max=0.0)
    write_loss_csv(dist, tmp_path / "joined.csv")
    with (tmp_path / "writer.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample", "loss"])
        for i, loss in enumerate(samples):
            writer.writerow([i, loss])
    assert (tmp_path / "joined.csv").read_bytes() == (
        tmp_path / "writer.csv"
    ).read_bytes()
