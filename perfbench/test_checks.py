"""Self-test of the benchmark: every check passes on genuine program output
and fails on tampered output.

    python3 -m pytest -q perfbench/test_checks.py

Genuine outputs come from running the CLI and the corr-sweep script in this
process on small versions of the workload inputs.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import corr_sweep  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from defi_stress import cli  # noqa: E402
from defi_stress.marketdata import jarque_bera, load_series, log_returns  # noqa: E402

DATA = ROOT / "src" / "defi_stress" / "data"
ETH_CSV = DATA / "eth_usd_daily.csv"
MAKER = DATA / "maker_feb2020.json"


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Genuine outputs of every command on small inputs, made once."""
    d = tmp_path_factory.mktemp("genuine")
    base = json.loads((DATA / "baseline_scenario.json").read_text())
    base["seed"] = 5
    (d / "scenario.json").write_text(json.dumps(base))
    model = json.loads((DATA / "contagion_feb2020.json").read_text())
    model.update(seed=5, n_samples=20_000)
    (d / "contagion.json").write_text(json.dumps(model))
    shutil.copy(DATA / model["snapshot_csv"], d / model["snapshot_csv"])
    sweep = dict(base, n_paths=2000, horizon_days=120, debt_levels=[4e8],
                 liquidity_regimes=[{"l0": 30000, "rho": 0.01}], sweep_rhos=[-0.9, 0.1, 0.9])
    del sweep["heatmap"]
    (d / "sweep.json").write_text(json.dumps(sweep))
    for argv in (
        ["ingest", str(ETH_CSV), "--out", str(d / "stats.json")],
        ["stress", "--config", str(d / "scenario.json"), "--out", str(d / "stress")],
        ["heatmap", "--config", str(d / "scenario.json"), "--out", str(d / "heatmap")],
        ["attack", "--config", str(MAKER), "--out", str(d / "attack")],
        ["contagion", "--config", str(d / "contagion.json"), "--out", str(d / "contagion")],
    ):
        assert cli.main(argv) == 0, argv
    assert corr_sweep.run(str(d / "sweep.json"), str(d / "sweep")) == 0
    return d, base, model, sweep


@pytest.fixture
def copy(outputs, tmp_path):
    """A private copy of the genuine outputs that a test may tamper with."""
    src, base, model, sweep = outputs
    shutil.copytree(src, tmp_path / "o")
    return tmp_path / "o", base, model, sweep


def rewrite_csv(path: Path, edit) -> None:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def edit_json(path: Path, edit) -> None:
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def sweep_summaries(d: Path) -> dict:
    return {r: checks.strict_json(d / "sweep" / f"rho{r:g}" / "summary.json") for r in (-0.9, 0.1, 0.9)}


def run_all(d: Path, base: dict, model: dict, sweep: dict) -> None:
    checks.check_ingest(d / "stats.json", ETH_CSV)
    returns = log_returns(load_series(ETH_CSV))
    checks.check_jarque_bera(*jarque_bera(returns), checks.fixture_returns(ETH_CSV))
    summary = checks.check_stress_report(d / "stress", base)
    checks.check_manifest(d / "stress", (d / "scenario.json").read_bytes(), base["seed"])
    checks.check_heatmap(d / "heatmap" / "heatmap.csv", base["heatmap"], summary)
    plan = json.loads(MAKER.read_text())
    checks.check_attack(d / "attack" / "attack_report.json", plan)
    checks.check_contagion(d / "contagion", model, d / model["snapshot_csv"])
    for rho in sweep["sweep_rhos"]:
        checks.check_stress_report(d / "sweep" / f"rho{rho:g}", dict(sweep, rho_corr=rho))
    checks.check_rho_order(sweep_summaries(d), workloads.RHO_ORDER_APART)


def test_genuine_outputs_pass(copy):
    run_all(*copy)


def test_checks_see_a_nudged_trace_margin(copy):
    d, base, *_ = copy
    trace = d / "stress" / "trace_debt4e+08_l030000_rho0.01.csv"
    rewrite_csv(trace, lambda rows: rows[5].__setitem__(7, repr(float(rows[5][7]) + 1.0)))
    with pytest.raises(checks.CheckFailed, match="margin"):
        checks.check_stress_report(d / "stress", base)


def test_checks_see_units_above_the_liquidity_cap(copy):
    d, base, *_ = copy
    trace = d / "stress" / "trace_debt4e+08_l030000_rho0.01.csv"

    def oversell(rows):
        rows[3][3] = repr(float(rows[3][3]) * 1.001)

    rewrite_csv(trace, oversell)
    with pytest.raises(checks.CheckFailed, match="liquidity"):
        checks.check_stress_report(d / "stress", base)


def test_checks_see_rising_debt(copy):
    d, base, *_ = copy
    trace = d / "stress" / "trace_debt3e+08_l030000_rho0.csv"
    rewrite_csv(trace, lambda rows: rows[4].__setitem__(5, repr(float(rows[3][5]) * 1.01)))
    with pytest.raises(checks.CheckFailed, match="debt"):
        checks.check_stress_report(d / "stress", base)


def test_checks_see_a_wrong_first_negative_day(copy):
    d, base, *_ = copy

    def shift(summary):
        cell = next(c for c in summary["cells"] if c["first_negative_day"] is not None)
        cell["first_negative_day"] += 1

    edit_json(d / "stress" / "summary.json", shift)
    with pytest.raises(checks.CheckFailed, match="first_negative_day"):
        checks.check_stress_report(d / "stress", base)


def test_checks_see_swapped_heatmap_cells(copy):
    d, base, *_ = copy
    path = d / "heatmap" / "heatmap.csv"

    def swap(rows):
        for row in rows[1:]:
            cells = row[1:]
            j = next((j for j in range(len(cells) - 1) if cells[j] != cells[j + 1]), None)
            if j is not None:
                row[j + 1], row[j + 2] = row[j + 2], row[j + 1]
                return
        raise AssertionError("no two differing cells in a row")

    rewrite_csv(path, swap)
    with pytest.raises(checks.CheckFailed, match="heatmap"):
        checks.check_heatmap(path, base["heatmap"], None)


def test_checks_see_a_heatmap_that_disagrees_with_stress(copy):
    d, base, *_ = copy
    summary = checks.strict_json(d / "stress" / "summary.json")
    cell = next(c for c in summary["cells"] if c["liquidity_rho"] == 0.01 and c["first_negative_day"] is not None)
    cell["first_negative_day"] -= 1
    with pytest.raises(checks.CheckFailed, match="stress says"):
        checks.check_heatmap(d / "heatmap" / "heatmap.csv", base["heatmap"], summary)


def test_checks_see_a_contagion_mean_moved_by_one_percent(copy):
    d, _, model, _ = copy
    edit_json(d / "contagion" / "contagion_summary.json",
              lambda s: s["losses"]["1.01-3"].__setitem__("mean", s["losses"]["1.01-3"]["mean"] * 1.01))
    with pytest.raises(checks.CheckFailed, match="mean"):
        checks.check_contagion(d / "contagion", model, d / model["snapshot_csv"])


def test_checks_see_losses_shifted_by_one_percent_everywhere(copy):
    """CSV and summary agree, but the mean is off the closed form."""
    d, _, model, _ = copy
    path = d / "contagion" / "losses_1.01-3.csv"
    rewrite_csv(path, lambda rows: [r.__setitem__(1, repr(float(r[1]) * 1.01)) for r in rows[1:]])
    losses = [float(r[1]) for r in checks.read_csv(path)[1]]
    edit_json(d / "contagion" / "contagion_summary.json",
              lambda s: s["losses"]["1.01-3"].update(mean=sum(losses) / len(losses), min=min(losses), max=max(losses)))
    with pytest.raises(checks.CheckFailed, match="4 SE"):
        checks.check_contagion(d / "contagion", model, d / model["snapshot_csv"])


def test_checks_see_a_missing_loss_row(copy):
    d, _, model, _ = copy
    rewrite_csv(d / "contagion" / "losses_1.01-1.5.csv", lambda rows: rows.pop())
    with pytest.raises(checks.CheckFailed, match="rows"):
        checks.check_contagion(d / "contagion", model, d / model["snapshot_csv"])


def test_checks_see_a_wrong_sweepable_total(copy):
    d, _, model, _ = copy
    edit_json(d / "contagion" / "contagion_summary.json",
              lambda s: s.__setitem__("sweepable_capped", s["sweepable_unlimited"]))
    with pytest.raises(checks.CheckFailed, match="sweepable_capped"):
        checks.check_contagion(d / "contagion", model, d / model["snapshot_csv"])


def test_checks_see_wrong_ingest_moments(copy):
    d, *_ = copy
    edit_json(d / "stats.json", lambda s: s.__setitem__("sigma", s["sigma"] * (1 + 1e-6)))
    with pytest.raises(checks.CheckFailed, match="sigma"):
        checks.check_ingest(d / "stats.json", ETH_CSV)


def test_checks_see_a_wrong_jarque_bera_p_value():
    returns = checks.fixture_returns(ETH_CSV)
    stat, p_value = jarque_bera(log_returns(load_series(ETH_CSV)))
    with pytest.raises(checks.CheckFailed, match="exp"):
        checks.check_jarque_bera(stat, p_value * 1.001 + 1e-300, returns)


def test_checks_see_a_wrong_attack_profit(copy):
    d, *_ = copy
    edit_json(d / "attack" / "attack_report.json",
              lambda r: r["flashloan"].__setitem__("net_profit", r["flashloan"]["net_profit"] + 1.0))
    with pytest.raises(checks.CheckFailed, match="flashloan profit"):
        checks.check_attack(d / "attack" / "attack_report.json", json.loads(MAKER.read_text()))


def test_sweep_cost_check_against_the_brute_force_walk(tmp_path):
    plan = json.loads(MAKER.read_text())
    report = tmp_path / "sweep_cost.json"
    cost = checks.brute_force_sweep(plan["books"], 50_000.0)
    fills = [["v", 1.0, 30_000.0], ["w", 2.0, 20_000.0]]
    report.write_text(json.dumps({"target_qty": 50_000.0, "total_cost": cost, "fills": fills}))
    checks.check_sweep_cost(report, plan)
    report.write_text(json.dumps({"target_qty": 50_000.0, "total_cost": cost * 0.999, "fills": fills}))
    with pytest.raises(checks.CheckFailed, match="total_cost"):
        checks.check_sweep_cost(report, plan)


def test_checks_reject_non_finite_json(copy):
    d, base, *_ = copy
    path = d / "stress" / "summary.json"
    path.write_text(path.read_text().replace('"terminal_margin": ', '"terminal_margin": NaN, "x": ', 1))
    with pytest.raises(checks.CheckFailed, match="NaN"):
        checks.check_stress_report(d / "stress", base)


def test_checks_see_a_manifest_of_other_config_bytes(copy):
    d, base, *_ = copy
    with pytest.raises(checks.CheckFailed, match="config_digest"):
        checks.check_manifest(d / "stress", (d / "scenario.json").read_bytes() + b" ", base["seed"])


def test_checks_see_misordered_debt_levels(copy):
    d, *_ = copy
    summary = checks.strict_json(d / "stress" / "summary.json")
    checks.check_debt_decay_order(summary)
    low, high = summary["cells"][0], summary["cells"][-3]  # debt 1e8 and 4e8, same regime
    low["min_terminal_margin"], high["min_terminal_margin"] = high["min_terminal_margin"], low["min_terminal_margin"]
    with pytest.raises(checks.CheckFailed, match="min_terminal_margin"):
        checks.check_debt_decay_order(summary)


def test_checks_see_misordered_decay_where_debt_goes_under(copy):
    d, *_ = copy
    summary = checks.strict_json(d / "stress" / "summary.json")
    slow, fast = summary["cells"][-3], summary["cells"][-1]  # debt 4e8, decay 0 and 0.01
    assert slow["first_negative_day"] is not None and fast["first_negative_day"] is not None
    slow["min_terminal_margin"], fast["min_terminal_margin"] = fast["min_terminal_margin"], slow["min_terminal_margin"]
    with pytest.raises(checks.CheckFailed, match="min_terminal_margin"):
        checks.check_debt_decay_order(summary)


def test_decay_is_not_ordered_where_no_path_goes_under(copy):
    d, *_ = copy
    summary = checks.strict_json(d / "stress" / "summary.json")
    slow, fast = summary["cells"][0], summary["cells"][2]  # debt 1e8, decay 0 and 0.01
    assert slow["first_negative_day"] is None
    slow["min_terminal_margin"], fast["min_terminal_margin"] = fast["min_terminal_margin"], slow["min_terminal_margin"]
    checks.check_debt_decay_order(summary)


def test_checks_see_misordered_correlations(copy):
    d, *_ = copy
    summaries = sweep_summaries(d)
    a, b = summaries[-0.9]["cells"][0], summaries[0.9]["cells"][0]
    a["min_terminal_margin"], b["min_terminal_margin"] = b["min_terminal_margin"], a["min_terminal_margin"]
    with pytest.raises(checks.CheckFailed, match="rho"):
        checks.check_rho_order(summaries, workloads.RHO_ORDER_APART)


def test_checks_see_a_sweep_that_ignores_the_correlation(copy):
    d, *_ = copy
    summaries = sweep_summaries(d)
    for s in summaries.values():
        s["cells"] = summaries[0.9]["cells"]
    with pytest.raises(checks.CheckFailed, match="rho"):
        checks.check_rho_order(summaries, workloads.RHO_ORDER_APART)


def test_close_correlations_are_not_ordered(copy):
    d, *_ = copy
    summaries = sweep_summaries(d)
    a, b = summaries[0.1]["cells"][0], summaries[0.9]["cells"][0]  # 0.8 apart
    a["min_terminal_margin"], b["min_terminal_margin"] = b["min_terminal_margin"], a["min_terminal_margin"]
    checks.check_rho_order(summaries, workloads.RHO_ORDER_APART)


def test_self_time_subtracts_direct_children():
    spans = [
        ["stress.run_scenario", -1, 0.0, 10.0, 0, 0, 0],
        ["paths.simulate_correlated", 0, 1.0, 4.0, 0, 100, 600],
        ["protocol.liquidate_ensemble", 0, 4.0, 9.0, 100, 100, 50],
        ["protocol.liquidity_at", 2, 5.0, 6.0, 100, 100, 0],
    ]
    m = layers.layer_metrics([spans])
    assert m["stress.self_s"] == pytest.approx(2.0)
    assert m["paths.path_days_per_s"] == pytest.approx(200.0)
    assert m["protocol.cell_path_days_per_s"] == pytest.approx(10.0)
    assert m["paths.rss_growth_mb"] == pytest.approx(100 / layers.KB_PER_MB)
    assert set(m) | {"trace.overhead_pct"} == set(layers.UNITS)


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
    setup_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup_bound <= 0.25 for m in spec["end_to_end"])
