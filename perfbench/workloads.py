"""The benchmark's workloads: their inputs, operations and output checks.

Every input is made from the bundled fixtures in src/defi_stress/data, with
the workload seed written into the config's ``seed`` field; the program sees
only the generated files. Paths are relative to the checkout root, which is
the working directory of every operation.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import checks

DATA = Path("src/defi_stress/data")
BASELINE = DATA / "baseline_scenario.json"
MAKER = DATA / "maker_feb2020.json"
ETH_CSV = DATA / "eth_usd_daily.csv"

# stress-scaled: the scaled config of the ROADMAP (>= 50k paths x 365 days).
SCALED_PATHS, SCALED_DAYS = 50_000, 365
# corr-sweep: one cell, a smaller ensemble simulated once per correlation.
SWEEP_PATHS, SWEEP_DAYS = 20_000, 365
SWEEP_RHOS = [-0.9, -0.5, 0.1, 0.5, 0.9]
# The worst terminal margin at the lowest correlation lies above that of every
# level at least this far above it (acceptance criterion 6). The worst of 20k
# paths can cross between closer levels: over 60 seeds 0.1 and 0.9 crossed on
# 4, while -0.9 stayed above 0.1, 0.5 and 0.9 on all 60, by 11 % or more.
RHO_ORDER_APART = 1.0
SWEEP_CELL = {"debt": 400_000_000, "l0": 30_000, "rho": 0.01}


@dataclass
class Op:
    """One operation: a fresh interpreter running launch.py TARGET ARGS."""

    name: str
    target: str
    args: list[str]
    cell_path_days: int = 0  # liquidation work: cells x paths x (horizon + 1)


@dataclass
class Workload:
    inputs: Path
    seed: int
    configs: dict = field(default_factory=dict)

    def write_config(self, name: str, raw: dict) -> None:
        (self.inputs / name).write_text(json.dumps(raw, indent=2) + "\n")
        self.configs[name] = raw

    def config_bytes(self, name: str) -> bytes:
        return (self.inputs / name).read_bytes()


def _cells_work(raw: dict, cells: int) -> int:
    return cells * raw["n_paths"] * (raw["horizon_days"] + 1)


def _baseline() -> dict:
    return json.loads(BASELINE.read_text())


class CliFixtures(Workload):
    """The six commands of the README's CLI section, in order."""

    def prepare(self) -> None:
        self.write_config("baseline_scenario.json", dict(_baseline(), seed=self.seed))
        contagion = json.loads((DATA / "contagion_feb2020.json").read_text())
        self.write_config("contagion_feb2020.json", dict(contagion, seed=self.seed))
        shutil.copy(DATA / contagion["snapshot_csv"], self.inputs / contagion["snapshot_csv"])

    def ops(self, out: Path) -> list[Op]:
        base = self.configs["baseline_scenario.json"]
        scenario = str(self.inputs / "baseline_scenario.json")
        grid = base["heatmap"]
        one = ["--threads", "1"]
        return [
            Op("ingest", "cli", ["ingest", str(ETH_CSV)]),
            Op(
                "stress", "cli",
                ["stress", "--config", scenario, "--out", str(out / "stress")] + one,
                _cells_work(base, len(base["debt_levels"]) * len(base["liquidity_regimes"])),
            ),
            Op(
                "heatmap", "cli",
                ["heatmap", "--config", scenario, "--out", str(out / "heatmap")] + one,
                _cells_work(base, len(grid["debt_grid"]) * len(grid["l0_grid"])),
            ),
            Op("sweep-cost", "cli", ["sweep-cost", "--config", str(MAKER), "--out", str(out / "sweep")] + one),
            Op("attack", "cli", ["attack", "--config", str(MAKER), "--out", str(out / "attack")] + one),
            Op(
                "contagion", "cli",
                ["contagion", "--config", str(self.inputs / "contagion_feb2020.json"),
                 "--out", str(out / "contagion")] + one,
            ),
        ]

    def check(self, out: Path, succeeded: set[str]) -> None:
        base = self.configs["baseline_scenario.json"]
        plan = json.loads(MAKER.read_text())
        summary = None
        if "ingest" in succeeded:
            checks.check_ingest(out / "ingest.stdout", ETH_CSV)
            # cmd_ingest does not report Jarque-Bera, so the library call is
            # checked here, after the timed rounds.
            from defi_stress.marketdata import jarque_bera, load_series, log_returns

            returns = log_returns(load_series(ETH_CSV))
            checks.check_jarque_bera(*jarque_bera(returns), checks.fixture_returns(ETH_CSV))
        if "stress" in succeeded:
            summary = checks.check_stress_report(out / "stress", base)
            checks.check_manifest(out / "stress", self.config_bytes("baseline_scenario.json"), self.seed)
        if "heatmap" in succeeded:
            checks.check_heatmap(out / "heatmap" / "heatmap.csv", base["heatmap"], summary)
            checks.check_manifest(out / "heatmap", self.config_bytes("baseline_scenario.json"), self.seed)
        if "sweep-cost" in succeeded:
            checks.check_sweep_cost(out / "sweep" / "sweep_cost.json", plan)
            checks.check_manifest(out / "sweep", MAKER.read_bytes(), None)
        if "attack" in succeeded:
            checks.check_attack(out / "attack" / "attack_report.json", plan)
            checks.check_manifest(out / "attack", MAKER.read_bytes(), None)
        if "contagion" in succeeded:
            model = self.configs["contagion_feb2020.json"]
            checks.check_contagion(out / "contagion", model, self.inputs / model["snapshot_csv"])
            checks.check_manifest(out / "contagion", self.config_bytes("contagion_feb2020.json"), self.seed)


class StressScaled(Workload):
    """defi-stress stress on the baseline scenario scaled to 50k x 365."""

    def prepare(self) -> None:
        raw = dict(_baseline(), seed=self.seed, n_paths=SCALED_PATHS, horizon_days=SCALED_DAYS)
        del raw["heatmap"]
        self.write_config("scaled_scenario.json", raw)

    def ops(self, out: Path) -> list[Op]:
        raw = self.configs["scaled_scenario.json"]
        config = str(self.inputs / "scaled_scenario.json")
        cells = len(raw["debt_levels"]) * len(raw["liquidity_regimes"])
        return [
            Op(
                "stress", "cli",
                ["stress", "--config", config, "--out", str(out / "stress"), "--threads", "1"],
                _cells_work(raw, cells),
            )
        ]

    def check(self, out: Path, succeeded: set[str]) -> None:
        if "stress" not in succeeded:
            return
        raw = self.configs["scaled_scenario.json"]
        summary = checks.check_stress_report(out / "stress", raw)
        checks.check_debt_decay_order(summary)
        checks.check_manifest(out / "stress", self.config_bytes("scaled_scenario.json"), self.seed)


class CorrSweep(Workload):
    """stress.correlation_sweep through the library over five correlations."""

    def prepare(self) -> None:
        raw = dict(
            _baseline(),
            seed=self.seed,
            n_paths=SWEEP_PATHS,
            horizon_days=SWEEP_DAYS,
            debt_levels=[SWEEP_CELL["debt"]],
            liquidity_regimes=[{"l0": SWEEP_CELL["l0"], "rho": SWEEP_CELL["rho"]}],
            sweep_rhos=SWEEP_RHOS,
        )
        del raw["heatmap"]
        self.write_config("corr_sweep.json", raw)

    def ops(self, out: Path) -> list[Op]:
        raw = self.configs["corr_sweep.json"]
        return [
            Op(
                "corr-sweep", "corr-sweep",
                [str(self.inputs / "corr_sweep.json"), str(out / "sweep")],
                _cells_work(raw, len(SWEEP_RHOS)),
            )
        ]

    def check(self, out: Path, succeeded: set[str]) -> None:
        if "corr-sweep" not in succeeded:
            return
        raw = self.configs["corr_sweep.json"]
        summaries = {}
        for rho in SWEEP_RHOS:
            report_dir = out / "sweep" / f"rho{rho:g}"
            summaries[rho] = checks.check_stress_report(report_dir, dict(raw, rho_corr=rho))
            checks.check_manifest(report_dir, self.config_bytes("corr_sweep.json"), self.seed)
        checks.check_rho_order(summaries, RHO_ORDER_APART)


WORKLOADS = {
    "cli-fixtures": CliFixtures,
    "stress-scaled": StressScaled,
    "corr-sweep": CorrSweep,
}
