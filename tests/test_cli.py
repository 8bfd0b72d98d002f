import copy
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import defi_stress
from defi_stress import paths
from defi_stress.cli import main
from defi_stress.errors import NumericError
from defi_stress.manifest import write_json


def run(*argv):
    return main([str(a) for a in argv])


def python(*args):
    """Run a fresh interpreter on this checkout's package."""
    src = str(Path(defi_stress.__file__).parents[1])
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
    )
    return subprocess.run(
        [sys.executable, *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def one_stderr_line(capsys, prefix):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(prefix), err
    return err[0]


def test_cli_import_leaves_scipy_unloaded():
    proc = python(
        "-c",
        "import sys, defi_stress.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_write_json_rejects_non_finite(tmp_path):
    path = tmp_path / "out.json"
    with pytest.raises(NumericError, match="out.json"):
        write_json(path, {"mean": math.inf})
    assert not path.exists()


@pytest.fixture()
def small_stress_config(tmp_path, baseline_config):
    cfg = dict(baseline_config, n_paths=300, debt_levels=[1e8, 4e8])
    cfg["heatmap"] = {"debt_grid": [1e8, 4e8], "l0_grid": [1e4, 3e4], "decay_rho": 0.01}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestIngest:
    def test_valid_csv(self, eth_csv, tmp_path):
        out = tmp_path / "stats.json"
        assert run("ingest", eth_csv, "--out", out) == 0
        stats = json.loads(out.read_text())
        assert set(stats) == {"mu", "sigma", "n"}
        assert stats["n"] == 767

    def test_missing_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        assert run("ingest", missing) == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert run("ingest", path) == 2

    @pytest.mark.parametrize(
        "row", ["2021-01-02,1,1,1,nan,10", "2021-01-02,1,1,1,1,inf"]
    )
    def test_non_finite_value_exits_2(self, tmp_path, capsys, row):
        path = tmp_path / "prices.csv"
        path.write_text(
            "date,open,high,low,close,volume\n2021-01-01,1,1,1,1,10\n" + row + "\n"
        )
        out = tmp_path / "stats.json"
        assert run("ingest", path, "--out", out) == 2
        one_stderr_line(capsys, "error: row 1:")
        assert not out.exists()


class TestStress:
    def test_outputs_and_manifest(self, small_stress_config, tmp_path):
        out = tmp_path / "out"
        assert run("stress", "--config", small_stress_config, "--out", out) == 0
        names = {p.name for p in out.iterdir()}
        assert "summary.json" in names
        assert "manifest.json" in names
        assert sum(n.startswith("trace_") for n in names) == 6
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 42
        assert len(manifest["config_digest"]) == 64
        assert manifest["numpy_version"] == np.__version__
        assert manifest["rng_scheme"] == "philox-per-path/1"
        assert manifest["chunk_paths"] == 2048

    def test_rerun_byte_identical_except_manifest_timestamp(
        self, small_stress_config, tmp_path
    ):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        run("stress", "--config", small_stress_config, "--out", d1)
        run("stress", "--config", small_stress_config, "--out", d2, "--threads", 4)
        for p1 in sorted(d1.iterdir()):
            p2 = d2 / p1.name
            if p1.name == "manifest.json":
                m1 = json.loads(p1.read_text())
                m2 = json.loads(p2.read_text())
                m1.pop("created_at"), m2.pop("created_at")
                assert m1 == m2
            else:
                assert p1.read_bytes() == p2.read_bytes(), p1.name

    def test_seed_override(self, small_stress_config, tmp_path):
        out = tmp_path / "out"
        run("stress", "--config", small_stress_config, "--out", out, "--seed", 7)
        assert json.loads((out / "summary.json").read_text())["seed"] == 7

    def test_invalid_correlation_exits_2(self, tmp_path, baseline_config):
        cfg = dict(baseline_config, rho_corr=2.0)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert run("stress", "--config", path, "--out", tmp_path / "o") == 2

    def test_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run("stress", "--config", path, "--out", tmp_path / "o") == 2

    def test_colliding_trace_names_exit_2(self, tmp_path, baseline_config, capsys):
        # Both debt levels print as 1e+08 in a trace file name; the message
        # names the two cells.
        cfg = dict(baseline_config, n_paths=200, debt_levels=[1e8, 1.0000001e8])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert run("stress", "--config", path, "--out", out) == 2
        err = one_stderr_line(capsys, "error: cells (debt, l0, rho)")
        assert "(100000000.0, 30000, 0.0) and (100000010.0, 30000, 0.0)" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda c: dict(c, collateral=dict(c["collateral"], sigma=math.nan)),
            lambda c: dict(c, reserve_quantity=math.inf),
            lambda c: dict(c, reserve=dict(c["reserve"], mu=-math.inf)),
            lambda c: [1, 2],
            # Numbers given as strings pass float() but are not finite.
            lambda c: dict(c, reserve_quantity="inf"),
            lambda c: dict(c, collateral_ratio="nan"),
            lambda c: dict(c, debt_levels=["inf"]),
        ],
        ids=[
            "nan_sigma",
            "infinite_reserve_quantity",
            "minus_infinite_mu",
            "array",
            "inf_string_reserve_quantity",
            "nan_string_collateral_ratio",
            "inf_string_debt_level",
        ],
    )
    def test_non_finite_or_non_object_config_exits_2(
        self, tmp_path, baseline_config, capsys, edit
    ):
        path = tmp_path / "cfg.json"
        # json.dumps writes the bare NaN / Infinity literals
        path.write_text(json.dumps(edit(dict(baseline_config, n_paths=200))))
        out = tmp_path / "o"
        assert run("stress", "--config", path, "--out", out) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert not out.exists()

    def test_underflowed_price_exits_3_without_warning(self, tmp_path, baseline_config):
        # sigma = 40 per sqrt(day) drives collateral prices to exactly 0.
        cfg = dict(baseline_config, n_paths=200)
        cfg["collateral"] = dict(cfg["collateral"], sigma=40)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv = ["stress", "--config", path, "--out", tmp_path / "o"]
        proc = python("-W", "default", "-m", "defi_stress.cli", *argv)
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numeric error:"), proc.stderr

    @pytest.mark.parametrize("chunk", [1, 7, 2048])
    def test_underflowed_price_exits_3_whatever_the_chunking(
        self, tmp_path, baseline_config, capsys, monkeypatch, chunk
    ):
        monkeypatch.setattr(paths, "CHUNK_PATHS", chunk)
        cfg = dict(baseline_config, n_paths=200)
        cfg["collateral"] = dict(cfg["collateral"], sigma=40)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run("stress", "--config", path, "--out", tmp_path / "o") == 3
        one_stderr_line(capsys, "numeric error:")

    def test_overflowed_price_exits_3_without_warning(
        self, tmp_path, baseline_config, capsys, recwarn
    ):
        # A drift of 10 per day drives collateral prices to inf.
        cfg = dict(baseline_config, n_paths=200)
        cfg["collateral"] = dict(cfg["collateral"], mu=10)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert run("stress", "--config", path, "--out", out) == 3
        one_stderr_line(capsys, "numeric error:")
        assert not out.exists()
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("chunk", [1, 2048])
    def test_overflowing_margin_exits_3_whatever_the_chunking(
        self, tmp_path, baseline_config, capsys, recwarn, monkeypatch, chunk
    ):
        # The reserve's value, 1e306 units at a price of about 223, is inf.
        monkeypatch.setattr(paths, "CHUNK_PATHS", chunk)
        cfg = dict(baseline_config, n_paths=200, reserve_quantity=1e306)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert run("stress", "--config", path, "--out", out) == 3
        one_stderr_line(capsys, "numeric error:")
        assert not out.exists()
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_underflowed_price_exits_3_after_the_debt_is_discharged(
        self, tmp_path, baseline_config, capsys
    ):
        # Ample liquidity discharges every debt on day 0, before any price
        # reaches 0; the zero prices of later days still exit 3.
        cfg = dict(
            baseline_config,
            n_paths=200,
            liquidity_regimes=[{"l0": 1e12, "rho": 0.0}],
        )
        cfg["collateral"] = dict(cfg["collateral"], sigma=40)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run("stress", "--config", path, "--out", tmp_path / "o") == 3
        one_stderr_line(capsys, "numeric error:")

    @pytest.mark.parametrize(
        "command, collateral_ratio",
        [("stress", 1.5), ("heatmap", 1.5), ("heatmap", 0.5)],
        ids=["stress", "heatmap", "heatmap_stuck"],
    )
    def test_underflowed_price_in_a_later_block_exits_3(
        self, tmp_path, baseline_config, capsys, command, collateral_ratio
    ):
        # A drift of -8 a day takes the collateral price to exactly 0 near
        # day 94, many day blocks in. Ample liquidity discharges every debt
        # on day 0 at a ratio of 1.5; at 0.5 every entry sells all its
        # collateral on day 0 and owes debt from then on, so only the watch
        # of stuck entries runs. Either way no entry sells when the zero
        # price is built, and heatmap re-draws no worst path.
        cfg = dict(
            baseline_config,
            n_paths=200,
            collateral_ratio=collateral_ratio,
            liquidity_regimes=[{"l0": 1e12, "rho": 0.0}],
            heatmap={"debt_grid": [1e8, 4e8], "l0_grid": [1e12], "decay_rho": 0.0},
        )
        cfg["collateral"] = dict(cfg["collateral"], mu=-8, sigma=0.01)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert run(command, "--config", path, "--out", out) == 3
        one_stderr_line(capsys, "numeric error:")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["stress", "heatmap"])
    def test_overflowing_margin_exits_3_after_the_debt_is_discharged(
        self, tmp_path, baseline_config, capsys, recwarn, command
    ):
        # Ample liquidity discharges every debt on day 0. The reserve's price
        # grows by about e a day, so 1e280 reserve units are worth a finite
        # ~2e282 in the first day block but more than any float by day 100:
        # a margin overflows only after every entry has stopped. heatmap
        # re-draws no worst path, so only the ensemble's day blocks see it.
        cfg = dict(
            baseline_config,
            n_paths=200,
            reserve_quantity=1e280,
            liquidity_regimes=[{"l0": 1e12, "rho": 0.0}],
            heatmap={"debt_grid": [1e8, 4e8], "l0_grid": [1e12], "decay_rho": 0.0},
        )
        cfg["reserve"] = dict(cfg["reserve"], mu=1.0)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert run(command, "--config", path, "--out", out) == 3
        one_stderr_line(capsys, "numeric error:")
        assert not out.exists()
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestHeatmap:
    def test_heatmap_csv(self, small_stress_config, tmp_path):
        out = tmp_path / "hm"
        assert run("heatmap", "--config", small_stress_config, "--out", out) == 0
        lines = (out / "heatmap.csv").read_text().splitlines()
        assert lines[0] == "debt,l0_10000,l0_30000"
        assert len(lines) == 3

    def test_decay_rho_given_as_string(self, small_stress_config, tmp_path):
        cfg = json.loads(small_stress_config.read_text())
        num = tmp_path / "num"
        assert run("heatmap", "--config", small_stress_config, "--out", num) == 0
        cfg["heatmap"]["decay_rho"] = "0.01"
        path = tmp_path / "str.json"
        path.write_text(json.dumps(cfg))
        assert run("heatmap", "--config", path, "--out", tmp_path / "str") == 0
        assert (tmp_path / "str" / "heatmap.csv").read_bytes() == (
            num / "heatmap.csv"
        ).read_bytes()
        cfg["heatmap"]["decay_rho"] = "fast"
        path.write_text(json.dumps(cfg))
        assert run("heatmap", "--config", path, "--out", tmp_path / "o") == 2

    def test_unused_base_cells_are_not_validated(
        self, small_stress_config, tmp_path
    ):
        # The base debt levels would collide as trace names, but heatmap
        # evaluates only its grid and writes no traces.
        cfg = json.loads(small_stress_config.read_text())
        cfg["debt_levels"] = [1e8, 1.0000001e8]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        base = tmp_path / "base"
        assert run("heatmap", "--config", small_stress_config, "--out", base) == 0
        assert run("heatmap", "--config", path, "--out", tmp_path / "o") == 0
        assert (tmp_path / "o" / "heatmap.csv").read_bytes() == (
            base / "heatmap.csv"
        ).read_bytes()

    def test_non_finite_grid_exits_2(self, small_stress_config, tmp_path, capsys):
        cfg = json.loads(small_stress_config.read_text())
        cfg["heatmap"]["debt_grid"] = [1e8, "inf"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert run("heatmap", "--config", path, "--out", out) == 2
        one_stderr_line(capsys, "error:")
        assert not out.exists()

    def test_missing_section_exits_2(self, tmp_path, baseline_config):
        cfg = dict(baseline_config, n_paths=100)
        cfg.pop("heatmap")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run("heatmap", "--config", path, "--out", tmp_path / "o") == 2


@pytest.mark.parametrize("command", ["stress", "heatmap"])
def test_negative_reserve_quantity_exits_2_before_drawing(
    tmp_path, baseline_config, capsys, monkeypatch, command
):
    monkeypatch.setattr(paths, "_increments", None)
    cfg = dict(baseline_config, n_paths=200, reserve_quantity=-1e6)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert run(command, "--config", path, "--out", out) == 2
    one_stderr_line(capsys, "error:")
    assert not out.exists()


class TestSweepCost:
    def test_bundled_plan(self, data_dir, tmp_path):
        plan = data_dir / "maker_feb2020.json"
        out = tmp_path / "out"
        assert run("sweep-cost", "--config", plan, "--out", out) == 0
        report = json.loads((out / "sweep_cost.json").read_text())
        tokens = json.loads(plan.read_text())["tokens_needed"]
        assert report["target_qty"] == tokens
        assert sum(f[2] for f in report["fills"]) == pytest.approx(tokens)

    def test_report(self, tmp_path, attack_plan_raw):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(
            json.dumps(
                {
                    "schema": "attack-plan/1",
                    "books": attack_plan_raw["books"],
                    "tokens_needed": 50_000,
                }
            )
        )
        out = tmp_path / "out"
        assert run("sweep-cost", "--config", cfg, "--out", out) == 0
        report = json.loads((out / "sweep_cost.json").read_text())
        assert report["total_cost"] == pytest.approx(378_940, rel=1e-6)

    def test_insufficient_depth_exits_2(self, tmp_path, attack_plan_raw):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(
            json.dumps(
                {
                    "schema": "attack-plan/1",
                    "books": attack_plan_raw["books"],
                    "tokens_needed": 1e9,
                }
            )
        )
        assert run("sweep-cost", "--config", cfg, "--out", tmp_path / "o") == 2


class TestAttack:
    def test_bundled_plan(self, data_dir, tmp_path):
        out = tmp_path / "out"
        plan = data_dir / "maker_feb2020.json"
        assert run("attack", "--config", plan, "--out", out) == 0
        report = json.loads((out / "attack_report.json").read_text())
        assert abs(report["flashloan"]["net_profit"] - 191e6) <= 0.05 * 191e6
        assert abs(report["crowdfund"]["net_profit"] - 263e6) <= 0.10 * 263e6
        assert report["flashloan"]["executed"] is True

    def test_malformed_plan_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"schema": "attack-plan/1", "tokens_needed": 1}))
        assert run("attack", "--config", cfg, "--out", tmp_path / "o") == 2


class TestContagion:
    def test_bundled_model(self, data_dir, tmp_path):
        # copy the fixture so the relative snapshot path resolves
        cfg_src = json.loads((data_dir / "contagion_feb2020.json").read_text())
        cfg_src["n_samples"] = 2000
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps(cfg_src))
        shutil.copy(data_dir / "dai_markets.csv", tmp_path / "dai_markets.csv")
        out = tmp_path / "out"
        assert run("contagion", "--config", cfg, "--out", out) == 0
        names = {p.name for p in out.iterdir()}
        assert {
            "losses_1.01-1.05.csv",
            "losses_1.01-1.5.csv",
            "losses_1.01-3.csv",
            "damage_table.csv",
            "contagion_summary.json",
            "manifest.json",
        } <= names
        summary = json.loads((out / "contagion_summary.json").read_text())
        assert summary["sweepable_unlimited"] == pytest.approx(211e6)
        assert summary["sweepable_capped"] == pytest.approx(145e6)

    def test_invalid_range_exits_2(self, tmp_path):
        cfg = tmp_path / "model.json"
        cfg.write_text(
            json.dumps(
                {
                    "schema": "contagion-model/1",
                    "n_protocols": 3,
                    "total_debt": 1e8,
                    "lambda_ranges": [[0.9, 1.5]],
                    "seed": 0,
                    "n_samples": 10,
                }
            )
        )
        assert run("contagion", "--config", cfg, "--out", tmp_path / "o") == 2

    @pytest.mark.parametrize(
        "edit",
        [
            {"total_debt": "inf"},
            {"total_debt": "nan"},
            {"lambda_ranges": [[1.01, 1.5], [1.01, "inf"]]},
        ],
        ids=["inf_total_debt", "nan_total_debt", "inf_lambda"],
    )
    def test_non_finite_model_exits_2_before_writing(self, tmp_path, capsys, edit):
        model = {
            "schema": "contagion-model/1",
            "n_protocols": 3,
            "total_debt": 1e8,
            "lambda_ranges": [[1.01, 1.5]],
            "n_samples": 3,
        }
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps(dict(model, **edit)))
        out = tmp_path / "o"
        assert run("contagion", "--config", cfg, "--out", out) == 2
        one_stderr_line(capsys, "error:")
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_loss_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "model.json"
        cfg.write_text(
            json.dumps(
                {
                    "schema": "contagion-model/1",
                    "n_protocols": 1,
                    "total_debt": 1e308,
                    "lambda_ranges": [[1.01, 1.5]],
                    "n_samples": 10,
                }
            )
        )
        out = tmp_path / "o"
        assert run("contagion", "--config", cfg, "--out", out) == 3
        one_stderr_line(capsys, "numeric error:")
        assert not (out / "contagion_summary.json").exists()


@pytest.mark.parametrize(
    "command, fixture",
    [
        ("sweep-cost", "maker_feb2020.json"),
        ("attack", "maker_feb2020.json"),
        ("contagion", "contagion_feb2020.json"),
    ],
)
def test_wrong_schema_exits_2(data_dir, tmp_path, capsys, command, fixture):
    cfg = tmp_path / fixture
    cfg.write_text(
        json.dumps(dict(json.loads((data_dir / fixture).read_text()), schema="wrong"))
    )
    out = tmp_path / "o"
    assert run(command, "--config", cfg, "--out", out) == 2
    assert "expected schema" in one_stderr_line(capsys, "error:")
    assert not out.exists()


STRESS = "baseline_scenario.json"
PLAN = "maker_feb2020.json"
MODEL = "contagion_feb2020.json"


def bundled(data_dir, fixture, at=(), value=None):
    """A small copy of a bundled config, with the value at key path at
    replaced by value if at is given."""
    cfg = json.loads((data_dir / fixture).read_text())
    if fixture == STRESS:
        cfg.update(n_paths=8, horizon_days=10)
    if fixture == PLAN:
        cfg.update(tokens_needed=40_000)  # short of the books' full depth
    if fixture == MODEL:
        cfg.update(n_samples=50, snapshot_csv=str(data_dir / "dai_markets.csv"))
    if at:
        cfg = copy.deepcopy(cfg)
        node = cfg
        for key in at[:-1]:
            node = node[key]
        node[at[-1]] = value
    return cfg


@pytest.mark.parametrize(
    "command, fixture, at, value",
    [
        # Inputs that ended in a traceback, most after writing loss CSVs.
        ("contagion", MODEL, ("damage_scenarios", 0), {"loss": 1e8}),
        ("contagion", MODEL, ("damage_scenarios", 0, "loss"), "x"),
        ("contagion", MODEL, ("lambda_ranges", 0), [1.01, 1.5, 2.0]),
        ("contagion", MODEL, ("holdings_cap",), "abc"),
        ("contagion", MODEL, ("snapshot_csv",), 5),
        ("contagion", MODEL, ("damage_scenarios",), 5),
        ("contagion", MODEL, ("snapshot_csv",), "."),
        ("sweep-cost", PLAN, ("books", 0, "venue"), ["kyber"]),
        ("attack", PLAN, ("flash_pools", 0, "pool"), ["dydx"]),
        ("contagion", MODEL, ("damage_scenarios", 0, "loss"), "inf"),
        # A string where a list is expected, which Python would iterate.
        ("stress", STRESS, ("debt_levels",), "12"),
        ("heatmap", STRESS, ("heatmap", "debt_grid"), "12"),
        ("heatmap", STRESS, ("heatmap", "l0_grid"), "12"),
        ("contagion", MODEL, ("lambda_ranges", 0), "23"),
        ("contagion", MODEL, ("damage_scenarios",), "ab"),
        ("sweep-cost", PLAN, ("books", 0, "levels", 0), "12"),
        # A bool or a fraction in an integer field.
        ("stress", STRESS, ("horizon_days",), 1.5),
        ("stress", STRESS, ("seed",), 1.7),
        ("stress", STRESS, ("n_paths",), True),
        ("contagion", MODEL, ("n_samples",), 2.5),
        ("contagion", MODEL, ("n_protocols",), True),
        # A venue that is not a string.
        ("sweep-cost", PLAN, ("books", 0, "venue"), 5),
        # A sample array too large for numpy, a flag given as a string and
        # plan numbers that are not finite.
        ("contagion", MODEL, ("n_samples",), 4e18),
        ("contagion", MODEL, ("damage_scenarios", 0, "lower_bound"), "false"),
        ("attack", PLAN, ("mintable_debt",), "-inf"),
        ("attack", PLAN, ("seizable_collateral",), "inf"),
        ("attack", PLAN, ("flash_pools", 0, "fee_rate"), "nan"),
        ("sweep-cost", PLAN, ("books", 0, "levels", 0, 1), "inf"),
        # A NaN sweep target or holdings cap, and two strategies of one name.
        ("sweep-cost", PLAN, ("tokens_needed",), "nan"),
        ("contagion", MODEL, ("holdings_cap",), "nan"),
        ("attack", PLAN, ("strategies", 1, "name"), "flashloan"),
        # Negative plan amounts, which would turn a gas cost into a gain.
        ("attack", PLAN, ("strategies", 0, "gas_cost"), -5),
        ("attack", PLAN, ("seizable_collateral",), -1),
        ("attack", PLAN, ("mintable_debt",), -1),
    ],
)
def test_malformed_config_exits_2_before_writing(
    data_dir, tmp_path, capsys, command, fixture, at, value
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(bundled(data_dir, fixture, at, value)))
    out = tmp_path / "o"
    assert run(command, "--config", cfg, "--out", out) == 2
    one_stderr_line(capsys, "error:")
    assert not out.exists()


@pytest.mark.parametrize(
    "command, fixture, at, value",
    [
        ("stress", STRESS, ("horizon_days",), 1e1),
        ("stress", STRESS, ("seed",), "42"),
        ("contagion", MODEL, ("n_samples",), 5e1),
    ],
)
def test_integral_float_or_numeric_string_is_an_integer(
    data_dir, tmp_path, command, fixture, at, value
):
    # Each value equals the bundled one, so the reports are the same.
    reports = []
    for name, cfg in [
        ("base", bundled(data_dir, fixture)),
        ("edited", bundled(data_dir, fixture, at, value)),
    ]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        assert run(command, "--config", path, "--out", tmp_path / name) == 0
        report = "summary.json" if command == "stress" else "contagion_summary.json"
        reports.append((tmp_path / name / report).read_bytes())
    assert reports[0] == reports[1]


def test_config_that_is_a_directory_exits_2(tmp_path, capsys):
    out = tmp_path / "o"
    assert run("stress", "--config", tmp_path, "--out", out) == 2
    one_stderr_line(capsys, "error:")
    assert not out.exists()


def test_out_that_is_a_file_exits_2(data_dir, tmp_path, capsys):
    out = tmp_path / "o"
    out.write_text("kept")
    assert run("attack", "--config", data_dir / PLAN, "--out", out) == 2
    one_stderr_line(capsys, "error:")
    assert out.read_text() == "kept"


def test_heatmap_cells_that_print_alike_exit_2(data_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    # Both debt levels print as 1e+08 in heatmap.csv.
    grid = bundled(data_dir, STRESS, ("heatmap", "debt_grid"), [1e8, 1.0000001e8])
    cfg.write_text(json.dumps(grid))
    out = tmp_path / "o"
    assert run("heatmap", "--config", cfg, "--out", out) == 2
    err = one_stderr_line(capsys, "error: cells (debt, l0, rho)")
    assert "(100000000.0, 10000.0, 0.01) and (100000010.0, 10000.0, 0.01)" in err
    assert "trace" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["stress", "heatmap"])
def test_no_paths_exits_2_at_load(data_dir, tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(paths, "_increments", None)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(bundled(data_dir, STRESS, ("n_paths",), 0)))
    out = tmp_path / "o"
    assert run(command, "--config", cfg, "--out", out) == 2
    assert "at least one path" in one_stderr_line(capsys, "error:")
    assert not out.exists()


def test_out_of_memory_exits_3(data_dir, tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(paths, "_increments", exhausted)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(bundled(data_dir, STRESS)))
    out = tmp_path / "o"
    assert run("stress", "--config", cfg, "--out", out) == 3
    assert one_stderr_line(capsys, "numeric error:") == "numeric error: MemoryError"
    assert not out.exists()
