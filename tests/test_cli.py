import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import defi_stress
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
        # Both debt levels print as 1e+08 in a trace file name.
        cfg = dict(baseline_config, n_paths=200, debt_levels=[1e8, 1.0000001e8])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert run("stress", "--config", path, "--out", out) == 2
        assert "trace_debt1e+08_l030000_rho0.csv" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda c: dict(c, collateral=dict(c["collateral"], sigma=math.nan)),
            lambda c: dict(c, reserve_quantity=math.inf),
            lambda c: dict(c, reserve=dict(c["reserve"], mu=-math.inf)),
            lambda c: [1, 2],
        ],
        ids=["nan_sigma", "infinite_reserve_quantity", "minus_infinite_mu", "array"],
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

    def test_missing_section_exits_2(self, tmp_path, baseline_config):
        cfg = dict(baseline_config, n_paths=100)
        cfg.pop("heatmap")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run("heatmap", "--config", path, "--out", tmp_path / "o") == 2


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
