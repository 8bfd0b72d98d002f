"""Command-line entry point.

Subcommands: ingest, stress, heatmap, sweep-cost, attack, contagion.
Exit codes: 0 success, 2 input/validation error or a bad path, 3 numeric
error or out of memory. Each command parses its whole config before it
computes anything or creates its output directory.
Log level comes from the DEFI_STRESS_LOG environment variable.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict
from functools import partial
from pathlib import Path

from . import __version__, attack, contagion, marketdata, schema, stress
from .errors import InputError, NumericError, SchemaError
from .manifest import write_json, write_manifest

log = logging.getLogger("defi_stress")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def _config(args: argparse.Namespace, parse) -> tuple:
    """(parse(raw), config bytes) of the JSON object raw in args.config, with
    --seed, if given, as its "seed". Invalid JSON, NaN and the infinities
    (which Python's json accepts) raise SchemaError, as parse does on a
    field that breaks its rule: each command parses its whole config here,
    before it computes or writes."""
    path = Path(args.config)
    config_bytes = path.read_bytes()
    try:
        raw = json.loads(config_bytes, parse_constant=_reject_constant)
    except ValueError as exc:
        raise SchemaError(f"bad config {path}: {exc}") from exc
    if args.seed is not None and isinstance(raw, dict):
        raw = dict(raw, seed=args.seed)
    return parse(raw), config_bytes


def _out_dir(args: argparse.Namespace) -> Path:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def cmd_ingest(args: argparse.Namespace) -> int:
    series = marketdata.load_series(args.csv)
    stats = marketdata.estimate_stats(marketdata.log_returns(series))
    text = stats.to_json() + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_stress(args: argparse.Namespace) -> int:
    config, config_bytes = _config(args, stress.ScenarioConfig.from_dict)
    report = stress.run_scenario(config)
    out_dir = Path(args.out)
    written = stress.write_report(report, out_dir)
    write_manifest(out_dir, config_bytes, config.seed, written)
    log.info("wrote %d files to %s", len(written) + 1, out_dir)
    return EXIT_OK


def cmd_heatmap(args: argparse.Namespace) -> int:
    config, config_bytes = _config(
        args, lambda raw: stress.ScenarioConfig.from_dict(raw, grid=True)
    )
    matrix = stress.heatmap(config)
    out_dir = _out_dir(args)
    heatmap_path = out_dir / "heatmap.csv"
    l0_grid = [regime.l0 for regime in config.liquidity_regimes]
    stress.write_heatmap_csv(matrix, config.debt_levels, l0_grid, heatmap_path)
    write_manifest(out_dir, config_bytes, config.seed, [heatmap_path])
    return EXIT_OK


def cmd_sweep_cost(args: argparse.Namespace) -> int:
    plan, config_bytes = _config(args, partial(schema.read, attack.SWEEP))
    target = plan["tokens_needed"]
    result = attack.sweep_cost(plan["books"], target)
    report = {
        "target_qty": target,
        "total_cost": result.total_cost,
        "venue_fills": result.venue_totals(),
        "fills": [list(f) for f in result.fills],
    }
    out_dir = _out_dir(args)
    report_path = write_json(out_dir / "sweep_cost.json", report)
    write_manifest(out_dir, config_bytes, 0, [report_path])
    return EXIT_OK


def cmd_attack(args: argparse.Namespace) -> int:
    plans, config_bytes = _config(args, partial(schema.read, attack.ATTACK_PLAN))
    results = {}
    for name, plan in plans.items():
        results[name] = asdict(attack.attack_profit(plan, name))
        del results[name]["strategy"]
    out_dir = _out_dir(args)
    report_path = write_json(out_dir / "attack_report.json", results)
    write_manifest(out_dir, config_bytes, 0, [report_path])
    return EXIT_OK


def cmd_contagion(args: argparse.Namespace) -> int:
    model, config_bytes = _config(args, partial(schema.read, contagion.CONTAGION_MODEL))
    totals = {}
    if model["snapshot_csv"] is not None:
        # Relative to the config's directory, unless the path is absolute.
        path = Path(args.config).parent / model["snapshot_csv"]
        try:
            snapshot = contagion.MarketSnapshot.from_csv(path)
        except (InputError, OSError) as exc:
            raise SchemaError(f"snapshot_csv: {exc}") from exc
        totals["sweepable_unlimited"] = contagion.sweepable_total(snapshot)
        cap = model["holdings_cap"]
        if cap is not None:
            totals["sweepable_capped"] = contagion.sweepable_total(snapshot, cap)
    out_dir = _out_dir(args)
    written = []
    summary: dict = {"losses": {}} if model["models"] else {}
    for composition in model["models"]:
        dist = contagion.max_systemic_loss(composition)
        name = "{:g}-{:g}".format(*composition.lambda_range)
        written.append(out_dir / f"losses_{name}.csv")
        contagion.write_loss_csv(dist, written[-1])
        summary["losses"][name] = {"mean": dist.mean, "min": dist.min, "max": dist.max}
    summary.update(totals)
    if model["damage_scenarios"]:
        written.append(out_dir / "damage_table.csv")
        written[-1].write_text(contagion.damage_table(model["damage_scenarios"]))
    written.append(write_json(out_dir / "contagion_summary.json", summary))
    write_manifest(out_dir, config_bytes, model["seed"], written)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defi-stress",
        description=(
            "Monte Carlo stress tests, liquidation simulation and "
            "attack-cost pricing for overcollateralized lending protocols"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="compute return stats from OHLCV CSV")
    p_ingest.add_argument("csv", help="daily OHLCV CSV file")
    p_ingest.add_argument("--out", help="stats JSON path (default: stdout)")
    p_ingest.set_defaults(func=cmd_ingest)

    def common(p):
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument(
            "--threads",
            type=int,
            default=1,
            help="accepted for compatibility; no effect",
        )

    for name, func, help_text in [
        ("stress", cmd_stress, "run a full stress scenario"),
        ("heatmap", cmd_heatmap, "days-to-insolvency grid over debt and liquidity"),
        ("sweep-cost", cmd_sweep_cost, "orderbook sweep cost for a token quantity"),
        ("attack", cmd_attack, "price governance-attack strategies"),
        ("contagion", cmd_contagion, "systemic-loss distribution and sweep totals"),
    ]:
        p = sub.add_parser(name, help=help_text)
        common(p)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=os.environ.get("DEFI_STRESS_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NumericError, ArithmeticError, MemoryError) as exc:
        print(f"numeric error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
