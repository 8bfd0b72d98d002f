"""Command-line entry point.

Subcommands: ingest, stress, heatmap, sweep-cost, attack, contagion.
Exit codes: 0 success, 2 input/validation error, 3 numeric error.
Log level comes from the DEFI_STRESS_LOG environment variable.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__, attack, contagion, marketdata, stress
from .errors import InputError, NumericError, SchemaError, check_schema
from .manifest import write_json, write_manifest

log = logging.getLogger("defi_stress")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3

PLAN_SCHEMA = "attack-plan/1"
MODEL_SCHEMA = "contagion-model/1"


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def _read_json(path: Path) -> tuple[dict, bytes]:
    """A config file's top-level object and its bytes. NaN and the
    infinities, which Python's json accepts, are rejected."""
    raw = path.read_bytes()
    try:
        parsed = json.loads(raw, parse_constant=_reject_constant)
    except ValueError as exc:  # JSONDecodeError among them
        raise SchemaError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(parsed, dict):
        raise SchemaError(f"{path}: expected a JSON object at the top level")
    return parsed, raw


def _scenario(raw: dict, args: argparse.Namespace) -> stress.ScenarioConfig:
    """The scenario of a raw stress config, with --seed applied."""
    config = stress.ScenarioConfig.from_dict(raw)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    return config


def _load_books(raw_books: list) -> tuple[attack.OrderBookSnapshot, ...]:
    try:
        return tuple(
            attack.OrderBookSnapshot(
                venue_id=b["venue"],
                levels=tuple((float(p), float(q)) for p, q in b["levels"]),
            )
            for b in raw_books
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad order book entry: {exc}") from exc


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
    raw, config_bytes = _read_json(Path(args.config))
    config = _scenario(raw, args)
    report = stress.run_scenario(config)
    out_dir = Path(args.out)
    written = stress.write_report(report, out_dir)
    write_manifest(out_dir, config_bytes, config.seed, written)
    log.info("wrote %d files to %s", len(written) + 1, out_dir)
    return EXIT_OK


def cmd_heatmap(args: argparse.Namespace) -> int:
    raw, config_bytes = _read_json(Path(args.config))
    grid_spec = raw.get("heatmap")
    if not grid_spec:
        raise SchemaError("config lacks a 'heatmap' section")
    try:
        debt_grid = [float(d) for d in grid_spec["debt_grid"]]
        l0_grid = [float(v) for v in grid_spec["l0_grid"]]
        decay_rho = grid_spec.get("decay_rho")
        if decay_rho is None:
            decay_rho = raw["liquidity_regimes"][0].get("rho", 0.0)
        decay_rho = float(decay_rho)
    except (KeyError, IndexError, AttributeError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad heatmap section: {exc}") from exc
    # The heatmap evaluates its grid in place of the config's own cells, so
    # only the grid is validated.
    grid = [{"l0": l0, "rho": decay_rho} for l0 in l0_grid]
    config = _scenario(
        dict(raw, debt_levels=debt_grid, liquidity_regimes=grid), args
    )
    matrix = stress.heatmap(config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    heatmap_path = out_dir / "heatmap.csv"
    stress.write_heatmap_csv(matrix, debt_grid, l0_grid, heatmap_path)
    write_manifest(out_dir, config_bytes, config.seed, [heatmap_path])
    return EXIT_OK


def cmd_sweep_cost(args: argparse.Namespace) -> int:
    raw, config_bytes = _read_json(Path(args.config))
    check_schema(raw, PLAN_SCHEMA)
    try:
        books = _load_books(raw["books"])
        target = float(raw["tokens_needed"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad sweep config: {exc}") from exc
    result = attack.sweep_cost(books, target)
    report = {
        "target_qty": target,
        "total_cost": result.total_cost,
        "venue_fills": result.venue_totals(),
        "fills": [list(f) for f in result.fills],
    }
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = write_json(out_dir / "sweep_cost.json", report)
    write_manifest(out_dir, config_bytes, 0, [report_path])
    return EXIT_OK


def cmd_attack(args: argparse.Namespace) -> int:
    raw, config_bytes = _read_json(Path(args.config))
    check_schema(raw, PLAN_SCHEMA)
    try:
        base = dict(
            tokens_needed=float(raw["tokens_needed"]),
            books=_load_books(raw["books"]),
            flash_pools=tuple(
                attack.FlashPool(p["pool"], float(p["available"]), float(p["fee_rate"]))
                for p in raw["flash_pools"]
            ),
            seizable_collateral=float(raw["seizable_collateral"]),
            mintable_debt=float(raw["mintable_debt"]),
            governance_token_price=float(raw["governance_token_price"]),
            loan_currency_price=float(raw["loan_currency_price"]),
        )
        strategies = [
            (s["name"], float(s["gas_cost"])) for s in raw["strategies"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad attack plan: {exc}") from exc
    results = {}
    for name, gas in strategies:
        plan = attack.AttackPlan(gas_cost=gas, **base)
        outcome = attack.attack_profit(plan, name)
        results[name] = {
            "executed": outcome.executed,
            "net_profit": outcome.net_profit,
            "holdings": outcome.holdings,
            "sweep_cost": outcome.sweep_cost,
            "loan_interest": outcome.loan_interest,
        }
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = write_json(out_dir / "attack_report.json", results)
    write_manifest(out_dir, config_bytes, 0, [report_path])
    return EXIT_OK


def cmd_contagion(args: argparse.Namespace) -> int:
    raw, config_bytes = _read_json(Path(args.config))
    check_schema(raw, MODEL_SCHEMA)
    try:
        ranges = [tuple(map(float, r)) for r in raw.get("lambda_ranges", [])]
        seed = int(args.seed if args.seed is not None else raw.get("seed", 0))
        n_samples = int(raw.get("n_samples", 100_000))
        n_protocols = int(raw.get("n_protocols", 1))
        total_debt = float(raw.get("total_debt", 0))
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad contagion model: {exc}") from exc
    models = [
        contagion.CompositionModel(
            n_protocols=n_protocols,
            total_debt=total_debt,
            lambda_range=(low, high),
            seed=seed,
            n_samples=n_samples,
        )
        for low, high in ranges
    ]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    summary: dict = {}
    if models:
        summary["losses"] = {}
        for model in models:
            low, high = model.lambda_range
            dist = contagion.max_systemic_loss(model)
            name = f"losses_{low:g}-{high:g}.csv"
            contagion.write_loss_csv(dist, out_dir / name)
            written.append(out_dir / name)
            summary["losses"][f"{low:g}-{high:g}"] = {
                "mean": dist.mean,
                "min": dist.min,
                "max": dist.max,
            }
    if raw.get("snapshot_csv"):
        snapshot_path = Path(raw["snapshot_csv"])
        if not snapshot_path.is_absolute():
            snapshot_path = Path(args.config).parent / snapshot_path
        snapshot = contagion.MarketSnapshot.from_csv(snapshot_path)
        cap = raw.get("holdings_cap")
        summary["sweepable_unlimited"] = contagion.sweepable_total(snapshot)
        if cap is not None:
            summary["sweepable_capped"] = contagion.sweepable_total(
                snapshot, float(cap)
            )
    if raw.get("damage_scenarios"):
        scenarios = [
            contagion.DamageScenario(
                s["label"], float(s["loss"]), bool(s.get("lower_bound", False))
            )
            for s in raw["damage_scenarios"]
        ]
        damage_path = out_dir / "damage_table.csv"
        damage_path.write_text(contagion.damage_table(scenarios))
        written.append(damage_path)
    written.append(write_json(out_dir / "contagion_summary.json", summary))
    write_manifest(out_dir, config_bytes, seed, written)
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
    except (InputError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NumericError, FloatingPointError, OverflowError, ZeroDivisionError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
