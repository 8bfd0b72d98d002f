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
from pathlib import Path

from . import __version__, attack, contagion, marketdata, stress
from .errors import InputError, NumericError, SchemaError, check_schema
from .errors import as_bool, as_float, as_int, as_list, as_pair, as_str
from .manifest import write_json, write_manifest

log = logging.getLogger("defi_stress")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3

PLAN_SCHEMA = "attack-plan/1"
MODEL_SCHEMA = "contagion-model/1"


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def _config(args: argparse.Namespace, schema: str, parse) -> tuple:
    """(parse(raw), config bytes) of the JSON object in args.config, whose
    "schema" must be schema. Invalid JSON, NaN and the infinities (which
    Python's json accepts), and whatever parse fails on raise SchemaError:
    each command parses its whole config here, before it computes or writes."""
    path = Path(args.config)
    config_bytes = path.read_bytes()
    try:
        raw = json.loads(config_bytes, parse_constant=_reject_constant)
        if not isinstance(raw, dict):
            raise SchemaError(f"{path}: expected a JSON object at the top level")
        check_schema(raw, schema)
        return parse(raw), config_bytes
    except (KeyError, IndexError, AttributeError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad config {path}: {type(exc).__name__}: {exc}") from exc


def _out_dir(args: argparse.Namespace) -> Path:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _scenario(raw: dict, args: argparse.Namespace) -> stress.ScenarioConfig:
    """The scenario of a raw stress config, with --seed applied."""
    if args.seed is not None:
        raw = dict(raw, seed=args.seed)
    return stress.ScenarioConfig.from_dict(raw)


def _heatmap_scenario(raw: dict, args: argparse.Namespace) -> stress.ScenarioConfig:
    """The scenario of a stress config's heatmap grid. It replaces the
    config's own cells, which are therefore not validated."""
    spec = raw["heatmap"]
    decay_rho = spec.get("decay_rho")
    if decay_rho is None:
        decay_rho = raw["liquidity_regimes"][0].get("rho", 0.0)
    decay_rho = as_float(decay_rho, "decay_rho")
    grid = [
        {"l0": as_float(l0, "l0"), "rho": decay_rho}
        for l0 in as_list(spec["l0_grid"], "l0_grid")
    ]
    debt_grid = as_list(spec["debt_grid"], "debt_grid")
    return _scenario(dict(raw, debt_levels=debt_grid, liquidity_regimes=grid), args)


def _books(raw: dict) -> tuple[attack.OrderBookSnapshot, ...]:
    return tuple(
        attack.OrderBookSnapshot(
            venue_id=as_str(b["venue"], "venue"),
            levels=tuple(as_pair(v, "level") for v in as_list(b["levels"], "levels")),
        )
        for b in as_list(raw["books"], "books")
    )


def _attack_plans(raw: dict) -> dict[str, attack.AttackPlan]:
    """{strategy name: plan} of an attack plan config's strategies, whose
    names must differ."""

    def number(fields: dict, key: str) -> float:
        return as_float(fields[key], key)

    base = dict(
        tokens_needed=number(raw, "tokens_needed"),
        books=_books(raw),
        flash_pools=tuple(
            attack.FlashPool(
                as_str(p["pool"], "pool"),
                number(p, "available"),
                number(p, "fee_rate"),
            )
            for p in as_list(raw["flash_pools"], "flash_pools")
        ),
        seizable_collateral=number(raw, "seizable_collateral"),
        mintable_debt=number(raw, "mintable_debt"),
        governance_token_price=number(raw, "governance_token_price"),
        loan_currency_price=number(raw, "loan_currency_price"),
    )
    plans = {}
    for s in as_list(raw["strategies"], "strategies"):
        name = as_str(s["name"], "strategy name")
        if name in plans:
            raise SchemaError(f"strategy {name!r} is named twice")
        plans[name] = attack.AttackPlan(gas_cost=number(s, "gas_cost"), **base)
    return plans


def _contagion(raw: dict, args: argparse.Namespace) -> tuple:
    """(seed, composition models, sweepable totals, damage scenarios) of a
    contagion model config. The market snapshot is read and summed here."""
    seed = as_int(raw.get("seed", 0) if args.seed is None else args.seed, "seed")
    n_protocols = as_int(raw.get("n_protocols", 1), "n_protocols")
    total_debt = as_float(raw.get("total_debt", 0), "total_debt")
    n_samples = as_int(raw.get("n_samples", 100_000), "n_samples")
    models = [
        contagion.CompositionModel(
            n_protocols=n_protocols,
            total_debt=total_debt,
            lambda_range=as_pair(r, "lambda range"),
            seed=seed,
            n_samples=n_samples,
        )
        for r in as_list(raw.get("lambda_ranges", []), "lambda_ranges")
    ]
    sweepable = {}
    if raw.get("snapshot_csv"):
        # An absolute path replaces the config's directory.
        snapshot_path = Path(args.config).parent / raw["snapshot_csv"]
        snapshot = contagion.MarketSnapshot.from_csv(snapshot_path)
        sweepable["sweepable_unlimited"] = contagion.sweepable_total(snapshot)
        if raw.get("holdings_cap") is not None:
            sweepable["sweepable_capped"] = contagion.sweepable_total(
                snapshot, as_float(raw["holdings_cap"], "holdings_cap")
            )
    scenarios = [
        contagion.DamageScenario(
            as_str(s["label"], "label"),
            as_float(s["loss"], "loss"),
            as_bool(s.get("lower_bound", False), "lower_bound"),
        )
        for s in as_list(raw.get("damage_scenarios", []), "damage_scenarios")
    ]
    return seed, models, sweepable, scenarios


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
    config, config_bytes = _config(
        args, stress.CONFIG_SCHEMA, lambda raw: _scenario(raw, args)
    )
    report = stress.run_scenario(config)
    out_dir = Path(args.out)
    written = stress.write_report(report, out_dir)
    write_manifest(out_dir, config_bytes, config.seed, written)
    log.info("wrote %d files to %s", len(written) + 1, out_dir)
    return EXIT_OK


def cmd_heatmap(args: argparse.Namespace) -> int:
    config, config_bytes = _config(
        args, stress.CONFIG_SCHEMA, lambda raw: _heatmap_scenario(raw, args)
    )
    matrix = stress.heatmap(config)
    out_dir = _out_dir(args)
    heatmap_path = out_dir / "heatmap.csv"
    l0_grid = [regime.l0 for regime in config.liquidity_regimes]
    stress.write_heatmap_csv(matrix, config.debt_levels, l0_grid, heatmap_path)
    write_manifest(out_dir, config_bytes, config.seed, [heatmap_path])
    return EXIT_OK


def cmd_sweep_cost(args: argparse.Namespace) -> int:
    (books, target), config_bytes = _config(
        args,
        PLAN_SCHEMA,
        lambda raw: (_books(raw), as_float(raw["tokens_needed"], "tokens_needed")),
    )
    result = attack.sweep_cost(books, target)
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
    plans, config_bytes = _config(args, PLAN_SCHEMA, _attack_plans)
    results = {}
    for name, plan in plans.items():
        results[name] = asdict(attack.attack_profit(plan, name))
        del results[name]["strategy"]
    out_dir = _out_dir(args)
    report_path = write_json(out_dir / "attack_report.json", results)
    write_manifest(out_dir, config_bytes, 0, [report_path])
    return EXIT_OK


def cmd_contagion(args: argparse.Namespace) -> int:
    (seed, models, sweepable, scenarios), config_bytes = _config(
        args, MODEL_SCHEMA, lambda raw: _contagion(raw, args)
    )
    out_dir = _out_dir(args)
    written = []
    summary: dict = {"losses": {}} if models else {}
    for model in models:
        dist = contagion.max_systemic_loss(model)
        name = "{:g}-{:g}".format(*model.lambda_range)
        written.append(out_dir / f"losses_{name}.csv")
        contagion.write_loss_csv(dist, written[-1])
        summary["losses"][name] = {"mean": dist.mean, "min": dist.min, "max": dist.max}
    summary.update(sweepable)
    if scenarios:
        written.append(out_dir / "damage_table.csv")
        written[-1].write_text(contagion.damage_table(scenarios))
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
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NumericError, ArithmeticError, MemoryError) as exc:
        print(f"numeric error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
