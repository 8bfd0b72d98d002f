"""Per-layer metrics derived from the spans of one traced round.

The layers are the package's modules. Each metric sums over every process
of the round; a module the workload does not call reads 0.
"""

from __future__ import annotations

KB_PER_MB = 1e6 / 1024  # ru_maxrss counts KiB

SIMULATE = ("paths.simulate_correlated", "paths.simulate_gbm")
LIQUIDATE = ("protocol.liquidate_ensemble",)
ENGINE = ("protocol.liquidate_ensemble", "protocol.run_liquidation")
WRITERS = ("stress.write_report", "stress.write_heatmap_csv")
CLI_COMMANDS = ("ingest", "stress", "heatmap", "sweep_cost", "attack", "contagion")

# name -> unit, in the order BENCHMARK.json lists them
UNITS = {
    "cli.import_s": "s",
    **{f"cli.{c}_s": "s" for c in CLI_COMMANDS},
    "marketdata.import_s": "s",
    "marketdata.ingest_s": "s",
    "paths.simulate_s": "s",
    "paths.path_days_per_s": "1/s",
    "paths.rss_growth_mb": "MB",
    "protocol.liquidate_s": "s",
    "protocol.cell_path_days_per_s": "1/s",
    "protocol.trace_s": "s",
    "protocol.rss_growth_mb": "MB",
    "stress.run_scenario_s": "s",
    "stress.self_s": "s",
    "stress.correlation_sweep_s": "s",
    "stress.heatmap_s": "s",
    "stress.write_report_s": "s",
    "stress.bytes_written": "B",
    "attack.sweep_cost_s": "s",
    "attack.attack_profit_s": "s",
    "contagion.max_systemic_loss_s": "s",
    "contagion.write_loss_csv_s": "s",
    "contagion.rows_per_s": "1/s",
    "trace.overhead_pct": "%",
}


def _duration(span: list) -> float:
    return span[3] - span[2]


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(processes: list[list[list]]) -> dict[str, float]:
    """Metrics of one round from each process's span list (see spans.py);
    trace.overhead_pct is left to the caller, which has the untraced runs."""
    spans = [s for proc in processes for s in proc]

    def total(*names: str) -> float:
        return sum(_duration(s) for s in spans if s[0] in names)

    def count(*names: str) -> int:
        return sum(s[6] for s in spans if s[0] in names)

    def rss_growth(*names: str) -> float:
        return sum(s[5] - s[4] for s in spans if s[0] in names) / KB_PER_MB

    def self_time(name: str) -> float:
        # Single thread: children never overlap, so their sum is the
        # part of the parent's interval they cover.
        out = 0.0
        for proc in processes:
            for i, s in enumerate(proc):
                if s[0] == name:
                    out += _duration(s) - sum(_duration(c) for c in proc if c[1] == i)
        return out

    def module_entry(module: str) -> float:
        # Calls into a module's functions from outside it: nested calls are
        # already inside their caller's span.
        prefix = module + "."
        out = 0.0
        for proc in processes:
            for s in proc:
                inside = s[1] >= 0 and proc[s[1]][0].startswith(prefix)
                if s[0].startswith(prefix) and s[0] != prefix + "import" and not inside:
                    out += _duration(s)
        return out

    m = {
        "cli.import_s": total("cli.import"),
        **{f"cli.{c}_s": total(f"cli.cmd_{c}") for c in CLI_COMMANDS},
        "marketdata.import_s": total("marketdata.import"),
        "marketdata.ingest_s": module_entry("marketdata"),
        "paths.simulate_s": total(*SIMULATE),
        "paths.rss_growth_mb": rss_growth(*SIMULATE),
        "protocol.liquidate_s": total(*LIQUIDATE),
        "protocol.trace_s": total("protocol.run_liquidation"),
        "protocol.rss_growth_mb": rss_growth(*ENGINE),
        "stress.run_scenario_s": total("stress.run_scenario"),
        "stress.self_s": self_time("stress.run_scenario"),
        "stress.correlation_sweep_s": total("stress.correlation_sweep"),
        "stress.heatmap_s": total("stress.heatmap"),
        "stress.write_report_s": total(*WRITERS),
        "stress.bytes_written": count(*WRITERS),
        "attack.sweep_cost_s": total("attack.sweep_cost"),
        "attack.attack_profit_s": total("attack.attack_profit"),
        "contagion.max_systemic_loss_s": total("contagion.max_systemic_loss"),
        "contagion.write_loss_csv_s": total("contagion.write_loss_csv"),
    }
    m["paths.path_days_per_s"] = _rate(count(*SIMULATE), m["paths.simulate_s"])
    m["protocol.cell_path_days_per_s"] = _rate(count(*LIQUIDATE), m["protocol.liquidate_s"])
    m["contagion.rows_per_s"] = _rate(count("contagion.write_loss_csv"), m["contagion.write_loss_csv_s"])
    return m
