"""Library entry script of the corr-sweep workload.

Reads a stress config that also carries ``sweep_rhos``, runs
``stress.correlation_sweep`` over those correlations with one thread and
writes one report directory per correlation (``rho<value>``), each with its
summary, worst-path traces and a manifest, as ``defi-stress stress`` would.
"""

from __future__ import annotations

import json
from pathlib import Path

from defi_stress import manifest, stress


def run(config_path: str, out_dir: str) -> int:
    config_bytes = Path(config_path).read_bytes()
    raw = json.loads(config_bytes)
    config = stress.ScenarioConfig.from_dict(raw)
    rhos = [float(r) for r in raw["sweep_rhos"]]
    reports = stress.correlation_sweep(config, rhos, threads=1)
    for rho, report in reports.items():
        report_dir = Path(out_dir) / f"rho{rho:g}"
        written = stress.write_report(report, report_dir)
        manifest.write_manifest(report_dir, config_bytes, config.seed, written)
    return 0
