"""Run one benchmark operation in this fresh interpreter and record its timing.

usage: launch.py RECORD TRACE TARGET [ARGS...]

  RECORD  JSON file written as the operation ends
  TRACE   0: only stamp the first call into a computing module (the end of
          set-up); 1: also record a span around every call into a public
          function of the package, and around the imports
  TARGET  ``cli`` (ARGS are defi-stress arguments) or ``corr-sweep``
          (ARGS are CONFIG OUT, see corr_sweep.py)

The caller stamps the time before it starts the interpreter and after it has
reaped it; the record's stamps share its clock (CLOCK_MONOTONIC).
"""

from __future__ import annotations

import contextlib
import json
import sys
from pathlib import Path

import spans

# The first call into any of these ends a command's set-up: everything before
# it is interpreter start, imports, argument and config parsing.
ENTRY_POINTS = {
    "marketdata": ("load_series",),
    "stress": ("run_scenario", "heatmap", "correlation_sweep"),
    "attack": ("sweep_cost", "attack_profit"),
    "contagion": ("max_systemic_loss",),
}


def _import_target(target: str, recorder: spans.Recorder | None) -> None:
    span = recorder.span if recorder else lambda name: contextlib.nullcontext()
    with span("cli.import" if target == "cli" else "corr_sweep.import"):
        with span("numpy.import"):
            import numpy  # noqa: F401
        if target == "cli":
            with span("marketdata.import"):
                import defi_stress.marketdata  # noqa: F401
            import defi_stress.cli  # noqa: F401
        else:
            import corr_sweep  # noqa: F401


def main(argv: list[str]) -> int:
    record_path, trace, target, *args = argv
    if target not in ("cli", "corr-sweep"):
        raise SystemExit(f"unknown target {target!r}")
    recorder = spans.Recorder() if trace == "1" else None
    record: dict = {"first_compute": None, "spans": []}
    try:
        _import_target(target, recorder)
        if recorder is not None:
            spans.install(recorder)
        spans.mark_first_call(
            [
                (sys.modules[f"defi_stress.{module}"], name)
                for module, names in ENTRY_POINTS.items()
                if f"defi_stress.{module}" in sys.modules
                for name in names
            ],
            lambda: record.__setitem__("first_compute", spans.now()),
        )
        if target == "cli":
            return sys.modules["defi_stress.cli"].main(args)
        return sys.modules["corr_sweep"].run(*args)
    finally:
        if recorder is not None:
            record["spans"] = recorder.spans
        Path(record_path).write_text(json.dumps(record))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
