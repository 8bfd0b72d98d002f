"""defi-stress benchmark: run one workload, check its outputs, print metrics.

usage (from the checkout root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run repeats whole rounds of the workload's operations for about S seconds
(at least two rounds, so that the outputs of two rounds can be compared byte
for byte). Every operation runs in a fresh interpreter with one computing
thread. With --trace 0 it reports the end-to-end metrics, each the median
over the rounds; with --trace 1 it alternates untraced and traced rounds and
reports the per-layer metrics of the traced ones, plus the tracing overhead.
The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks
import layers
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = Path(BENCH.name) / "out"  # relative to ROOT, the working directory

# A run must end within 180 s; stop starting rounds well before that.
RUN_LIMIT_S = 150.0
# Files of a round that are not byte-compared: the manifest carries a
# timestamp, the rest is the benchmark's own bookkeeping.
UNCOMPARED = ("manifest.json", ".stderr", ".record.json")

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cell_path_days_per_s": "1/s",
}


@dataclass
class OpResult:
    name: str
    exit_code: int
    wall: float
    setup: float
    rss_mb: float
    work: int
    spans: list = field(default_factory=list)


@dataclass
class Round:
    traced: bool
    ops: list[OpResult]
    digests: dict[str, str]

    @property
    def wall(self) -> float:
        return sum(o.wall for o in self.ops)

    @property
    def setup(self) -> float:
        return sum(o.setup for o in self.ops)

    @property
    def failed(self) -> int:
        return sum(o.exit_code != 0 for o in self.ops)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # One computing thread per process: the runs measure the program, not
    # how the machine's scheduler shares its cores.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["DEFI_STRESS_LOG"] = "WARNING"
    return env


def run_op(op: workloads.Op, round_dir: Path, traced: bool, env: dict, timeout: float) -> OpResult:
    record = round_dir / f"{op.name}.record.json"
    cmd = [sys.executable, str(BENCH / "launch.py"), str(record), str(int(traced)), op.target, *op.args]
    with open(round_dir / f"{op.name}.stdout", "wb") as out, open(round_dir / f"{op.name}.stderr", "wb") as err:
        start = spans.now()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            # wait4 rather than Popen.wait: it also gives this child's rusage.
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = spans.now()
        proc.returncode = os.waitstatus_to_exitcode(status)
    first_compute, op_spans = None, []
    if record.exists():
        rec = json.loads(record.read_text())
        first_compute, op_spans = rec["first_compute"], rec["spans"]
    # A command that never reaches a computing module is set-up throughout.
    setup_end = end if first_compute is None else first_compute
    return OpResult(
        name=op.name,
        exit_code=proc.returncode,
        wall=end - start,
        setup=setup_end - start,
        rss_mb=usage.ru_maxrss / layers.KB_PER_MB,
        work=op.cell_path_days if proc.returncode == 0 else 0,
        spans=op_spans,
    )


def digest_outputs(round_dir: Path) -> dict[str, str]:
    return {
        str(p.relative_to(round_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(round_dir.rglob("*"))
        if p.is_file() and not p.name.endswith(UNCOMPARED)
    }


def run_rounds(workload, work_dir: Path, seconds: float, trace: bool) -> list[Round]:
    env = child_env()
    start = spans.now()
    rounds: list[Round] = []
    while True:
        traced = trace and len(rounds) % 2 == 1
        round_dir = work_dir / f"round{len(rounds)}"
        round_dir.mkdir()
        results = []
        for op in workload.ops(round_dir):
            timeout = max(1.0, RUN_LIMIT_S + 10 - (spans.now() - start))
            results.append(run_op(op, round_dir, traced, env, timeout))
            print(
                f"round {len(rounds)}{' traced' if traced else ''} {op.name}: exit {results[-1].exit_code}"
                f" wall {results[-1].wall:.3f}s setup {results[-1].setup:.3f}s rss {results[-1].rss_mb:.0f}MB",
                file=sys.stderr,
            )
        rounds.append(Round(traced, results, digest_outputs(round_dir)))
        if rounds[1:]:
            shutil.rmtree(round_dir)  # round 0 is kept for the checks
        elapsed = spans.now() - start
        typical = statistics.median(r.wall for r in rounds)
        if len(rounds) >= 2 and elapsed + typical > seconds:
            return rounds
        if elapsed + 1.5 * max(r.wall for r in rounds) > RUN_LIMIT_S:
            return rounds


def verify(workload, work_dir: Path, rounds: list[Round]) -> list[str]:
    errors = []
    succeeded = {o.name for o in rounds[0].ops if o.exit_code == 0}
    try:
        workload.check(work_dir / "round0", succeeded)
    except checks.CheckFailed as exc:
        errors.append(f"check failed: {exc}")
    except Exception:  # malformed output: report it as a failed check
        errors.append("check failed on malformed output:\n" + traceback.format_exc())
    for i, r in enumerate(rounds[1:], 1):
        if r.digests != rounds[0].digests:
            changed = sorted(set(r.digests.items()) ^ set(rounds[0].digests.items()))
            errors.append(f"round {i} outputs differ from round 0: {[k for k, _ in changed]}")
    return errors


def end_to_end(rounds: list[Round]) -> dict[str, float]:
    plain = [r for r in rounds if not r.traced]
    return {
        "wall_s": statistics.median(r.wall for r in plain),
        "setup_s": statistics.median(r.setup for r in plain),
        "peak_rss_mb": statistics.median(max(o.rss_mb for o in r.ops) for r in plain),
        "cell_path_days_per_s": statistics.median(
            sum(o.work for o in r.ops) / (r.wall - r.setup) for r in plain
        ),
    }


def per_layer(rounds: list[Round]) -> dict[str, float]:
    traced = [layers.layer_metrics([o.spans for o in r.ops]) for r in rounds if r.traced]
    out = {name: statistics.median(m[name] for m in traced) for name in traced[0]}
    plain_wall = statistics.median(r.wall for r in rounds if not r.traced)
    traced_wall = statistics.median(r.wall for r in rounds if r.traced)
    out["trace.overhead_pct"] = 100.0 * (traced_wall / plain_wall - 1.0)
    return out


def write_spans(work_dir: Path, rounds: list[Round]) -> None:
    keys = ("name", "parent", "start", "end", "rss_start_kb", "rss_end_kb", "count")
    with open(work_dir / "spans.jsonl", "w") as fh:
        for i, r in enumerate(rounds):
            for o in r.ops:
                for s in o.spans:
                    fh.write(json.dumps({"round": i, "op": o.name, **dict(zip(keys, s))}) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so that run_op stops and
    # reaps the operation it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "defi_stress" / "__init__.py").is_file():
        print(f"error: no defi_stress sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # Byte-compile before timing: an installed package ships its bytecode,
    # so compiling it is not part of any command's set-up.
    if not compileall.compile_dir("src", quiet=1) or not compileall.compile_dir(BENCH.name, quiet=1):
        print("error: the sources do not compile", file=sys.stderr)
        return 2

    work_dir = OUT / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    inputs = work_dir / "inputs"
    inputs.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](inputs=inputs, seed=args.seed)
    workload.prepare()

    rounds = run_rounds(workload, work_dir, args.seconds, bool(args.trace))
    # Some checks call the library; it is imported only now, so that this
    # process stays small while the rounds run (a child's peak RSS counts
    # its parent's at the moment it starts).
    sys.path.insert(0, str(ROOT / "src"))
    errors = verify(workload, work_dir, rounds)
    for e in errors:
        print(e, file=sys.stderr)
    if args.trace:
        write_spans(work_dir, rounds)
        values, units = per_layer(rounds), layers.UNITS
    else:
        values, units = end_to_end(rounds), END_TO_END_UNITS
    result = {
        "correct": not errors,
        "attempted": sum(len(r.ops) for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
