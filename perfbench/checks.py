"""Output checks of the benchmark, computed apart from the program.

Each check reads what a command wrote and compares it with the benchmark's
own recomputation from the inputs (closed forms, brute-force walks, the
trace's own accounting identities). A check raises CheckFailed on the first
mismatch. Only the standard library is used, so a defect shared with numpy
code in the program cannot hide itself here.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

# Relative tolerance for quantities the program computes with the same
# arithmetic as the check: a few thousand ulps, far below any real change.
REL = 1e-12


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(a: float, b: float, rel: float = REL, scale: float = 0.0) -> bool:
    """|a - b| within rel of max(|a|, |b|, scale)."""
    return abs(a - b) <= rel * max(abs(a), abs(b), scale)


def _reject_constant(name: str):
    raise CheckFailed(f"non-finite JSON constant {name}")


def strict_json(path: Path):
    """Parse JSON, rejecting NaN and +-Infinity."""
    try:
        return json.loads(Path(path).read_text(), parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{path}: invalid JSON ({exc})") from exc


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with Path(path).open(newline="") as fh:
        rows = list(csv.reader(fh))
    require(bool(rows), f"{path}: empty")
    return rows[0], rows[1:]


def check_manifest(out_dir: Path, config_bytes: bytes, seed: int | None) -> None:
    manifest = strict_json(out_dir / "manifest.json")
    require(
        manifest["config_digest"] == hashlib.sha256(config_bytes).hexdigest(),
        f"{out_dir}: manifest config_digest is not the sha256 of the config",
    )
    if seed is not None:
        require(manifest["master_seed"] == seed, f"{out_dir}: manifest seed")
    listed = sorted(p.name for p in out_dir.iterdir() if p.name != "manifest.json")
    require(manifest["outputs"] == listed, f"{out_dir}: manifest outputs {listed}")


# --- ingest -----------------------------------------------------------------


def fixture_returns(csv_path: Path) -> list[float]:
    header, rows = read_csv(csv_path)
    closes = [float(r[header.index("close")]) for r in rows if r]
    return [math.log(b / a) for a, b in zip(closes, closes[1:])]


def check_ingest(stats_path: Path, csv_path: Path) -> None:
    """mu and sigma (ddof 1) of the daily log-returns."""
    stats = strict_json(stats_path)
    r = fixture_returns(csv_path)
    n = len(r)
    mu = math.fsum(r) / n
    sigma = math.sqrt(math.fsum((x - mu) ** 2 for x in r) / (n - 1))
    require(stats["n"] == n, f"ingest n {stats['n']} != {n}")
    require(close(stats["mu"], mu, 1e-9), f"ingest mu {stats['mu']} != {mu}")
    require(close(stats["sigma"], sigma, 1e-9), f"ingest sigma {stats['sigma']} != {sigma}")


def check_jarque_bera(stat: float, p_value: float, returns: list[float]) -> None:
    """Statistic against a recomputation; p-value against the chi^2(2) tail,
    which has the closed form exp(-stat/2)."""
    n = len(returns)
    mean = math.fsum(returns) / n
    m2, m3, m4 = (math.fsum((x - mean) ** k for x in returns) / n for k in (2, 3, 4))
    own = n / 6.0 * ((m3 / m2**1.5) ** 2 + (m4 / m2**2 - 3.0) ** 2 / 4.0)
    require(close(stat, own, 1e-9), f"Jarque-Bera statistic {stat} != {own}")
    require(
        close(p_value, math.exp(-stat / 2.0), 1e-9, scale=1e-300),
        f"Jarque-Bera p {p_value} != exp(-stat/2) = {math.exp(-stat / 2.0)}",
    )


# --- attack and sweep-cost ---------------------------------------------------


def brute_force_sweep(books: list[dict], target: float) -> float:
    """Cost of target units: repeatedly take the cheapest level left
    (ties by book order, then level order) by scanning every level."""
    left = [
        [float(p), float(q), bi, li]
        for bi, book in enumerate(books)
        for li, (p, q) in enumerate(book["levels"])
    ]
    remaining, cost = target, 0.0
    while remaining > 0:
        require(bool(left), "order books too shallow for the target")
        best = min(left, key=lambda lv: (lv[0], lv[2], lv[3]))
        left.remove(best)
        take = min(best[1], remaining)
        cost += take * best[0]
        remaining -= take
    return cost


def cheapest_pool_first(pools: list[dict], amount: float) -> float:
    """Interest on a loan of amount filled from the lowest-fee pool first."""
    interest, remaining = 0.0, amount
    for pool in sorted(pools, key=lambda p: float(p["fee_rate"])):
        take = min(float(pool["available"]), remaining)
        interest += take * float(pool["fee_rate"])
        remaining -= take
    require(remaining <= 0, "flash pools too shallow for the loan")
    return interest


def check_attack(report_path: Path, plan: dict) -> None:
    report = strict_json(report_path)
    gas = {s["name"]: float(s["gas_cost"]) for s in plan["strategies"]}
    require(sorted(report) == sorted(gas), f"attack strategies {sorted(report)}")
    seizable = float(plan["seizable_collateral"])
    loan_price = float(plan["loan_currency_price"])
    mintable = float(plan["mintable_debt"])
    expected = {}
    if "crowdfund" in gas:
        expected["crowdfund"] = seizable * loan_price + mintable - gas["crowdfund"]
    if "flashloan" in gas:
        tokens = float(plan["tokens_needed"])
        cost = brute_force_sweep(plan["books"], tokens)
        interest = cheapest_pool_first(plan["flash_pools"], cost)
        flash = report["flashloan"]
        require(close(flash["sweep_cost"], cost, 1e-9), f"flash sweep cost {flash['sweep_cost']} != {cost}")
        require(
            close(flash["loan_interest"], interest, 1e-9, scale=1e-9),
            f"flash interest {flash['loan_interest']} != {interest}",
        )
        expected["flashloan"] = (
            (seizable - cost - interest) * loan_price
            + tokens * float(plan["governance_token_price"])
            + mintable
            - gas["flashloan"]
        )
    for name, profit in expected.items():
        got = report[name]
        if profit > 0:
            require(got["executed"] is True, f"{name} should execute")
            require(close(got["net_profit"], profit, 1e-9), f"{name} profit {got['net_profit']} != {profit}")
        else:
            require(got["executed"] is False, f"{name} should revert")
            require(got["net_profit"] == -gas[name], f"{name} should lose only gas")


def check_sweep_cost(report_path: Path, plan: dict) -> None:
    report = strict_json(report_path)
    target = float(report["target_qty"])
    cost = brute_force_sweep(plan["books"], target)
    require(close(report["total_cost"], cost, 1e-9), f"sweep total_cost {report['total_cost']} != {cost}")
    filled = math.fsum(f[2] for f in report["fills"])
    require(close(filled, target, 1e-9), f"sweep fills {filled} != target {target}")


# --- contagion ----------------------------------------------------------------


def check_contagion(out_dir: Path, model: dict, snapshot_csv: Path) -> None:
    """Loss samples in [D/b, D/a]; mean within 4 standard errors of the
    closed form D ln(b/a)/(b-a); summary agrees with the CSVs; sweepable
    totals from the snapshot."""
    summary = strict_json(out_dir / "contagion_summary.json")
    debt = float(model["total_debt"])
    n = int(model["n_samples"])
    for low, high in ([float(x) for x in r] for r in model["lambda_ranges"]):
        key = f"{low:g}-{high:g}"
        header, rows = read_csv(out_dir / f"losses_{key}.csv")
        require(header == ["sample", "loss"], f"{key}: loss CSV header {header}")
        require(len(rows) == n, f"{key}: {len(rows)} loss rows, expected {n}")
        require(all(int(r[0]) == i for i, r in enumerate(rows)), f"{key}: sample index")
        samples = [float(r[1]) for r in rows]
        lo, hi = debt / high, debt / low
        require(
            all(lo * (1 - REL) <= s <= hi * (1 + REL) for s in samples),
            f"{key}: a loss lies outside [D/b, D/a]",
        )
        mean = math.fsum(samples) / n
        se = math.sqrt(math.fsum((s - mean) ** 2 for s in samples) / (n - 1) / n)
        stats = summary["losses"][key]
        require(close(stats["mean"], mean, 1e-9), f"{key}: summary mean {stats['mean']} != CSV mean {mean}")
        require(stats["min"] == min(samples) and stats["max"] == max(samples), f"{key}: min/max")
        expected = debt * math.log(high / low) / (high - low)
        require(
            abs(stats["mean"] - expected) <= 4 * se,
            f"{key}: mean {stats['mean']} is more than 4 SE ({se}) from {expected}",
        )
    _, rows = read_csv(snapshot_csv)
    total = math.fsum(float(r[2]) for r in rows if r)
    require(close(summary["sweepable_unlimited"], total), "sweepable_unlimited")
    if model.get("holdings_cap") is not None:
        capped = min(float(model["holdings_cap"]), total)
        require(close(summary["sweepable_capped"], capped), "sweepable_capped")


# --- heatmap ------------------------------------------------------------------


def read_heatmap(path: Path) -> tuple[list[float], list[float], list[list[float]]]:
    """Debt rows, l0 columns and the days grid with empty cells as inf."""
    header, rows = read_csv(path)
    require(header[0] == "debt", f"heatmap header {header}")
    l0s = [float(h.removeprefix("l0_")) for h in header[1:]]
    debts = [float(r[0]) for r in rows]
    grid = [[math.inf if c == "" else int(c) for c in r[1:]] for r in rows]
    return debts, l0s, grid


def check_heatmap(path: Path, heatmap_spec: dict, stress_summary: dict | None) -> None:
    """Non-increasing in debt, non-decreasing in l0 (empty = never), and
    equal to the stress summary's cells with the same l0 and decay."""
    debts, l0s, grid = read_heatmap(path)
    require(debts == [float(d) for d in heatmap_spec["debt_grid"]], "heatmap debt rows")
    require(l0s == [float(v) for v in heatmap_spec["l0_grid"]], "heatmap l0 columns")
    for j in range(len(l0s)):
        col = [row[j] for row in grid]
        require(col == sorted(col, reverse=True), f"heatmap column l0={l0s[j]:g} rises with debt: {col}")
    for debt, row in zip(debts, grid):
        require(row == sorted(row), f"heatmap row debt={debt:g} falls with l0: {row}")
    if stress_summary is None:
        return
    decay = float(heatmap_spec["decay_rho"])
    matched = 0
    for cell in stress_summary["cells"]:
        if cell["liquidity_rho"] == decay and cell["l0"] in l0s and cell["debt"] in debts:
            day = cell["first_negative_day"]
            got = grid[debts.index(cell["debt"])][l0s.index(cell["l0"])]
            require(
                got == (math.inf if day is None else day),
                f"heatmap cell debt={cell['debt']:g} l0={cell['l0']:g} is {got}, stress says {day}",
            )
            matched += 1
    require(matched > 0, "no stress cell shares the heatmap's l0 and decay")


# --- stress reports -----------------------------------------------------------

TRACE_HEADER = [
    "day", "col_price", "res_price", "units_sold", "proceeds",
    "debt_remaining", "collateral_remaining", "margin",
]


def check_trace(path: Path, config: dict, debt0: float, l0: float, decay: float) -> list[float]:
    """Replays the accounting of one worst-path trace; returns its margins."""
    header, rows = read_csv(path)
    require(header == TRACE_HEADER, f"{path.name}: header {header}")
    horizon = int(config["horizon_days"])
    require(1 <= len(rows) <= horizon + 1, f"{path.name}: {len(rows)} rows")
    reserve = float(config["reserve_quantity"])
    p0 = float(config["collateral"]["p0"])
    coll = debt0 * float(config.get("collateral_ratio", 1.5)) / p0
    debt = debt0
    margins = []
    for t, row in enumerate(rows):
        day, p_col, p_res, units, proceeds, debt_t, coll_t, margin = map(float, row)
        where = f"{path.name} day {t}"
        require(day == t, f"{where}: day column {day}")
        require(p_col > 0 and p_res > 0 and math.isfinite(p_col * p_res), f"{where}: prices")
        if t == 0:
            require(p_col == p0 and p_res == float(config["reserve"]["p0"]), f"{where}: initial prices")
        cap = l0 * math.exp(-decay * t)
        require(0 <= units <= cap * (1 + REL), f"{where}: sold {units} > liquidity {cap}")
        require(units <= coll * (1 + REL), f"{where}: sold more collateral than held")
        require(close(proceeds, units * p_col), f"{where}: proceeds")
        require(debt_t <= debt, f"{where}: debt rose from {debt} to {debt_t}")
        require(
            abs(debt_t - max(debt - proceeds, 0.0)) <= 1e-9 * debt0,
            f"{where}: debt {debt_t} != {debt} - {proceeds}",
        )
        require(close(coll_t, coll - units, scale=coll), f"{where}: collateral")
        value = coll_t * p_col + reserve * p_res
        require(
            close(margin, value - debt_t, scale=value + debt_t),
            f"{where}: margin {margin} != coll*p_col + reserve*p_res - debt",
        )
        debt, coll = debt_t, coll_t
        margins.append(margin)
        if debt == 0.0:
            require(t == len(rows) - 1, f"{where}: trace continues after the debt is discharged")
    if debt > 0:
        require(len(rows) == horizon + 1, f"{path.name}: stops early with debt left")
    return margins


def trace_name(cell: dict) -> str:
    return f"trace_debt{cell['debt']:g}_l0{cell['l0']:g}_rho{cell['liquidity_rho']:g}.csv"


def check_stress_report(out_dir: Path, config: dict) -> dict:
    """Summary against config and every cell's worst-path trace."""
    summary = strict_json(out_dir / "summary.json")
    require(summary["seed"] == config["seed"], "summary seed")
    require(summary["n_paths"] == config["n_paths"], "summary n_paths")
    require(summary["rho_corr"] == config["rho_corr"], "summary rho_corr")
    expected_cells = [
        (float(d), float(r["l0"]), float(r.get("rho", 0.0)))
        for d in config["debt_levels"]
        for r in config["liquidity_regimes"]
    ]
    got_cells = [(c["debt"], c["l0"], c["liquidity_rho"]) for c in summary["cells"]]
    require(got_cells == expected_cells, f"summary cells {got_cells}")
    for cell in summary["cells"]:
        margins = check_trace(out_dir / trace_name(cell), config, cell["debt"], cell["l0"], cell["liquidity_rho"])
        first = next((t for t, m in enumerate(margins) if m < 0), None)
        require(
            cell["first_negative_day"] == first,
            f"{trace_name(cell)}: summary first_negative_day {cell['first_negative_day']} != trace {first}",
        )
        require(cell["terminal_margin"] == margins[-1], f"{trace_name(cell)}: terminal margin")
        require(cell["min_terminal_margin"] <= cell["terminal_margin"], f"{trace_name(cell)}: min terminal margin")
        require(0 <= cell["worst_path_index"] < config["n_paths"], f"{trace_name(cell)}: path index")
    return summary


def check_debt_decay_order(summary: dict) -> None:
    """Worst terminal margin falls (weakly) as debt rises, in each liquidity
    regime, and as liquidity decays faster, at each debt level where every
    regime goes undercollateralised: slower selling then leaves more
    collateral exposed to the falling price. Where no path goes under, the
    worst margin is set by prices at discharge and slower selling can come
    out ahead, so decay is not ordered there."""
    worst = {(c["debt"], c["l0"], c["liquidity_rho"]): c["min_terminal_margin"] for c in summary["cells"]}
    underwater = {
        debt
        for debt in {c["debt"] for c in summary["cells"]}
        if all(c["first_negative_day"] is not None for c in summary["cells"] if c["debt"] == debt)
    }
    for key in worst:
        for other in worst:
            more_debt = other[1:] == key[1:] and other[0] > key[0]
            faster_decay = other[:2] == key[:2] and other[2] > key[2] and key[0] in underwater
            if more_debt or faster_decay:
                require(
                    worst[other] <= worst[key],
                    f"min_terminal_margin {worst[other]} at {other} above {worst[key]} at {key}",
                )


def check_rho_order(summaries: dict[float, dict], min_apart: float) -> None:
    """Worst terminal margin falls as the correlation rises (acceptance
    criterion 6): at the lowest correlation it lies strictly above every
    level at least min_apart higher. The worst of an ensemble is one extreme
    path, so levels closer together can cross by sampling alone; strictness
    catches a sweep that ignores the correlation."""
    for rho, summary in summaries.items():
        require(summary["rho_corr"] == rho, f"report for rho {rho} says {summary['rho_corr']}")
    worst = {r: min(c["min_terminal_margin"] for c in s["cells"]) for r, s in summaries.items()}
    lo = min(worst)
    for hi in worst:
        if hi - lo >= min_apart - 1e-9:  # 0.1 - (-0.9) may round below 1.0
            require(
                worst[lo] > worst[hi],
                f"min_terminal_margin not ordered across rho {lo} and {hi}: {worst[lo]} <= {worst[hi]}",
            )
