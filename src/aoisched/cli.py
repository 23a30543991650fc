"""Command-line front end.

Subcommands: validate, tstar, lb, run, sweep, reproduce, report.
Exit codes: 0 success, 1 validation/usage error, 2 threshold failure in
``reproduce``.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

from .metrics import CSV_COLUMNS, _fmt, report_rows, ue_cells
from .model import ScenarioError, load_scenario, replace_param, validate
from .policies import thresholds_for
from .presets import LATENCY_UE, PRESETS, RATE_TOL
from .sim import (POLICY_NAMES, PolicySpec, RunConfig, check_counts, lower_bound, run, sweep,
                  sweep_target)
from .solver import SolverError, spacing_bound


def _write_csv(path: str | None, header: list[str], rows: list[list[str]]) -> None:
    """Write to ``path``, or to stdout when it is None."""
    with (nullcontext(sys.stdout) if path is None else open(path, "w", newline="")) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# The most values a grid holds: a ranged grid's values are all built
# before the sweep runs any of them.
MAX_GRID_POINTS = 10 ** 6


def parse_grid(text: str) -> list[float]:
    """Grid syntax: 'a:b:step' (inclusive within half a step) or 'v1,v2,...'
    of finite numbers, holding at least one value and at most
    ``MAX_GRID_POINTS``."""
    ranged = ":" in text
    parts = text.split(":") if ranged else [p for p in text.split(",") if p.strip()]
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ScenarioError(f"grid {text!r} holds a value that is not a number") from None
    if not all(map(math.isfinite, values)):
        raise ScenarioError(f"grid {text!r} holds a value that is not finite")
    count = len(values)
    if ranged:
        if count != 3:
            raise ScenarioError(f"grid must be a:b:step, got {text!r}")
        a, b, step = values
        if step <= 0:
            raise ScenarioError("grid step must be positive")
        steps = (b - a) / step
        if not math.isfinite(steps):
            raise ScenarioError(f"grid {text!r} has a number of steps that is not finite")
        count = int(round(steps)) + 1
    if count > MAX_GRID_POINTS:
        raise ScenarioError(f"grid {text!r} holds {count} values, more than {MAX_GRID_POINTS}")
    if ranged:
        values = [v for v in (round(a + i * step, 12) for i in range(count))
                  if v <= b + step * 0.5]
    if not values:
        raise ScenarioError(f"grid {text!r} holds no values")
    return values


def cmd_validate(args) -> int:
    scenario = load_scenario(args.scenario)
    report = validate(scenario)
    print(f"load = {report.load!r}")
    print(f"zeta = {report.zeta!r}")
    print(f"feasible = {report.feasible}")
    if report.theta_sum is not None:
        print(f"theta_sum = {report.theta_sum!r}")
        print(f"rd_feasible = {report.rd_feasible}")
    return 0


def cmd_tstar(args) -> int:
    scenario = load_scenario(args.scenario)
    thresholds, sol = thresholds_for(scenario, validate(scenario).zeta)
    if sol is None:
        print("no aoi ues; nothing to solve")
        return 0
    rows = []
    for ue_id, thr in thresholds.items():
        t = sol.t_star[ue_id]
        print(f"ue {ue_id}: t_star = {t!r}, threshold = {thr}")
        rows.append([str(ue_id), _fmt(t), str(thr), _fmt(sol.mu), str(sol.binding)])
    print(f"mu = {sol.mu!r}, binding = {sol.binding}")
    if args.csv:
        _write_csv(args.csv, ["ue_id", "t_star", "threshold", "mu", "binding"], rows)
    return 0


def cmd_lb(args) -> int:
    scenario = load_scenario(args.scenario)
    bound = lower_bound(scenario, horizon=args.horizon, seed=args.seed, seeds=args.seeds)
    print(f"lb_f1 = {bound.lb_f1!r}")
    print(f"lb_f2 = {bound.lb_f2!r}")
    print(f"lb = {bound.lb!r}")
    if args.csv:
        _write_csv(args.csv, ["lb_f1", "lb_f2", "lb"],
                   [[_fmt(bound.lb_f1), _fmt(bound.lb_f2), _fmt(bound.lb)]])
    return 0


def _run_config(args) -> RunConfig:
    """The config that the options of ``_add_run_args`` describe."""
    return RunConfig(scenario=load_scenario(args.scenario),
                     policy=PolicySpec(args.policy, f=args.f, eta=args.eta),
                     horizon=args.horizon, seed=args.seed, warmup=args.warmup)


def cmd_run(args) -> int:
    report = run(_run_config(args))
    rows = report_rows(report, f"{report.policy}-h{args.horizon}-s{args.seed}")
    _write_csv(args.out or None, CSV_COLUMNS, rows)
    if args.out:
        print(f"wrote {args.out}")
    return 0


SWEEP_COLUMNS = ["param", "value", "replicate", "seed", "feasible", "zeta",
                 "runnable", "ue_id", "class", "avg_aoi", "avg_latency",
                 "throughput", "t_bar", "delta_sq", "attempts_share",
                 "cost_objective", "f1", "f2", "t_star", "threshold"]


def sweep_rows(points) -> list[list[str]]:
    rows = []
    for pt in points:
        base = [pt.param, _fmt(pt.value), str(pt.replicate), str(pt.seed),
                str(pt.feasibility.feasible), _fmt(pt.feasibility.zeta),
                str(pt.runnable)]
        if pt.report is None:
            rows.append(base + [""] * (len(SWEEP_COLUMNS) - len(base)))
            continue
        tstar = pt.report.extras.get("t_star", {})
        thresholds = pt.report.extras.get("thresholds", {})
        for ue_id in sorted(pt.report.per_ue):
            rows.append(base + [*ue_cells(pt.report.per_ue[ue_id]),
                                _fmt(pt.report.cost_objective),
                                _fmt(pt.report.f1), _fmt(pt.report.f2),
                                _fmt(tstar.get(ue_id)),
                                _fmt(thresholds.get(ue_id))])
    return rows


def cmd_sweep(args) -> int:
    points = sweep(_run_config(args), args.param, parse_grid(args.grid), seeds=args.seeds,
                   ue_id=args.ue, jobs=args.jobs)
    rows = sweep_rows(points)
    _write_csv(args.out, SWEEP_COLUMNS, rows)
    if args.out:
        print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


# -- reproduce -------------------------------------------------------------

def sweep_means(preset, horizon: int, args) -> dict[str, dict[float, dict]]:
    """Sweep the preset's grid once per policy and average over the seeds.

    Returns ``means[policy][value]``: under ``ues``, per UE id, the seed
    means of throughput, avg_aoi and avg_latency (a missing average counts
    as 0.0); the mean ``cost``; the first replicate's ``t_star``.
    """
    means: dict[str, dict[float, dict]] = {}
    for policy in preset.policies:
        base = RunConfig(scenario=preset.scenario, policy=PolicySpec(policy),
                         horizon=horizon, seed=args.seed)
        points = sweep(base, preset.param, list(preset.grid), seeds=args.seeds,
                       jobs=args.jobs)
        means[policy] = {}
        for v in preset.grid:
            reports = [pt.report for pt in points if pt.value == v]
            n = len(reports)
            means[policy][v] = {
                "ues": {ue_id: {key: sum(getattr(r.per_ue[ue_id], key) or 0.0
                                         for r in reports) / n
                                for key in ("throughput", "avg_aoi", "avg_latency")}
                        for ue_id in sorted(reports[0].per_ue)},
                "cost": sum(r.cost_objective for r in reports) / n,
                "t_star": reports[0].extras.get("t_star", {}),
            }
    return means


def _sweep_rows(preset, means) -> list[list[str]]:
    rows = []
    for policy, by_value in means.items():
        for v, m in by_value.items():
            for ue_id, ue_means in m["ues"].items():
                cells = {preset.param: v, "policy": policy, "ue_id": ue_id, **ue_means,
                         "t_star": m["t_star"].get(ue_id), "lb": m.get("lb"),
                         "cost": m["cost"]}
                rows.append([_fmt(cells[c]) for c in preset.header])
    return rows


def _reproduce_alpha(preset, horizon: int, args):
    means = sweep_means(preset, horizon, args)
    target = sweep_target(preset.scenario, "alpha", None)
    # The simulated latency floor ignores alpha: simulate it once and pair
    # it with each alpha's own spacing bound.
    bound = lower_bound(preset.scenario, horizon, args.seed, seeds=min(args.seeds, 2))
    for by_alpha in means.values():
        for v, m in by_alpha.items():
            scenario = replace_param(preset.scenario, target, alpha=v)
            m["lb"] = replace(bound, lb_f1=spacing_bound(scenario)).lb
    return _sweep_rows(preset, means), means


def _reproduce_beta(preset, horizon: int, args):
    means = sweep_means(preset, horizon, args)
    return _sweep_rows(preset, means), means


def _reproduce_weights(preset, horizon: int, args):
    (policy,) = preset.policies
    target = sweep_target(preset.scenario, "beta", None)
    rows, trajectories = [], {}
    for beta in preset.grid:
        config = RunConfig(scenario=replace_param(preset.scenario, target, beta=beta),
                           policy=PolicySpec(policy), horizon=horizon, seed=args.seed)
        trajectory = run(config).extras["weight_log"][target]
        for i, rho in enumerate(trajectory, start=1):
            cells = {"beta": beta, "update_index": i, "rho": rho}
            rows.append([_fmt(cells[c]) for c in preset.header])
        trajectories[beta] = trajectory
    return rows, trajectories


RUNNERS = {"alpha": _reproduce_alpha, "beta": _reproduce_beta,
           "weights": _reproduce_weights}


def cmd_reproduce(args) -> int:
    check_counts(seeds=args.seeds, jobs=args.jobs)
    preset = PRESETS[args.preset]
    horizon = preset.horizon if args.horizon is None else args.horizon
    rows, results = RUNNERS[preset.shape](preset, horizon, args)
    failed = 0
    for name, ok, detail in preset.check(results):
        failed += not ok
        suffix = f" ({detail})" if detail else ""
        print(f"[{'PASS' if ok else 'FAIL'}] {name}{suffix}")
    out = args.out or f"{args.preset}.csv"
    _write_csv(out, list(preset.header), rows)
    print(f"wrote {out} ({len(rows)} rows)")
    return 2 if failed else 0


# -- report ----------------------------------------------------------------

def cmd_report(args) -> int:
    path = Path(args.csv)
    try:
        with open(path, newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not a text file ({exc})") from None
    if not rows:
        print(f"# {path.name}\n\n(empty)")
        return 0
    header, *rows = rows
    for k, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise ScenarioError(f"{path}: row {k} has {len(row)} cells, the header "
                                f"{len(header)}")
    verdicts = _report_verdicts(header, rows)
    print(f"# {path.name}\n")
    if not rows:
        print("(no data rows)")
        return 0
    print("| " + " | ".join(header) + " |")
    print("|" + "|".join("---" for _ in header) + "|")
    for row in rows:
        print("| " + " | ".join(row) + " |")
    if verdicts:
        print("\n## Checks\n")
        for line in verdicts:
            print(line)
    return 0


def _throughput(row: list[str], col: int) -> float:
    try:
        return float(row[col])
    except ValueError:
        raise ScenarioError(f"throughput {row[col]!r} is not a number") from None


def _report_verdicts(header: list[str], rows: list[list[str]]) -> list[str]:
    out = []
    cols = {name: i for i, name in enumerate(header)}
    if {"alpha", "ue_id", "throughput"} <= set(header):
        r2 = [_throughput(r, cols["throughput"]) for r in rows
              if r[cols["ue_id"]] == str(LATENCY_UE)]
        if r2:
            flat = max(r2) - min(r2) < RATE_TOL
            out.append(f"- latency-ue throughput flat across alpha (spread "
                       f"{max(r2) - min(r2):.4f}): {'PASS' if flat else 'FAIL'}")
    if {"beta", "policy", "ue_id", "throughput"} <= set(header):
        by_key: dict[tuple[str, str], list[float]] = {}
        for r in rows:
            by_key.setdefault((r[cols["policy"]], r[cols["ue_id"]]), []).append(
                _throughput(r, cols["throughput"]))
        worst = max((max(v) - min(v) for v in by_key.values()), default=0.0)
        out.append(f"- max per-ue throughput spread across beta = {worst:.4f}: "
                   f"{'PASS' if worst < RATE_TOL else 'FAIL'}")
    return out


# -- argument parsing --------------------------------------------------------

def _add_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--policy", choices=POLICY_NAMES, default="hier")
    p.add_argument("--f", type=int, default=10000, help="virtual-weight update period (vw)")
    p.add_argument("--eta", type=float, default=0.1, help="virtual-weight step size (vw)")
    p.add_argument("--horizon", type=int, default=10 ** 6)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--warmup", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="aoisched",
                                     description="slotted downlink scheduling simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scenario file")
    p.add_argument("scenario")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("tstar", help="solve the target-spacing program")
    p.add_argument("scenario")
    p.add_argument("--csv")
    p.set_defaults(fn=cmd_tstar)

    p = sub.add_parser("lb", help="cost lower bound")
    p.add_argument("scenario")
    p.add_argument("--horizon", type=int, default=10 ** 6)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--csv")
    p.set_defaults(fn=cmd_lb)

    p = sub.add_parser("run", help="single simulation run")
    p.add_argument("scenario")
    _add_run_args(p)
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("sweep", help="parameter sweep")
    p.add_argument("scenario")
    _add_run_args(p)
    p.add_argument("--param", choices=["alpha", "beta"], required=True)
    p.add_argument("--grid", required=True, help="a:b:step or comma list")
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--ue", type=int, help="target ue id (if ambiguous)")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("reproduce", help="run a pinned experiment preset")
    p.add_argument("preset", choices=sorted(PRESETS))
    p.add_argument("--horizon", type=int,
                   help="slots per run (default: the preset's, 10^6 or 2*10^6)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seeds", type=int, default=5,
                   help="replicate seeds averaged per grid point (default 5); "
                        "fig5_weights ignores it and runs --seed alone")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the sweeps (default 1); "
                        "fig5_weights ignores it and runs serially")
    p.add_argument("--out", help="CSV output path (default: <preset>.csv)")
    p.set_defaults(fn=cmd_reproduce)

    p = sub.add_parser("report", help="summarise a CSV produced by this tool")
    p.add_argument("csv")
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ScenarioError, SolverError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
