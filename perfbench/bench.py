"""Benchmark runner: timed rounds, output checks, traced per-layer split.

A run measures one workload.  Untraced (``--trace 0``), it repeats rounds
of the workload's timed work until ``--seconds`` have passed and reports
the median round; traced (``--trace 1``), it runs one untraced round,
check-size runs under ``tracemalloc`` and one round under
:class:`tracing.Tracer`, and reports the per-layer split.  Every output of every round is checked
(see :mod:`checks`); the JSON object on the last line of stdout counts
checked outputs as ``attempted`` and those with a problem as ``failed``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from aoisched import cli, presets, sim
from aoisched.model import UeClass

from . import checks
from .speed import timed
from .tracing import Tracer
from .workloads import (DIGEST_SEEDS, POLICIES, SWEEP_JOBS, WORKLOADS, Size,
                        Workload, family_configs, reproduce_argv, set_up)

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_PROBES = 7

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
             **{f"mslot_per_s.{p}": "Mslot/s" for p in POLICIES}}

FIG5_CLASSES = {str(u.id): u.cls.value for u in presets.PRESETS["fig5_cost"].scenario.ues}


def _peak_rss_mb() -> float:
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "seed": seed, "loadavg_1m_start": os.getloadavg()[0]}


@dataclass
class Ledger:
    """Outputs checked and the problems found in them."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]


@dataclass
class Round:
    """One round of a workload's work, with everything it produced.

    Times are in seconds at the reference speed (see :func:`timed`), except
    ``raw_wall_s``, the host seconds of the same interval, and ``sweep_s``,
    the host seconds spent in ``sim.sweep``.
    """

    wall_s: float = 0.0
    cpu_s: float = 0.0
    raw_wall_s: float = 0.0
    run_s: dict[str, float] = field(default_factory=lambda: dict.fromkeys(POLICIES, 0.0))
    slots: dict[str, int] = field(default_factory=lambda: dict.fromkeys(POLICIES, 0))
    sweep_s: float = 0.0
    outputs: dict[str, bytes] = field(default_factory=dict)
    problems: dict[str, list[str]] = field(default_factory=dict)
    reports: list = field(default_factory=list)

    def mslot_per_s(self, policy: str) -> float:
        return self.slots[policy] / self.run_s[policy] / 1e6


@contextlib.contextmanager
def _sweeps_seen(into: list):
    """Record (seconds, points) of each ``sim.sweep`` call the CLI makes."""
    inner = cli.sweep

    def sweep(*args, **kwargs):
        t0 = time.perf_counter()
        points = inner(*args, **kwargs)
        into.append((time.perf_counter() - t0, points))
        return points

    cli.sweep = sweep
    try:
        yield
    finally:
        cli.sweep = inner


def _reproduce(rnd: Round, size: Size, seed: int, jobs: int, tag: str,
               sample_during: bool = True) -> None:
    out = OUT / f"{tag}-reproduce.csv"
    sweeps: list = []
    log = io.StringIO()
    with _sweeps_seen(sweeps), contextlib.redirect_stdout(log):
        code, wall, cpu, scale = timed(
            lambda: cli.main(reproduce_argv(size, seed, jobs, str(out))),
            sample_during)
    rnd.wall_s, rnd.cpu_s, rnd.raw_wall_s = wall * scale, cpu * scale, wall
    data = out.read_bytes()
    problems = checks.convention_failures(data, FIG5_CLASSES)
    if code != 0:
        problems.append(f"reproduce exited {code}: "
                        + "; ".join(l for l in log.getvalue().splitlines() if "FAIL" in l))
    rnd.outputs["reproduce"] = data
    rnd.problems["reproduce"] = problems
    rnd.sweep_s = sum(s for s, _ in sweeps)
    for _, points in sweeps:
        for pt in points:
            if pt.report is not None:
                label = f"sweep.{pt.value}.r{pt.replicate}"
                rnd.outputs[label] = checks.run_csv(pt.report)
                rnd.problems[label] = checks.convention_failures(rnd.outputs[label])
                rnd.reports.append(pt.report)


def run_round(configs: list, size: Size, seed: int, jobs: int, tag: str,
              sample_during: bool = True) -> Round:
    """The timed work of one round, then the checks of its outputs.

    ``wall_s``/``cpu_s`` cover the ``reproduce`` call when the workload makes
    one, else the family runs; the family runs are timed one by one for
    the per-policy slot rates.  ``sample_during=False`` keeps calibration
    snippets out of the calls (see :func:`speed.timed`), as a traced round
    must, or the spans would include them.
    """
    rnd = Round()
    if size.sweep_horizon:
        _reproduce(rnd, size, seed, jobs, tag, sample_during)
    reports = []
    for _, config in configs:
        report, wall, cpu, scale = timed(lambda: sim.run(config), sample_during)
        reports.append(report)
        rnd.run_s[config.policy.name] += wall * scale
        rnd.slots[config.policy.name] += config.horizon
        if not size.sweep_horizon:
            rnd.wall_s += wall * scale
            rnd.cpu_s += cpu * scale
            rnd.raw_wall_s += wall
    for (label, _), report in zip(configs, reports):
        rnd.outputs[label] = checks.run_csv(report)
        rnd.problems[label] = checks.convention_failures(rnd.outputs[label])
    rnd.reports += reports
    return rnd


def exact_counts(reports: list) -> dict[str, float]:
    """Simulated counts that no performance change may move."""
    slots = attempts = deliveries = aoi_arrivals = aoi_deliveries = below_1 = 0
    for report in reports:
        slots += report.horizon
        for s in report.per_ue.values():
            attempts += s.attempts
            deliveries += s.deliveries
            if s.ue_class is UeClass.AOI:
                aoi_arrivals += s.arrivals
                aoi_deliveries += s.deliveries
                below_1 += s.avg_latency is not None and s.avg_latency < 1.0
    return {"sim.slots": slots, "metrics.attempts": attempts,
            "metrics.delivery_ratio": deliveries / attempts,
            "metrics.aoi_superseded_frac": (aoi_arrivals - aoi_deliveries) / aoi_arrivals,
            "policies.tx_frac": attempts / slots,
            "metrics.aoi_latency_below_1": below_1}


def _record_round(ledger: Ledger, rnd: Round, name: str, reference: Round | None) -> None:
    """Record a round's checks; with ``reference``, its bytes must match it."""
    for label, data in rnd.outputs.items():
        problems = list(rnd.problems[label])
        if reference is not None and reference.outputs.get(label) != data:
            problems.append("CSV bytes differ from the first round at the same seed")
        ledger.record(f"{name} {label}", problems)


def check_digests(workload: Workload, ledger: Ledger) -> None:
    recorded = checks.load_digests().get(workload.name, {})
    for seed in DIGEST_SEEDS:
        rnd = check_round(workload, seed)
        want = recorded.get(str(seed), {})
        for label, data in rnd.outputs.items():
            ledger.record(f"digest seed {seed} {label}",
                          rnd.problems[label] + checks.digest_failures(data, want.get(label)))


def check_round(workload: Workload, seed: int) -> Round:
    configs = family_configs(workload.systems(), workload.check, seed)
    return run_round(configs, workload.check, seed, SWEEP_JOBS,
                     f"{workload.name}-check-s{seed}")


def record_digests() -> dict:
    """Digests of every check-size output, for ``digests.json``."""
    table: dict = {}
    for name, workload in WORKLOADS.items():
        for seed in DIGEST_SEEDS:
            rnd = check_round(workload, seed)
            bad = {k: v for k, v in rnd.problems.items() if v}
            if bad:
                raise RuntimeError(f"{name} seed {seed}: outputs fail checks: {bad}")
            table.setdefault(name, {})[str(seed)] = {
                label: checks.digest(data) for label, data in rnd.outputs.items()}
    return table


def setup_seconds(workload: str, seed: int, probes: int) -> list[tuple[float, float]]:
    """(host s, scaled s) of set-up in fresh processes (``run.py --setup-probe``)."""
    samples = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        host, scaled = proc.stdout.split()[-2:]
        samples.append((float(host), float(scaled)))
    return samples


def _alloc_peak(config) -> int:
    tracemalloc.start()
    try:
        sim.run(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def alloc_bytes_per_slot(configs: list) -> float:
    """Largest growth of the tracemalloc peak of one ``sim.run`` per extra
    slot, from the run's horizon to twice it: the slope of memory against
    horizon, without the fixed part."""
    worst = 0.0
    for _, config in configs:
        longer = replace(config, horizon=2 * config.horizon)
        worst = max(worst, (_alloc_peak(longer) - _alloc_peak(config)) / config.horizon)
    return worst


def untraced(workload: Workload, size: Size, seed: int, seconds: float,
             probes: int, ledger: Ledger, raw: dict) -> dict[str, float]:
    setup = setup_seconds(workload.name, seed, probes)
    configs = set_up(workload, size, seed)
    rounds: list[Round] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rnd = run_round(configs, size, seed, SWEEP_JOBS, f"{workload.name}-s{seed}")
        _record_round(ledger, rnd, f"round {len(rounds)}", rounds[0] if rounds else None)
        rounds.append(rnd)
    raw.update(setup_s=[s for _, s in setup], setup_host_s=[h for h, _ in setup],
               wall_s=[r.wall_s for r in rounds], wall_host_s=[r.raw_wall_s for r in rounds],
               cpu_s=[r.cpu_s for r in rounds],
               mslot_per_s={p: [r.mslot_per_s(p) for r in rounds] for p in POLICIES})
    out = {"setup_s": statistics.median(raw["setup_s"]),
           "wall_s": statistics.median(raw["wall_s"]),
           "cpu_s": statistics.median(raw["cpu_s"]),
           "peak_rss_mb": _peak_rss_mb()}
    for p in POLICIES:
        out[f"mslot_per_s.{p}"] = statistics.median(raw["mslot_per_s"][p])
    return out


PER_LAYER_UNITS: dict[str, str] = {
    "rng.substreams.s": "s", "rng.draw.s": "s",
    "sim.run.alloc_bytes_per_slot": "B/slot",
    **{f"policies.{m}.{p}.{k}": ("count" if k == "calls" else "s")
       for m in ("update_index", "select", "on_outcome") for p in POLICIES
       for k in ("calls", "s")},
    "policies.update_virtual_weights.calls": "count",
    "policies.update_virtual_weights.s": "s",
    **{f"metrics.{m}.{k}": ("count" if k == "calls" else "s")
       for m in ("on_arrival", "on_delivery", "latency_now") for k in ("calls", "s")},
    "metrics.finalize.s": "s", "metrics.assemble_cost.s": "s", "metrics.report_rows.s": "s",
    "sim.run.self_s": "s", "sim.run.us_per_slot": "us", "sim.build_policy.s": "s",
    "sim.sweep.s": "s", "sim.sweep.parallel_eff": "ratio",
    "solver.lower_bound.s": "s",
    "solver.compute_t_star.calls": "count", "solver.compute_t_star.s": "s",
    "model.validate.calls": "count", "model.validate.s": "s",
    "cli.main.self_s": "s",
    "sim.slots": "count", "metrics.attempts": "count", "metrics.delivery_ratio": "ratio",
    "metrics.aoi_superseded_frac": "ratio", "policies.tx_frac": "ratio",
    "metrics.aoi_latency_below_1": "count",
    **{f"trace.mslot_per_s.{p}": "Mslot/s" for p in POLICIES},
    **{f"trace.overhead.{p}": "ratio" for p in POLICIES},
    "failed_frac": "ratio",
}


def traced(workload: Workload, size: Size, seed: int, ledger: Ledger,
           raw: dict, tag: str) -> dict[str, float]:
    configs = set_up(workload, size, seed)
    base = run_round(configs, size, seed, SWEEP_JOBS, f"{tag}-untraced")
    _record_round(ledger, base, "untraced", None)
    parallel_eff = 0.0
    if size.sweep_horizon:
        serial = Round()
        _reproduce(serial, size, seed, 1, f"{tag}-serial")
        ledger.record("serial reproduce", serial.problems["reproduce"]
                      + ([] if serial.outputs["reproduce"] == base.outputs["reproduce"]
                         else ["CSV differs between --jobs 1 and --jobs 2"]))
        parallel_eff = serial.sweep_s / (SWEEP_JOBS * base.sweep_s)
    alloc = alloc_bytes_per_slot(family_configs(workload.systems(), workload.check, seed))

    tracer = Tracer()
    with tracer:
        spans_round = run_round(configs, size, seed, 1, f"{tag}-traced",
                                sample_during=False)
    _record_round(ledger, spans_round, "traced", base)
    counts = exact_counts(base.reports)
    ledger.record("traced exact counts",
                  [] if exact_counts(spans_round.reports) == counts
                  else ["exact counts differ between traced and untraced rounds"])

    layers = tracer.layers()
    out: dict[str, float] = {}
    for name in PER_LAYER_UNITS:
        layer, _, key = name.rpartition(".")
        if key in ("calls", "s", "self_s"):
            out[name] = layers.get(layer, {}).get(key, 0)
    run = layers.get("sim.run", {})
    out["sim.run.us_per_slot"] = run["s"] / run["size"] * 1e6 if run else 0.0
    out["sim.run.alloc_bytes_per_slot"] = alloc
    out["sim.sweep.parallel_eff"] = parallel_eff
    out.update(counts)
    for p in POLICIES:
        out[f"trace.mslot_per_s.{p}"] = spans_round.mslot_per_s(p)
        out[f"trace.overhead.{p}"] = base.mslot_per_s(p) / spans_round.mslot_per_s(p)
    raw["untraced_mslot_per_s"] = {p: base.mslot_per_s(p) for p in POLICIES}
    raw["layers"] = layers
    tracer.write(OUT / f"{tag}-spans.jsonl")
    return out


def _table(metrics: dict[str, float], units: dict[str, str]) -> list[str]:
    width = max(map(len, units))
    return [f"{name:<{width}}  {metrics[name]:>14.6g}  {units[name]}" for name in units]


def main(argv: list[str] | None = None, tiny: bool = False) -> int:
    """Run one workload; see ``run.py``.  ``tiny`` runs the check sizes once."""
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    size = workload.check if tiny else workload.timed
    OUT.mkdir(exist_ok=True)
    tag = f"{workload.name}-s{args.seed}-t{args.trace}"
    env = environment(args.seed)
    ledger, raw = Ledger(), {}
    check_digests(workload, ledger)
    if args.trace:
        values = traced(workload, size, args.seed, ledger, raw, tag)
        units = PER_LAYER_UNITS
        values["failed_frac"] = ledger.failed / ledger.attempted
    else:
        values = untraced(workload, size, args.seed, 0.0 if tiny else args.seconds,
                          1 if tiny else SETUP_PROBES, ledger, raw)
        units = E2E_UNITS
    env["loadavg_1m_end"] = os.getloadavg()[0]

    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed,
              "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()}}
    (OUT / f"{tag}.json").write_text(json.dumps(
        {"workload": workload.name, "trace": args.trace, "environment": env,
         "result": result, "problems": ledger.problems, "raw": raw}, indent=1))

    print(f"# aoisched benchmark: workload {workload.name}, seed {args.seed}, "
          f"trace {args.trace}")
    print("# " + ", ".join(f"{k}={v}" for k, v in env.items()))
    lines = _table(values, units)
    if args.trace:
        (OUT / f"{tag}-layers.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    if not args.trace:
        print(f"failed_frac = {ledger.failed}/{ledger.attempted} ratio")
    for problem in ledger.problems:
        print(f"FAILED {problem}")
    print(json.dumps(result))
    return 0
