#!/usr/bin/env python3
"""Alternating benchmark pairs: a base commit against the working tree.

Run from the repository root:

    python3 tools/bench_pairs.py --base HEAD~1 --out BENCH_9.json \\
        --pairs ref_long=10 --pairs wide48_hier=6 --pairs fig5_sweep=6

The base commit is extracted with ``git archive`` into a temporary
directory (no worktree is registered), and each side's checkout imports
``aoisched`` once before the first pair, so that a build of its C kernel
(a compiler child, whose peak RSS would count in ``peak_rss_mb``) falls in
no measured run.  Then ``perfbench/run.py --trace 0`` runs once on each
side per pair, in one process at a time; which side runs first alternates
from pair to pair.  The output holds, per workload and
end-to-end metric (as ``BENCHMARK.json`` lists them): every run's value,
each side's median and quartiles, how many pairs each side won (ties count
for neither), the change of the median relative to the base, and whether
the pairs show a gain (the change wins at least 9 in 10 pairs and its
median beats the base's by more than the base's interquartile range) or a
regression beyond the metric's bound, read as a fraction of the base
median.  ``src_lines`` gives each side's line counts of ``src/aoisched``,
all lines and code lines for Python and for C, as ``tools/src_lines.py``
counts them.  Each run's ``failed``/``attempted`` counts are kept as well, and
its round count: how many times the workload ran within ``--seconds``, read
from the ``.perfbench/<workload>-s<seed>-t0.json`` the run left in its
checkout.  The benchmark keeps every round until the run ends, so
``peak_rss_mb`` grows with the round count and a faster side fits more
rounds; ``peak_rss_mb_same_rounds`` gives both sides' medians over only the
pairs whose two runs ran the same number of rounds, which tells a change in
the program's memory apart from that effect.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

from src_lines import counts

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(rev: str, into: Path) -> None:
    """Write the files of commit ``rev`` under ``into``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def warm(checkout: Path) -> None:
    """Import ``aoisched`` from ``checkout``'s ``src/``, building what its import builds."""
    code = "import sys; sys.path.insert(0, 'src'); import aoisched"
    subprocess.run([sys.executable, "-c", code], cwd=checkout, check=True)


def line_counts(checkout: Path) -> dict:
    """All and code lines of ``checkout``'s package, per language."""
    _, totals = counts(checkout / "src" / "aoisched")
    return {name.lstrip("*."): {"lines": lines, "code": code}
            for name, lines, code in totals if name != "total"}


def bench_once(checkout: Path, command: list[str], workload: str, seed: int,
               seconds: float) -> dict:
    """One ``--trace 0`` run in ``checkout``; its result line."""
    argv = [sys.executable, *command[1:], "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    saved = json.loads((checkout / ".perfbench" / f"{workload}-s{seed}-t0.json").read_text())
    result["rounds"] = len(saved["raw"]["wall_s"])
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(metric: dict, base: list[float], change: list[float]) -> dict:
    """Per-metric verdict over the pairs ``zip(base, change)``."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    losses = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    b, c = summary(base), summary(change)
    gain = sign * (c["median"] - b["median"])
    return {
        "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
        "base": {**b, "runs": base}, "change": {**c, "runs": change},
        "change_wins": wins, "base_wins": losses, "ties": len(base) - wins - losses,
        "median_change_rel": (c["median"] - b["median"]) / b["median"],
        "gain_shown": wins >= 0.9 * len(base) and gain > b["q3"] - b["q1"],
        "worse_than_bound": -gain > metric["bound"] * b["median"],
    }


def same_rounds(rounds: dict[str, list[int]], rss: dict[str, list[float]]) -> dict:
    """``peak_rss_mb`` medians over the pairs whose runs fit the same number of rounds."""
    same = [i for i, (b, c) in enumerate(zip(rounds["base"], rounds["change"])) if b == c]
    out: dict = {"pairs": len(same)}
    if same:
        medians = {side: statistics.median(rss[side][i] for i in same) for side in SIDES}
        out.update(medians, median_change_rel=(medians["change"] - medians["base"])
                   / medians["base"])
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="tools/bench_pairs.py")
    parser.add_argument("--base", required=True, help="commit to compare against")
    parser.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=N",
                        help="pairs to run on a workload; repeat for more workloads")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="--seconds of each run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    plan = []
    for item in args.pairs:
        workload, _, n = item.partition("=")
        if int(n) < 2:
            parser.error(f"--pairs {item}: quartiles need at least 2 pairs")
        plan.append((workload, int(n)))

    base_sha = git("rev-parse", args.base)
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    out: dict = {
        "base": base_sha, "change": git("rev-parse", "HEAD") + ("+dirty" if dirty else ""),
        "command": spec["command"] + ["--seed", str(args.seed), "--seconds", str(seconds),
                                      "--trace", "0"],
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "numpy": np.__version__},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        checkouts = {"base": Path(tmp), "change": ROOT}
        extract(base_sha, checkouts["base"])
        for checkout in checkouts.values():
            warm(checkout)
        out["src_lines"] = {side: line_counts(checkouts[side]) for side in SIDES}
        for workload, n in plan:
            runs: dict[str, list[dict]] = {side: [] for side in SIDES}
            for i in range(n):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for side in order:
                    runs[side].append(bench_once(checkouts[side], spec["command"], workload,
                                                 args.seed, seconds))
                print(f"{workload}: pair {i + 1}/{n} done", file=sys.stderr)
            rounds = {side: [r["rounds"] for r in runs[side]] for side in SIDES}
            out["workloads"][workload] = {
                "pairs": n,
                "first": [SIDES[i % 2] for i in range(n)],
                "failed": {side: [r["failed"] for r in runs[side]] for side in SIDES},
                "attempted": {side: [r["attempted"] for r in runs[side]] for side in SIDES},
                "rounds": rounds,
                "peak_rss_mb_same_rounds": same_rounds(rounds, {
                    side: [r["metrics"]["peak_rss_mb"]["value"] for r in runs[side]]
                    for side in SIDES}),
                "metrics": {
                    m["name"]: compare(m, *[[r["metrics"][m["name"]]["value"] for r in runs[side]]
                                            for side in SIDES])
                    for m in spec["end_to_end"]},
            }
            Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
