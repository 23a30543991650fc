"""Tests of the benchmark itself: metric output, checkers and spans."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [p for p in (str(ROOT), str(ROOT / "src")) if p not in sys.path]

from aoisched import sim  # noqa: E402
from perfbench import bench, checks, workloads  # noqa: E402
from perfbench.tracing import END, NAME, PARENT, START, Tracer  # noqa: E402


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_prints_every_metric_with_unit(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace)]
    assert bench.main(argv, tiny=True) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    units = bench.PER_LAYER_UNITS if trace else bench.E2E_UNITS
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == units
    table = {line.split()[0]: line.split()[-1] for line in lines[:-1] if line.split()}
    for name, unit in units.items():
        assert table[name] == unit
    if not trace:
        assert all(result["metrics"][n]["value"] > 0 for n in units)


def _tiny_report():
    wl = workloads.WORKLOADS["ref_long"]
    (_, config), = [c for c in workloads.family_configs(wl.systems(), wl.check, 1)
                    if c[0].startswith("hier")]
    return sim.run(config)


def test_checker_flags_one_changed_cell():
    data = checks.run_csv(_tiny_report())
    recorded = checks.digest(data)
    assert checks.digest_failures(data, recorded) == []
    lines = data.decode().splitlines()
    cells = lines[1].split(",")
    cells[7] = cells[7][:-1] + ("1" if cells[7][-1] != "1" else "2")
    changed = "\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n"
    assert checks.digest_failures(changed.encode(), recorded)


def test_checker_flags_throughput_above_attempts_share():
    data = checks.run_csv(_tiny_report())
    assert checks.convention_failures(data) == []
    header, *rows = data.decode().splitlines()
    cols = header.split(",")
    cells = rows[0].split(",")
    share = float(cells[cols.index("attempts_share")])
    cells[cols.index("throughput")] = repr(share + 0.01)
    bad = "\n".join([header, ",".join(cells)] + rows[1:]) + "\n"
    failures = checks.convention_failures(bad.encode())
    assert any("throughput" in f for f in failures)


def test_spans_nest_and_self_time_is_nonnegative():
    wl = workloads.WORKLOADS["fig5_sweep"]
    configs = workloads.family_configs(wl.systems(), wl.check, 1)
    original = sim.run
    tracer = Tracer()
    with tracer:
        rnd = bench.run_round(configs, wl.check, 1, 1, "test-spans")
    assert sim.run is original
    assert not any(rnd.problems.values())
    spans = tracer.spans
    assert {rec[NAME] for rec in spans} >= {"cli.main", "sim.sweep", "sim.run",
                                         "solver.lower_bound", "rng.draw"}
    for rec in spans:
        if rec[PARENT] >= 0:
            parent = spans[rec[PARENT]]
            assert parent[START] <= rec[START] <= rec[END] <= parent[END]
    layers = tracer.layers()
    assert all(e["self_s"] >= 0 for e in layers.values())
    assert layers["policies.select.hier"]["calls"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ref_long",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
