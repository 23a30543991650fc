"""Acceptance suite: every numbered criterion at its stated tolerance.

Default setup: the three-UE reference system, horizon 10**6 slots, five
replicate seeds per sweep point.  Shared sweeps are computed once per
session.  Each test prints one ``[criterion NN] PASS/FAIL`` line.
"""

import os
from dataclasses import replace

import numpy as np
import pytest

from aoisched.model import Scenario, UeClass, UeConfig, Variant, validate
from aoisched.presets import (ALPHA_GRID, reference_constrained,
                              reference_weighted)
from aoisched.sim import PolicySpec, RunConfig, lower_bound, run, sweep
from aoisched.solver import compute_t_star, geo_geo1_latency, spacing_bound

BASE_SEED = 7
HORIZON = 10 ** 6
SEEDS = 5
RD_BETA_GRID = [1.2, 1.5, 2.0, 2.5, 3.0]
JOBS = min(4, os.cpu_count() or 1)
FLOOR = geo_geo1_latency(0.8, 0.2)  # 4/3, the latency ue's queueing floor


def _criterion(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _mean(xs):
    xs = list(xs)
    return sum(xs) / len(xs)


@pytest.fixture(scope="module")
def alpha_sweep():
    base = RunConfig(scenario=reference_weighted(), policy=PolicySpec("hier"),
                     horizon=HORIZON, seed=BASE_SEED)
    points = sweep(base, "alpha", ALPHA_GRID, seeds=SEEDS, jobs=JOBS)
    by_alpha = {}
    for pt in points:
        by_alpha.setdefault(pt.value, []).append(pt)
    return by_alpha


@pytest.fixture(scope="module")
def beta_sweep():
    def make(policy):
        base = RunConfig(scenario=reference_constrained(), policy=PolicySpec(policy),
                         horizon=HORIZON, seed=BASE_SEED)
        points = sweep(base, "beta", RD_BETA_GRID, seeds=SEEDS, jobs=JOBS)
        by_beta = {}
        for pt in points:
            by_beta.setdefault(pt.value, []).append(pt)
        return by_beta
    return {"rd": make("rd"), "vw": make("vw")}


@pytest.fixture(scope="module")
def weight_trajectories():
    out = {}
    for beta in (1.0, 5.0):
        scn = reference_constrained(beta=beta)
        runs = []
        for rep in range(3):
            from aoisched.rng import derive_seed
            config = RunConfig(scenario=scn, policy=PolicySpec("vw"),
                               horizon=2 * 10 ** 6, seed=derive_seed(BASE_SEED, 0, rep))
            report = run(config)
            runs.append(report.extras["weight_log"][2])
        out[beta] = runs
    return out


def test_criterion_01_feasibility_gate():
    problems = []
    for alpha in ALPHA_GRID:
        scn = reference_weighted(alpha=alpha)
        rep = validate(scn)
        expected = 0.2 / 0.8 + alpha / 0.9
        if not rep.feasible:
            problems.append(f"alpha={alpha} reported infeasible")
        if abs(rep.load - expected) > 2 * np.spacing(expected):
            problems.append(f"alpha={alpha} load {rep.load!r} != {expected!r}")
        if rep.zeta + rep.load != 1.0 and abs(rep.zeta - (1 - rep.load)) > np.spacing(1.0):
            problems.append(f"alpha={alpha} zeta drift")
    overload = Scenario(ues=(UeConfig(id=3, cls=UeClass.THROUGHPUT, p=0.9, alpha=0.9),),
                        variant=Variant.LATENCY_WEIGHTED)
    if validate(overload).feasible:
        problems.append("load == 1 scenario reported feasible")
    _criterion(1, not problems,
               "feasible on the whole alpha grid, infeasible at load >= 1"
               if not problems else "; ".join(problems))


def test_criterion_02_throughput_structure(alpha_sweep):
    problems = []
    r1_means = []
    plateaus = {}
    for alpha in ALPHA_GRID:
        pts = alpha_sweep[alpha]
        r1 = _mean(pt.report.per_ue[1].throughput for pt in pts)
        r2 = _mean(pt.report.per_ue[2].throughput for pt in pts)
        r3 = _mean(pt.report.per_ue[3].throughput for pt in pts)
        r1_means.append(r1)
        if abs(r2 - 0.2) > 0.01:
            problems.append(f"alpha={alpha}: latency-ue rate {r2:.4f} not 0.2+-0.01")
        if r3 < alpha - 0.01:
            problems.append(f"alpha={alpha}: throughput-ue rate {r3:.4f} < {alpha}-0.01")
        thr = pts[0].report.extras["thresholds"][1]
        plateaus.setdefault(thr, []).append(r1)
    # within a plateau the rate is constant in law, so monotonicity is
    # checked up to the plateau tolerance; across plateaus it must drop
    for a, b in zip(r1_means, r1_means[1:]):
        if b > a + 0.005:
            problems.append(f"aoi-ue rate increased along the grid: {a:.4f} -> {b:.4f}")
    plateau_means = [_mean(v) for _, v in sorted(plateaus.items())]
    for a, b in zip(plateau_means, plateau_means[1:]):
        if b >= a:
            problems.append(f"plateau means not decreasing: {a:.4f} -> {b:.4f}")
    for thr, values in plateaus.items():
        if max(values) - min(values) >= 0.01:
            problems.append(f"threshold {thr}: plateau spread {max(values) - min(values):.4f}")
    detail = (f"r1 along grid: {' '.join(f'{x:.4f}' for x in r1_means)}; "
              f"plateaus {sorted(plateaus)}")
    _criterion(2, not problems, detail if not problems else "; ".join(problems))


def test_criterion_03_spacing_laws(alpha_sweep):
    pts = alpha_sweep[0.2]
    t_star = pts[0].report.extras["t_star"][1]
    thr = pts[0].report.extras["thresholds"][1]
    predicted_mean = thr + 1 / 0.9
    t_bars = [pt.report.per_ue[1].t_bar for pt in pts]
    delta_sqs = [pt.report.per_ue[1].delta_sq for pt in pts]
    problems = []
    for tb in t_bars:
        if not (t_star <= tb < t_star + 1):
            problems.append(f"t_bar {tb:.4f} outside [{t_star:.4f}, {t_star + 1:.4f})")
    mean_tb = _mean(t_bars)
    if abs(mean_tb - predicted_mean) > 0.02 * predicted_mean:
        problems.append(f"t_bar mean {mean_tb:.4f} not {predicted_mean:.4f}+-2%")
    mean_dsq = _mean(delta_sqs)
    law = (1 - 0.9) / 0.9 ** 2
    if abs(mean_dsq - law) > 0.10 * law:
        problems.append(
            f"spacing variance {mean_dsq:.4f} not {law:.5f}+-10%: delivered-packet "
            f"spacing couples to service delay once retained packets are refreshed "
            f"by newer arrivals (the gated-arrival law holds for eligibility epochs, "
            f"not deliveries)")
    detail = f"t_bar mean {mean_tb:.4f} (predicted {predicted_mean:.4f}), delta_sq {mean_dsq:.4f}"
    _criterion(3, not problems, detail if not problems else "; ".join(problems))


def test_criterion_04_spacing_throughput_identity(alpha_sweep):
    worst = 0.0
    checked = 0
    for pts in alpha_sweep.values():
        for pt in pts:
            for s in pt.report.per_ue.values():
                if s.deliveries >= 10 ** 3 and s.t_bar:
                    rel = abs(s.t_bar - 1 / s.throughput) / s.t_bar
                    worst = max(worst, rel)
                    checked += 1
    _criterion(4, worst < 0.01,
               f"worst relative gap {worst:.2e} over {checked} ue-runs")


def test_criterion_05_decomposition_audit(alpha_sweep):
    worst = 0.0
    for pts in alpha_sweep.values():
        for pt in pts:
            residual = pt.report.audit[1]
            rel = residual / pt.report.per_ue[1].avg_aoi
            worst = max(worst, rel)
    _criterion(5, worst < 0.01, f"worst residual {worst:.2e} of avg age")


def test_criterion_06_cost_dominates_bound(alpha_sweep):
    problems = []
    gaps = {}
    # the simulated latency floor ignores alpha: simulate it once
    floor = lower_bound(reference_weighted(), horizon=HORIZON, seed=BASE_SEED, seeds=2)
    for alpha in ALPHA_GRID:
        pts = alpha_sweep[alpha]
        cost = _mean(pt.report.cost_objective for pt in pts)
        bound = replace(floor, lb_f1=spacing_bound(reference_weighted(alpha=alpha)))
        if cost < bound.lb:
            problems.append(f"alpha={alpha}: cost {cost:.4f} < lb {bound.lb:.4f}")
        gaps[alpha] = (cost - bound.lb) / bound.lb
    if gaps[0.6] >= gaps[0.1]:
        problems.append(f"gap did not shrink: {gaps[0.1]:.3f} -> {gaps[0.6]:.3f}")
    detail = f"relative gap {gaps[0.1]:.3f} at alpha=0.1 -> {gaps[0.6]:.3f} at alpha=0.6"
    _criterion(6, not problems, detail if not problems else "; ".join(problems))


def test_criterion_07_randomised_latency(beta_sweep):
    problems = []
    measured = {}
    for beta in RD_BETA_GRID:
        pts = beta_sweep["rd"][beta]
        lbar = _mean(pt.report.per_ue[2].avg_latency for pt in pts)
        measured[beta] = lbar
        if beta < FLOOR:
            if abs(lbar - FLOOR) > 0.03 * FLOOR:
                problems.append(f"beta={beta}: latency {lbar:.4f} not {FLOOR:.4f}+-3%")
        elif abs(lbar - beta) > 0.05 * beta:
            problems.append(f"beta={beta}: latency {lbar:.4f} not {beta}+-5%")
    detail = " ".join(f"{b}:{v:.3f}" for b, v in measured.items())
    _criterion(7, not problems, detail if not problems else "; ".join(problems))


def test_criterion_08_virtual_weight_dynamics(weight_trajectories):
    problems = []
    for trajectory in weight_trajectories[1.0]:
        first = next((i + 1 for i, r in enumerate(trajectory) if r > 50.0), None)
        if first is None or first > 200:
            peak = max(trajectory[:200])
            problems.append(
                f"beta=1: weight reached only {peak:.2f} within 200 updates (the "
                f"per-update step is eta*(avg latency - beta) and the average "
                f"latency of a prioritised queue sits near {FLOOR:.2f}, capping "
                f"growth near 0.035 per update)")
            break
    for trajectory in weight_trajectories[1.0]:
        if any(b < a for a, b in zip(trajectory, trajectory[1:])):
            problems.append("beta=1: weight decreased between updates")
            break
    for trajectory in weight_trajectories[5.0]:
        first0 = next((i for i, r in enumerate(trajectory) if r == 0.0), None)
        if first0 is None:
            problems.append("beta=5: weight never reached 0")
        elif any(r != 0.0 for r in trajectory[first0:]):
            problems.append("beta=5: weight left 0 after collapsing")
    detail = (f"beta=1 peak within 200 updates: "
              f"{max(weight_trajectories[1.0][0][:200]):.2f}; beta=5 collapses to 0")
    _criterion(8, not problems, detail if not problems else "; ".join(problems))


def test_criterion_09_throughput_invariance(alpha_sweep, beta_sweep):
    problems = []
    hier_r3 = _mean(pt.report.per_ue[3].throughput for pt in alpha_sweep[0.2])
    if hier_r3 < 0.19:
        problems.append(f"hier: throughput-ue rate {hier_r3:.4f} < 0.19")
    for policy in ("vw", "rd"):
        for ue in (1, 2, 3):
            values = [_mean(pt.report.per_ue[ue].throughput for pt in beta_sweep[policy][b])
                      for b in RD_BETA_GRID]
            if ue == 3 and min(values) < 0.19:
                problems.append(f"{policy}: throughput-ue rate {min(values):.4f} < 0.19")
            if max(values) - min(values) >= 0.01:
                problems.append(f"{policy} ue {ue}: spread {max(values) - min(values):.4f}")
    for beta in RD_BETA_GRID:
        for ue in (1, 2, 3):
            a = _mean(pt.report.per_ue[ue].throughput for pt in beta_sweep["vw"][beta])
            b = _mean(pt.report.per_ue[ue].throughput for pt in beta_sweep["rd"][beta])
            if abs(a - b) > 0.01:
                problems.append(f"beta={beta} ue {ue}: vw {a:.4f} vs rd {b:.4f}")
    _criterion(9, not problems,
               "rates beta-invariant and matched across policies"
               if not problems else "; ".join(problems))


def test_criterion_10_attempt_share(alpha_sweep):
    share = _mean(pt.report.per_ue[3].attempts_share for pt in alpha_sweep[0.2])
    floor = 0.2 / 0.9 - 0.01
    _criterion(10, share >= floor,
               f"throughput-tier attempt share {share:.4f} >= {floor:.4f}")


def test_criterion_11_solver_oracles(spacing_objective, spacing_oracle):
    problems = []
    rng = np.random.default_rng(1234)
    checked = 0
    for case in range(20):
        n = int(rng.integers(1, 4))
        ues = [UeConfig(id=i + 1, cls=UeClass.AOI,
                        q=float(rng.uniform(0.05, 1.0)),
                        p=float(rng.uniform(0.3, 1.0)),
                        rho=float(rng.uniform(0.2, 3.0))) for i in range(n)]
        zeta = float(rng.uniform(0.15, 0.9))
        sol = compute_t_star(ues, zeta)
        ours = spacing_objective(ues, sol.t_star)
        if n == 1:
            u = ues[0]
            c = (1 - u.q) / u.q ** 2
            candidates = [1.0 + k * 1e-3 for k in range(199000 + 1)]
            candidates.append(max(1.0, 1 / (u.p * zeta)))
            oracle = min(0.5 * u.rho * (t + c / t) for t in candidates
                         if 1 / (u.p * t) <= zeta + 1e-12)
        else:
            oracle = spacing_oracle(ues, zeta)
        if abs(ours - oracle) > 1e-4:
            problems.append(f"case {case} (n={n}): {ours:.6f} vs oracle {oracle:.6f}")
        checked += 1

    # queue formula against a dedicated single-queue simulation
    for q, p in ((0.2, 0.8), (0.3, 0.9)):
        rng_q = np.random.default_rng(99)
        horizon = 10 ** 6
        arr = rng_q.random(horizon + 1) < q
        srv = rng_q.random(horizon + 1) < p
        queue = []
        total = delivered = 0
        for t in range(1, horizon + 1):
            if arr[t]:
                queue.append(t)
            if queue and srv[t]:
                total += t - queue.pop(0) + 1
                delivered += 1
        for g in queue:
            total += horizon - g + 1
            delivered += 1
        sim_latency = total / delivered
        formula = geo_geo1_latency(p, q)
        if abs(sim_latency - formula) > 0.02 * formula:
            problems.append(f"queue q={q} p={p}: sim {sim_latency:.4f} vs {formula:.4f}")
    _criterion(11, not problems,
               f"{checked} spacing instances within 1e-4 of oracles; queue formula within 2%"
               if not problems else "; ".join(problems))


def test_criterion_12_determinism(tmp_path):
    from aoisched.cli import main
    from aoisched.model import save_scenario
    path = tmp_path / "ref.json"
    save_scenario(reference_weighted(), path)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["run", str(path), "--horizon", "200000", "--seed", "11", "--out", str(a)])
    main(["run", str(path), "--horizon", "200000", "--seed", "11", "--out", str(b)])
    byte_identical = a.read_bytes() == b.read_bytes()

    horizon = 10 ** 5
    rh = run(RunConfig(scenario=reference_weighted(), policy=PolicySpec("hier"),
                       horizon=horizon, seed=21))
    rv = run(RunConfig(scenario=reference_constrained(), policy=PolicySpec("vw"),
                       horizon=horizon, seed=21))
    rr = run(RunConfig(scenario=reference_constrained(), policy=PolicySpec("rd"),
                       horizon=horizon, seed=21))
    matched = all(rh.per_ue[ue].arrivals == rv.per_ue[ue].arrivals ==
                  rr.per_ue[ue].arrivals for ue in (1, 2))
    _criterion(12, byte_identical and matched,
               "byte-identical CSV and matched arrival traces across policies")
