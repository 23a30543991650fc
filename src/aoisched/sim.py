"""The slotted-time engine.

Per-slot order of operations (normative):

1. virtual-weight step, when due;
2. Bernoulli arrivals for non-throughput UEs, ascending id (throughput UEs
   are perpetually backlogged and consume no draws);
3. age accumulation (before this slot's delivery is recorded);
4. policy index update, then selection (the randomised policy consumes its
   per-slot uniform here);
5. on a transmission, one success draw against the served UE's p, then
   metrics and policy outcome hooks.

Identical ``RunConfig`` values produce bit-identical reports.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from .metrics import RunReport, UeMetrics, aoi_decomposition_audit, assemble_cost
from .model import (FeasibilityReport, Scenario, ScenarioError, UeClass,
                    Variant, replace_param, validate)
from .policies import (CmuPolicy, HierarchicalPolicy, RandomizedPolicy,
                       thresholds_for)
from .rng import derive_seed, rng_contract, substreams
from .solver import SolverError

__all__ = ["PolicySpec", "RunConfig", "SweepPoint", "run", "sweep", "sweep_target",
           "derive_seed", "rng_contract"]

POLICY_NAMES = ("hier", "vw", "rd", "cmu")


@dataclass(frozen=True)
class PolicySpec:
    name: str
    f: int = 10000
    eta: float = 0.1


@dataclass(frozen=True)
class RunConfig:
    scenario: Scenario
    policy: PolicySpec
    horizon: int
    seed: int
    warmup: int = 0


def build_policy(config: RunConfig):
    """Construct the policy plus solver metadata for the report."""
    scenario = config.scenario
    name = config.policy.name
    if name not in POLICY_NAMES:
        raise ScenarioError(f"unknown policy {name!r}")
    extras: dict = {}
    if name == "cmu":
        return CmuPolicy(scenario), extras

    report = validate(scenario)
    if scenario.aoi_ues and report.zeta <= 0.0:
        raise SolverError(f"no attempt budget left for aoi traffic (zeta={report.zeta})")
    thresholds, sol = thresholds_for(scenario, report.zeta)
    if sol is not None:
        extras["t_star"] = dict(sol.t_star)
        extras["mu"] = sol.mu
        extras["thresholds"] = dict(thresholds)
    if name == "hier":
        if scenario.latency_ues and scenario.variant is not Variant.LATENCY_WEIGHTED:
            raise ScenarioError("policy 'hier' needs latency weights; use 'vw' or 'rd' "
                                "with latency ceilings")
        return HierarchicalPolicy(scenario, thresholds), extras
    if name == "vw":
        if scenario.latency_ues and scenario.variant is not Variant.LATENCY_CONSTRAINED:
            raise ScenarioError("policy 'vw' needs latency ceilings (beta)")
        return HierarchicalPolicy(scenario, thresholds,
                                  f=config.policy.f, eta=config.policy.eta), extras
    return RandomizedPolicy(scenario, thresholds), extras


def run(config: RunConfig) -> RunReport:
    scenario = config.scenario
    horizon = config.horizon
    if horizon < 1:
        raise ScenarioError(f"horizon must be >= 1, got {horizon}")
    if not 0 <= config.warmup < horizon:
        raise ScenarioError(f"warmup must be in [0, horizon), got {config.warmup}")
    policy, extras = build_policy(config)

    ues = sorted(scenario.ues, key=lambda u: u.id)
    non_thr = [u for u in ues if u.cls is not UeClass.THROUGHPUT]
    p_of = {u.id: u.p for u in ues}
    metrics = {
        u.id: UeMetrics(u.id, is_aoi=(u.cls is UeClass.AOI),
                        track_pending=(u.cls is UeClass.LATENCY))
        for u in ues
    }
    lat_ids = [u.id for u in ues if u.cls is UeClass.LATENCY]

    arrival_gens, policy_gen, success_gen = substreams(config.seed, len(non_thr))
    arrival_bits = [
        (gen.random(horizon + 1) < u.q).view("u1").tobytes()
        for u, gen in zip(non_thr, arrival_gens)
    ]
    success_u = success_gen.random(horizon + 1).tolist()
    policy_u = policy_gen.random(horizon + 1).tolist() if policy.needs_draw else None

    arr_track = [(u.id, bits, metrics[u.id]) for u, bits in zip(non_thr, arrival_bits)]
    aoi_ms = [metrics[u.id] for u in ues if u.cls is UeClass.AOI]
    weight_every = policy.f if getattr(policy, "virtual", False) else 0
    warm_end = config.warmup

    arrived: list[int] = []
    for t in range(1, horizon + 1):
        if weight_every and t % weight_every == 0:
            policy.update_virtual_weights({j: metrics[j].latency_now(t) for j in lat_ids})
        arrived.clear()
        for uid, bits, m in arr_track:
            if bits[t]:
                m.on_arrival(t)
                arrived.append(uid)
        for m in aoi_ms:
            m.aoi_sum += t - m.lam
        policy.update_index(t, arrived)
        action = policy.select(t, policy_u[t]) if policy_u is not None else policy.select(t)
        if action is not None:
            m = metrics[action.ue_id]
            m.attempts += 1
            success = success_u[t] < p_of[action.ue_id]
            if success:
                m.on_delivery(action.g, t)
            policy.on_outcome(action, success, t)
        if t == warm_end:
            for m in metrics.values():
                m.reset_window()

    effective = horizon - config.warmup
    retained = policy.pending_aoi_packets()
    per_ue = {}
    for u in ues:
        extra = (retained[u.id],) if u.id in retained else ()
        per_ue[u.id] = metrics[u.id].finalize(effective, u.cls, extra_pending=extra)

    cost, f1, f2 = assemble_cost(per_ue, scenario, effective)
    audit = {}
    for u in scenario.aoi_ues:
        res = aoi_decomposition_audit(per_ue[u.id], effective)
        if res is not None:
            audit[u.id] = res
    if getattr(policy, "virtual", False):
        extras["weight_log"] = list(policy.weight_log)
    return RunReport(policy=policy.name, seed=config.seed, horizon=horizon,
                     per_ue=per_ue, cost_objective=cost, f1=f1, f2=f2,
                     audit=audit, extras=extras)


@dataclass(frozen=True)
class SweepPoint:
    param: str
    value: float
    replicate: int
    seed: int
    feasibility: FeasibilityReport
    runnable: bool
    report: RunReport | None


def sweep_target(scenario: Scenario, param: str, ue_id: int | None) -> int:
    """Id of the UE whose ``param`` a sweep varies: ``ue_id``, or the only candidate."""
    cls = {"alpha": UeClass.THROUGHPUT, "beta": UeClass.LATENCY}.get(param)
    if cls is None:
        raise ScenarioError(f"sweep param must be 'alpha' or 'beta', got {param!r}")
    candidates = [u.id for u in scenario.by_class(cls)]
    if ue_id is not None:
        if ue_id not in candidates:
            raise ScenarioError(f"ue {ue_id} is not a {cls.value} ue")
        return ue_id
    if len(candidates) != 1:
        raise ScenarioError(f"param {param!r} is ambiguous: {cls.value} ues {candidates}; "
                            "name a ue id")
    return candidates[0]


def _run_worker(config: RunConfig) -> RunReport:
    return run(config)


def sweep(base: RunConfig, param: str, grid: list[float], seeds: int,
          ue_id: int | None = None, jobs: int = 1) -> list[SweepPoint]:
    """Grid x replicates of runs; reports merge in grid order.

    Grid values that leave no attempt budget for AoI traffic are reported
    as infeasible points, not silently skipped.  Points still runnable
    (for instance a latency ceiling below its queueing floor) run normally
    and carry their feasibility flags.
    """
    target = sweep_target(base.scenario, param, ue_id)
    points: list[tuple[int, float, int, RunConfig | None, FeasibilityReport]] = []
    for i, value in enumerate(grid):
        scn = replace_param(base.scenario, target, **{param: value})
        feas = validate(scn)
        runnable = feas.zeta > 0.0 or not scn.aoi_ues
        for r in range(seeds):
            seed = derive_seed(base.seed, i, r)
            cfg = replace(base, scenario=scn, seed=seed) if runnable else None
            points.append((i, value, r, cfg, feas))

    configs = [cfg for _, _, _, cfg, _ in points if cfg is not None]
    if jobs > 1 and len(configs) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(_run_worker, configs))
    else:
        reports = [run(cfg) for cfg in configs]

    out: list[SweepPoint] = []
    it = iter(reports)
    for i, value, r, cfg, feas in points:
        report = next(it) if cfg is not None else None
        out.append(SweepPoint(param=param, value=value, replicate=r,
                              seed=cfg.seed if cfg else derive_seed(base.seed, i, r),
                              feasibility=feas, runnable=cfg is not None,
                              report=report))
    return out
