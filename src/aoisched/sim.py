"""The slotted-time engine.

Per-slot order of operations (normative):

1. virtual-weight step, when due;
2. Bernoulli arrivals, one draw of each arrival stream (``rng`` lays
   the streams out);
3. policy index update, then selection (the randomised policy consumes its
   per-slot uniform here);
4. on a transmission, one success draw against the served UE's p, then the
   policy outcome hook; a success is logged for the metrics.

Draws are taken in blocks of ``CHUNK`` slots, so memory does not grow with
the horizon.  Under ``hier`` and ``vw`` each block is cut into segments at
weight steps and at the warm-up's last slot; under ``rd`` and ``cmu`` only
at the warm-up's last slot.

Under every policy, one compiled call per block draws the arrival
streams into the policy's ``store`` (``kernel.QueueStore.draw``), from the
states seeded once per run for the streams that store lists
(``rng.stream_states``).  Under ``rd`` and ``cmu`` the same call draws the
success uniforms, and ``rd``'s policy uniforms; under ``hier`` and ``vw``
the success generator's ``random`` draws them.

``hier`` and ``vw`` are driven slot by slot.  A block's draws stay in numpy
buffers, read in place: the loop walks a memoryview of the success
uniforms and a table that points each slot to a tuple of the positions
arriving there, shared among slots.  The engine calls a policy hook only
where it has work: the index update on slots with arrivals, the outcome
hook on successes and throughput attempts.  The per-UE statistics are not
updated slot by slot: each block's arrivals and logged deliveries are
folded once per block, and at the warm-up boundary, in slot order, and
each fold closes an AoI UE's age up to its end (see ``metrics.UeMetrics``);
a weight step reads the folded totals plus the events logged since, and
the latency queues from the policy, and hands the latencies to the policy
in its ``lat`` order; the policy appends each new weight to that UE's
``array('d')``, the report's ``extras["weight_log"]``.

``rd`` and ``cmu`` run in compiled code in the same per-slot order, so they
read the same draws and give the same report as a slot-by-slot run (see
``policies.RandomizedPolicy`` and ``policies.CmuPolicy``).  Each policy
owns its block's buffers and binds them, with every address its kernels
take, once, when it is built; per block the engine makes two calls:
``update_index`` draws the block, enqueueing the arrivals and writing the
success uniforms, and ``rd``'s policy uniforms, into the policy's buffer in
the same call, and ``select`` serves the block in one kernel call, two in
the block where the warm-up ends; both kernels read the store's queues
first-in-first-out, ``cmu`` through a tournament tree over the queue heads
in rank order, ``rd`` through a timing wheel over the call's slots.  The
kernels count each UE's arrivals and add up its deliveries (and, under
``rd``, its age) themselves, a row per UE that ``on_outcome`` hands to
``metrics.add_sums`` once per window, where the warm-up ends and at the
horizon, closing the window.  So no ``UeMetrics`` fold runs.

Under every policy the queues and retained packets hold the backlog: after
either loop the engine passes the policy's ``backlog()`` to ``finalize``.

Identical ``RunConfig`` values produce bit-identical reports.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, replace

import numpy as np

from .kernel import CHUNK
from .metrics import RunReport, UeMetrics, aoi_decomposition_audit, assemble_cost
from .model import (FeasibilityReport, Scenario, ScenarioError, UeClass,
                    Variant, check_structure, replace_param, validate)
from .policies import (CmuPolicy, HierarchicalPolicy, RandomizedPolicy,
                       thresholds_for)
from .rng import derive_seed, stream_states, substreams
from .solver import spacing_bound

__all__ = ["PolicySpec", "RunConfig", "SweepPoint", "LowerBound", "run", "sweep",
           "sweep_target", "lower_bound", "derive_seed"]

POLICY_NAMES = ("hier", "vw", "rd", "cmu")


@dataclass(frozen=True)
class PolicySpec:
    """Policy name, plus the weight period ``f`` and step ``eta`` that only
    ``vw`` uses."""

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
    """Construct the policy plus the report's extras: solver metadata and,
    under ``vw``, the policy's live ``weight_log``."""
    scenario = config.scenario
    spec = config.policy
    if spec.name not in POLICY_NAMES:
        raise ScenarioError(f"unknown policy {spec.name!r}")
    extras: dict = {}
    if spec.name == "cmu":
        check_structure(scenario)
        return CmuPolicy(scenario), extras

    thresholds, sol = thresholds_for(scenario, validate(scenario).zeta)
    if sol is not None:
        extras["t_star"] = dict(sol.t_star)
        extras["mu"] = sol.mu
        extras["thresholds"] = dict(thresholds)
    if spec.name == "hier":
        return HierarchicalPolicy(scenario, thresholds), extras
    if spec.name == "vw":
        policy = HierarchicalPolicy(scenario, thresholds, f=spec.f, eta=spec.eta)
        extras["weight_log"] = policy.weight_log
        return policy, extras
    return RandomizedPolicy(scenario, thresholds), extras


def _arrivals(n: int, start: int, lists) -> list[tuple[int, ...] | None]:
    """Positions arriving in each of the ``n`` slots from ``start`` on,
    ascending, or None, from each ``(position, arrival slots)`` of
    ``lists``.

    Slots that see the same positions share one tuple, so the block costs
    about a pointer per slot.
    """
    slots: list[tuple[int, ...] | None] = [None] * n
    for pos, hit in lists:
        alone = (pos,)
        grown: dict[tuple[int, ...], tuple[int, ...]] = {}
        for s in memoryview(hit - start):
            at = slots[s]
            slots[s] = alone if at is None else grown.get(at) or grown.setdefault(at, at + alone)
    return slots


def _segments(lo: int, hi: int, every: int, warm_end: int):
    """Split slots [lo, hi) so each weight-step slot (a multiple of
    ``every``) starts a segment and the warm-up's last slot ends one."""
    cuts = {lo, hi}
    if every:
        cuts.update(range(lo + (-lo) % every, hi, every))
    if lo < warm_end + 1 < hi:
        cuts.add(warm_end + 1)
    cuts = sorted(cuts)
    return zip(cuts, cuts[1:])


def run(config: RunConfig) -> RunReport:
    scenario = config.scenario
    horizon = config.horizon
    check_counts(seed=config.seed)
    if horizon < 1:
        raise ScenarioError(f"horizon must be >= 1, got {horizon}")
    if not 0 <= config.warmup < horizon:
        raise ScenarioError(f"warmup must be in [0, horizon), got {config.warmup}")
    policy, extras = build_policy(config)
    by_block = not isinstance(policy, HierarchicalPolicy)

    ues = scenario.positions
    metrics = [UeMetrics(u.id, u.cls) for u in ues]

    # the policy's arrival streams, then those of its rows of uniforms
    store = policy.store
    states = stream_states(config.seed, store.frame.narr, store.frame.nrows)
    update_index, select, on_outcome = policy.update_index, policy.select, policy.on_outcome
    warm_end = config.warmup

    # Slot 0 is drawn and never used, so slot t is draw t of every stream.
    if by_block:
        # each block is drawn in one call, its arrivals enqueued and its
        # success uniforms, and rd's policy uniforms, written to the
        # policy's buffer; it is served in one call, cut only where the
        # warm-up ends; each window's sums are added at its end
        for start in range(0, horizon + 1, CHUNK):
            n = min(CHUNK, horizon + 1 - start)
            update_index(start, n, states)
            a, b = max(start, 1), start + n
            if a <= warm_end < b:
                select(a, warm_end + 1)
                on_outcome(metrics)
                for m in metrics:
                    m.reset_window()
                a = warm_end + 1
            select(a, b)
        on_outcome(metrics)
    else:
        p_of = [u.p for u in ues]
        log_g = [m.dg.append for m in metrics]
        log_t = [m.dt.append for m in metrics]
        is_thr = [u.cls is UeClass.THROUGHPUT for u in ues]
        every = config.policy.f if policy.name == "vw" else 0
        # each block's arrivals are drawn in one call and listed as queue i
        # of the policy's store (its head stays 0); then its success
        # uniforms, into a buffer of their own
        _, _, success_gen = substreams(config.seed, 0)
        buffer = np.empty(CHUNK)
        arriving = store.pos.tolist()
        for start in range(0, horizon + 1, CHUNK):
            n = min(CHUNK, horizon + 1 - start)
            store.end.fill(0)
            store.draw(start, n, states)
            lists = [(i, store.queues[i][:store.end[i]]) for i in arriving]
            for i, hit in lists:
                metrics[i].log_arrivals(hit)
            # one pass over the block's buffers: each segment's zip takes the
            # next b - a slots (range comes first, so it stops before the rest)
            arrivals = iter(_arrivals(n, start, lists))
            success_u = iter(memoryview(success_gen.random(out=buffer[:n])))
            if start == 0:
                next(arrivals), next(success_u)
            for a, b in _segments(max(start, 1), start + n, every, warm_end):
                if every and a % every == 0:
                    policy.update_virtual_weights(
                        [metrics[i].latency_now(a, policy.queues[i]) for i in policy.lat])
                for t, arrived, u in zip(range(a, b), arrivals, success_u):
                    if arrived is not None:
                        update_index(t, arrived)
                    action = select(t)
                    if action is None:
                        continue
                    i, g = action
                    metrics[i].attempts += 1
                    if u < p_of[i]:
                        log_g[i](g)
                        log_t[i](t)
                        on_outcome(action, True, t)
                    elif is_thr[i]:
                        on_outcome(action, False, t)
                if b - 1 == warm_end:
                    for m in metrics:
                        m.fold(b)
                        m.reset_window()
            for m in metrics:
                m.fold(start + n)

    effective = horizon - config.warmup
    per_ue = {u.id: m.finalize(effective, pending)
              for u, m, pending in zip(ues, metrics, policy.backlog())}

    cost, f1, f2 = assemble_cost(per_ue, scenario, effective)
    audit = {u.id: res for u in scenario.aoi_ues
             if (res := aoi_decomposition_audit(per_ue[u.id], effective)) is not None}
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


def check_counts(seed: int = 0, **counts: int) -> None:
    """Reject a negative ``seed``, or a count (``seeds``, ``jobs``) below 1."""
    if seed < 0:
        raise ScenarioError(f"seed must be >= 0, got {seed}")
    for name, value in counts.items():
        if value < 1:
            raise ScenarioError(f"{name} must be >= 1, got {value}")


def sweep(base: RunConfig, param: str, grid: list[float], seeds: int,
          ue_id: int | None = None, jobs: int = 1) -> list[SweepPoint]:
    """Grid x replicates of runs; reports merge in grid order.

    Grid values that leave no attempt budget for AoI traffic are reported
    as infeasible points, not silently skipped.  Points still runnable
    (for instance a latency ceiling below its queueing floor) run normally
    and carry their feasibility flags.  At most ``jobs`` worker processes
    run them, and never more than there are runnable points.
    """
    check_counts(seed=base.seed, seeds=seeds, jobs=jobs)
    target = sweep_target(base.scenario, param, ue_id)
    points: list[SweepPoint] = []
    configs: list[RunConfig] = []
    for i, value in enumerate(grid):
        scn = replace_param(base.scenario, target, **{param: value})
        feas = validate(scn)
        runnable = feas.zeta > 0.0 or not scn.aoi_ues
        for r in range(seeds):
            seed = derive_seed(base.seed, i, r)
            points.append(SweepPoint(param, value, r, seed, feas, runnable, None))
            if runnable:
                configs.append(replace(base, scenario=scn, seed=seed))

    workers = min(jobs, len(configs))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(run, configs))
    else:
        reports = [run(cfg) for cfg in configs]
    it = iter(reports)
    return [replace(pt, report=next(it)) if pt.runnable else pt for pt in points]


@dataclass(frozen=True)
class LowerBound:
    lb_f1: float
    lb_f2: float

    @property
    def lb(self) -> float:
        return self.lb_f1 + self.lb_f2


def lower_bound(scenario: Scenario, horizon: int, seed: int, seeds: int = 1) -> LowerBound:
    """Cost floor: optimal spacing bound for AoI UEs plus a simulated
    latency-only floor.

    The first part is ``solver.spacing_bound``.  The second part simulates
    the latency UEs alone under the weighted-rate rule (``cmu``: serve the
    nonempty queue maximising rho*p/q), which is optimal for the
    weighted-latency objective, and averages the result over ``seeds``
    replicate runs using the standard seed-derivation scheme.  That floor
    depends only on the latency UEs, ``horizon``, ``seed`` and ``seeds``,
    never on a throughput UE's ``alpha``.
    """
    check_counts(seed=seed, seeds=seeds)
    lb_f1 = spacing_bound(scenario)
    lb_f2 = 0.0
    lat = scenario.latency_ues
    if lat:
        sub = Scenario(ues=lat, variant=Variant.LATENCY_WEIGHTED)
        total = 0.0
        for rep in range(seeds):
            config = RunConfig(scenario=sub, policy=PolicySpec("cmu"),
                               horizon=horizon, seed=derive_seed(seed, 0, rep))
            total += run(config).f2
        lb_f2 = total / seeds
    return LowerBound(lb_f1=lb_f1, lb_f2=lb_f2)
