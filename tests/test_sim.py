import concurrent.futures
import math
import tracemalloc

import numpy as np
import pytest

from aoisched import metrics, rng, sim
from aoisched.metrics import UeMetrics, report_rows
from aoisched.model import Scenario, ScenarioError, UeClass, UeConfig, Variant
from aoisched.policies import CmuPolicy
from aoisched.rng import derive_seed
from aoisched.sim import CHUNK, PolicySpec, RunConfig, lower_bound, run, sweep
from aoisched.solver import SolverError
from cmu_oracle import run_slots
from numpy_streams import numpy_substreams


def weighted(alpha=0.2):
    return Scenario(ues=(
        UeConfig(id=1, cls=UeClass.AOI, q=0.9, p=0.7, rho=1.0),
        UeConfig(id=2, cls=UeClass.LATENCY, q=0.2, p=0.8, rho=1.0),
        UeConfig(id=3, cls=UeClass.THROUGHPUT, p=0.9, alpha=alpha),
    ), variant=Variant.LATENCY_WEIGHTED)


def constrained(beta=2.0):
    return Scenario(ues=(
        UeConfig(id=1, cls=UeClass.AOI, q=0.9, p=0.7, rho=1.0),
        UeConfig(id=2, cls=UeClass.LATENCY, q=0.2, p=0.8, beta=beta),
        UeConfig(id=3, cls=UeClass.THROUGHPUT, p=0.9, alpha=0.2),
    ), variant=Variant.LATENCY_CONSTRAINED)


def latency_only():
    return Scenario(ues=(
        UeConfig(id=2, cls=UeClass.LATENCY, q=0.2, p=0.8, rho=1.0),
        UeConfig(id=4, cls=UeClass.LATENCY, q=0.3, p=0.9, rho=2.0),
    ), variant=Variant.LATENCY_WEIGHTED)


def cfg(scenario, policy="hier", horizon=10 ** 5, seed=1, **kw):
    return RunConfig(scenario=scenario, policy=PolicySpec(policy, **kw),
                     horizon=horizon, seed=seed)


# -- base cases ----------------------------------------------------------------

def test_single_slot_no_arrival():
    scn = Scenario(ues=(UeConfig(id=1, cls=UeClass.AOI, q=0.9, p=0.7, rho=1.0),),
                   variant=Variant.LATENCY_WEIGHTED)
    # pick a seed whose first draw is above q so no packet arrives
    for seed in range(50):
        gens, _, _ = numpy_substreams(seed, 1)
        if gens[0].random(2)[1] >= 0.9:
            break
    report = run(RunConfig(scenario=scn, policy=PolicySpec("hier"), horizon=1, seed=seed))
    stats = report.per_ue[1]
    assert stats.avg_aoi == 1.0   # age 1 with the virtual origin delivery
    assert stats.throughput == 0.0


def test_deterministic_saturation():
    # q=1, p=1 single latency ue: served every slot at latency exactly 1
    scn = Scenario(ues=(UeConfig(id=2, cls=UeClass.LATENCY, q=1.0, p=1.0, rho=1.0),),
                   variant=Variant.LATENCY_WEIGHTED)
    report = run(cfg(scn, horizon=1000))
    stats = report.per_ue[2]
    assert stats.avg_latency == 1.0
    assert stats.throughput == 1.0


def test_invalid_horizon_rejected():
    with pytest.raises(ScenarioError):
        run(RunConfig(scenario=weighted(), policy=PolicySpec("hier"), horizon=0, seed=1))


def test_policy_variant_mismatch_rejected():
    with pytest.raises(ScenarioError):
        run(cfg(weighted(), policy="vw", horizon=10))
    with pytest.raises(ScenarioError):
        run(cfg(constrained(), policy="hier", horizon=10))
    with pytest.raises(ScenarioError):
        run(cfg(weighted(), policy="rd", horizon=10))
    with pytest.raises(ScenarioError):
        run(cfg(weighted(), policy="cmu", horizon=10))


@pytest.mark.parametrize("field, value, message", [("q", 1.5, "q must be in"),
                                                     ("rho", -1.0, "requires rho > 0")])
@pytest.mark.parametrize("policy", ["cmu", "hier"])
def test_a_malformed_latency_ue_is_rejected_under_every_policy(field, value, message, policy):
    # cmu checks the structure, as validate does for the other policies and
    # lower_bound, so it runs no system with q above 1 or a negative weight
    ue = dict(id=2, cls=UeClass.LATENCY, q=0.2, p=0.8, rho=1.0)
    scn = Scenario(ues=(UeConfig(**{**ue, field: value}),), variant=Variant.LATENCY_WEIGHTED)
    with pytest.raises(ScenarioError, match=message):
        run(cfg(scn, policy=policy, horizon=1000))
    with pytest.raises(ScenarioError, match=message):
        lower_bound(scn, horizon=1000, seed=1)


@pytest.mark.parametrize("f", [0, -3])
def test_vw_weight_period_below_one_rejected(f):
    with pytest.raises(ScenarioError, match="weight period"):
        run(cfg(constrained(), policy="vw", horizon=40000, f=f))


@pytest.mark.parametrize("eta", [0.0, -0.1, math.nan, math.inf])
def test_vw_weight_step_must_be_positive_and_finite(eta):
    with pytest.raises(ScenarioError, match="weight step eta"):
        run(cfg(constrained(), policy="vw", horizon=40000, f=1000, eta=eta))


@pytest.mark.parametrize("seeds", [0, -1])
def test_seeds_below_one_rejected(seeds):
    with pytest.raises(ScenarioError, match="seeds must be >= 1"):
        sweep(cfg(weighted(), horizon=1000), "alpha", [0.1], seeds=seeds)
    with pytest.raises(ScenarioError, match="seeds must be >= 1"):
        lower_bound(weighted(), horizon=1000, seed=1, seeds=seeds)


def test_no_budget_for_aoi_traffic_rejected():
    # load >= 1 with an aoi ue present cannot size the spacing program
    scn = weighted(alpha=0.72)  # 0.25 + 0.8 = 1.05 > 1
    with pytest.raises(SolverError):
        run(cfg(scn, horizon=10))


# -- determinism -----------------------------------------------------------------

def test_identical_config_identical_report():
    a = run(cfg(weighted(), horizon=2 * 10 ** 4))
    b = run(cfg(weighted(), horizon=2 * 10 ** 4))
    assert a == b


def test_identical_config_byte_identical_csv():
    a = run(cfg(weighted(), horizon=2 * 10 ** 4))
    b = run(cfg(weighted(), horizon=2 * 10 ** 4))
    rows_a = report_rows(a, "x")
    rows_b = report_rows(b, "x")
    assert rows_a == rows_b


def test_different_seed_different_trace():
    a = run(cfg(weighted(), horizon=10 ** 4, seed=1))
    b = run(cfg(weighted(), horizon=10 ** 4, seed=2))
    assert a.per_ue[1].arrivals != b.per_ue[1].arrivals or \
        a.per_ue[1].throughput != b.per_ue[1].throughput


def test_matched_seed_same_arrivals_across_policies():
    rv = run(cfg(constrained(), policy="vw", horizon=5 * 10 ** 4, seed=9))
    rr = run(cfg(constrained(), policy="rd", horizon=5 * 10 ** 4, seed=9))
    for ue in (1, 2):
        assert rv.per_ue[ue].arrivals == rr.per_ue[ue].arrivals
    # and against the weighted twin under the deterministic policy
    rh = run(cfg(weighted(), policy="hier", horizon=5 * 10 ** 4, seed=9))
    for ue in (1, 2):
        assert rh.per_ue[ue].arrivals == rv.per_ue[ue].arrivals


def test_seed_derivation_is_stable_and_spread():
    s1 = derive_seed(42, 0, 0)
    assert s1 == derive_seed(42, 0, 0)
    assert len({derive_seed(42, i, r) for i in range(5) for r in range(5)}) == 25


def test_rng_contract_is_documented():
    text = rng.__doc__
    assert "arrivals" in text and "success" in text


# -- statistical sanity ------------------------------------------------------------

def test_empirical_rates_within_three_sigma():
    horizon = 10 ** 6
    report = run(cfg(weighted(), horizon=horizon, seed=13))
    for ue, q in ((1, 0.9), (2, 0.2)):
        n = report.per_ue[ue].arrivals
        sigma = math.sqrt(q * (1 - q) * horizon)
        assert abs(n - q * horizon) <= 3 * sigma
    # success rate conditioned on attempts
    for ue, p in ((1, 0.7), (2, 0.8), (3, 0.9)):
        attempts = report.per_ue[ue].attempts
        deliveries = report.per_ue[ue].deliveries
        sigma = math.sqrt(p * (1 - p) * attempts)
        assert abs(deliveries - p * attempts) <= 3 * sigma


def test_one_transmission_per_slot():
    horizon = 10 ** 5
    report = run(cfg(weighted(), horizon=horizon))
    assert sum(s.attempts for s in report.per_ue.values()) <= horizon


def test_spacing_throughput_identity():
    report = run(cfg(weighted(), horizon=10 ** 6, seed=3))
    for ue in (1, 2, 3):
        s = report.per_ue[ue]
        if s.deliveries >= 1000:
            assert abs(s.t_bar - 1 / s.throughput) / s.t_bar < 0.01


def test_deterministic_slot_sharing():
    # q=1, p=1 aoi ue with a throughput ue: zeta=0.99 forces spacing 1/0.99,
    # threshold 1, so the aoi ue transmits exactly every other slot and the
    # throughput tier gets the rest; ages alternate 1, 2
    scn = Scenario(ues=(
        UeConfig(id=1, cls=UeClass.AOI, q=1.0, p=1.0, rho=1.0),
        UeConfig(id=3, cls=UeClass.THROUGHPUT, p=1.0, alpha=0.01),
    ), variant=Variant.LATENCY_WEIGHTED)
    report = run(cfg(scn, horizon=1000))
    assert report.per_ue[1].attempts == 500
    assert report.per_ue[3].attempts == 500
    assert report.per_ue[1].t_bar == 2.0
    assert report.per_ue[1].delta_sq == 0.0
    assert report.per_ue[1].avg_aoi == pytest.approx(1.5)


def test_warmup_excludes_early_slots():
    scn = weighted()
    full = run(cfg(scn, horizon=10 ** 5))
    warm = run(RunConfig(scenario=scn, policy=PolicySpec("hier"),
                         horizon=10 ** 5, seed=1, warmup=10 ** 4))
    # same underlying trajectory, different accounting window
    assert warm.per_ue[1].avg_aoi == pytest.approx(full.per_ue[1].avg_aoi, rel=0.05)
    assert warm.per_ue[1].arrivals < full.per_ue[1].arrivals


def test_two_aoi_ues_share_the_budget():
    scn = Scenario(ues=(
        UeConfig(id=1, cls=UeClass.AOI, q=0.9, p=0.7, rho=1.0),
        UeConfig(id=2, cls=UeClass.AOI, q=0.9, p=0.7, rho=1.0),
        UeConfig(id=3, cls=UeClass.LATENCY, q=0.2, p=0.8, rho=1.0),
        UeConfig(id=4, cls=UeClass.THROUGHPUT, p=0.9, alpha=0.2),
    ), variant=Variant.LATENCY_WEIGHTED)
    report = run(cfg(scn, horizon=4 * 10 ** 5, seed=2))
    t1 = report.extras["t_star"][1]
    t2 = report.extras["t_star"][2]
    assert t1 == pytest.approx(t2, rel=1e-9)   # identical ues split evenly
    s1, s2 = report.per_ue[1], report.per_ue[2]
    assert s1.t_bar == pytest.approx(s2.t_bar, rel=0.02)
    assert s1.t_bar >= t1 - 0.05               # spacing at least the target
    # attempt shares stay inside the slot budget
    assert sum(s.attempts_share for s in report.per_ue.values()) <= 1.0


def test_adaptive_weights_leave_throughput_unchanged():
    # the adaptive latency weight reorders service within the pool but never
    # changes pool membership, so the throughput tier sees the same slots
    horizon = 10 ** 6
    rh = run(cfg(weighted(), policy="hier", horizon=horizon, seed=31))
    rv = run(cfg(constrained(beta=2.0), policy="vw", horizon=horizon, seed=31))
    for ue in (1, 2, 3):
        assert abs(rh.per_ue[ue].throughput - rv.per_ue[ue].throughput) <= 0.005


def _alloc_peak(scenario, policy, horizon, f=PolicySpec.f):
    """Allocation peak of one run, with ``vw``'s weight period ``f``, after a
    short run has done the first-call imports."""
    run(cfg(scenario, policy=policy, horizon=10, f=f))
    tracemalloc.start()
    try:
        run(cfg(scenario, policy=policy, horizon=horizon, seed=3, f=f))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _alloc_growth_per_slot(scenario, policy):
    """Growth of one run's allocation peak per extra slot, from two whole
    blocks of draws to four."""
    short = _alloc_peak(scenario, policy, 2 * CHUNK)
    return (_alloc_peak(scenario, policy, 4 * CHUNK) - short) / (2 * CHUNK)


def test_memory_stays_flat_as_the_horizon_grows():
    # rd draws success and policy uniforms as well as arrivals; with draws
    # taken in blocks of CHUNK slots, doubling a run of whole blocks must
    # not raise its allocation peak by a byte per extra slot
    growth = _alloc_growth_per_slot(constrained(), "rd")
    assert growth < 1.0, f"{growth:.1f} B per extra slot"


@pytest.mark.parametrize("policy", ["hier", "vw", "rd"])
def test_one_block_costs_under_64_bytes_per_slot(policy):
    # slots 0..CHUNK-1 are one block.  Its draws stay in numpy buffers read
    # in place, and its arrival table shares tuples; holding the block's
    # uniforms and arrival slots as Python lists cost 91 B/slot (rd: 131).
    # rd serves its arrivals from the queues they are drawn into, through
    # a timing wheel of 8 B/slot, where a second list of them in slot
    # order cost 45.8 B/slot
    scenario = weighted() if policy == "hier" else constrained()
    per_slot = _alloc_peak(scenario, policy, CHUNK - 1) / (CHUNK - 1)
    assert per_slot < (40 if policy == "rd" else 64), f"{per_slot:.1f} B per slot"


@pytest.mark.parametrize("f", [1, 10])
def test_vw_weight_trace_costs_at_most_16_bytes_per_latency_ue_per_step(f):
    # vw logs each latency UE's weight at every f-th slot, so its trace grows
    # with the horizon: from two whole blocks to four, the allocation peak
    # may grow by 16 B per latency UE per weight step, the weight's 8 and
    # room for the latency beside it (a dict per step cost about 256 B)
    scenario = constrained()
    growth = (_alloc_peak(scenario, "vw", 4 * CHUNK, f)
              - _alloc_peak(scenario, "vw", 2 * CHUNK, f))
    per_step = growth / (len(scenario.latency_ues) * 2 * CHUNK / f)
    assert per_step <= 16, f"{per_step:.1f} B per latency UE per weight step"


def test_cmu_memory_stays_flat_as_the_horizon_grows():
    # cmu serves a segment at a time: its temporaries last one segment and
    # its queues hold only undelivered packets
    growth = _alloc_growth_per_slot(latency_only(), "cmu")
    assert growth < 1.0, f"{growth:.1f} B per extra slot"


def test_cmu_policy_is_called_per_block_not_per_slot(monkeypatch):
    # cmu is served a segment at a time: each of its methods runs once per
    # block or per segment (blocks, plus one for the warm-up boundary),
    # however many slots, arrivals and attempts the run has
    calls = {}
    for name in ("update_index", "select", "on_outcome"):
        def counted(self, *args, _method=getattr(CmuPolicy, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _method(self, *args)
        monkeypatch.setattr(CmuPolicy, name, counted)
    horizon = 3 * CHUNK + 5
    report = run(RunConfig(scenario=latency_only(), policy=PolicySpec("cmu"),
                           horizon=horizon, seed=2, warmup=CHUNK + 7))
    bound = -(-(horizon + 1) // CHUNK) + 2
    assert sum(s.attempts for s in report.per_ue.values()) > 10 * 3 * bound
    assert set(calls) == {"update_index", "select", "on_outcome"}
    assert max(calls.values()) <= bound, (calls, bound)


def test_metric_hooks_fold_per_block_not_per_event(monkeypatch):
    # the slot loop only logs events; each UE's statistics are folded once
    # per block, at the warm-up boundary and as a weight step reads them,
    # however many packets arrive and are delivered
    calls = {"on_arrival": {}, "on_delivery": {}}
    for name, seen in calls.items():
        def counted(self, *args, _fold=getattr(UeMetrics, name), _seen=seen):
            _seen[self.ue_id] = _seen.get(self.ue_id, 0) + 1
            return _fold(self, *args)
        monkeypatch.setattr(UeMetrics, name, counted)
    horizon, f = 3 * CHUNK + 5, 5000
    report = run(RunConfig(scenario=constrained(), policy=PolicySpec("vw", f=f),
                           horizon=horizon, seed=2, warmup=CHUNK + 7))
    bound = -(-(horizon + 1) // CHUNK) + horizon // f + 2
    assert sum(s.deliveries for s in report.per_ue.values()) > 10 * 3 * bound
    for name, seen in calls.items():
        assert seen and max(seen.values()) <= bound, (name, seen, bound)


def test_cmu_statistics_bypass_the_metric_folds(monkeypatch):
    # cmu's kernels count each queue's arrivals and sum its deliveries, and
    # its queues hold the backlog, so a cmu run folds nothing in Python and
    # sums no arrival slot, yet reports the arrivals a slot-by-slot run does
    calls = {"on_arrival": 0, "on_delivery": 0, "fold": 0, "sum": 0}
    for name in ("on_arrival", "on_delivery", "fold"):
        def counted(self, *args, _fold=getattr(UeMetrics, name), _name=name):
            calls[_name] += 1
            return _fold(self, *args)
        monkeypatch.setattr(UeMetrics, name, counted)

    def counted_sum(*args):
        calls["sum"] += 1
        return sum(*args)
    monkeypatch.setattr(metrics, "sum", counted_sum, raising=False)
    config = RunConfig(scenario=latency_only(), policy=PolicySpec("cmu"),
                       horizon=3 * CHUNK + 5, seed=2, warmup=CHUNK + 7)
    report = run(config)
    assert sum(s.deliveries for s in report.per_ue.values()) > 1000
    assert calls == {"on_arrival": 0, "on_delivery": 0, "fold": 0, "sum": 0}
    expected = run_slots(config).per_ue
    assert [s.arrivals for s in report.per_ue.values()] == \
        [s.arrivals for s in expected.values()]


def test_cmu_queue_writes_stay_linear_in_the_arrivals(monkeypatch):
    # a queue at load 1.3 grows all run; enqueueing a block must cost its
    # arrivals, not the backlog.  Count the elements written into queue
    # storage: a block's arrivals, plus the live packets a growth copies or
    # a compaction moves (when the storage or its head changes)
    written = []

    def counted(self, *args, _method=CmuPolicy.update_index):
        store = self.store
        before = [(queue, h, e) for queue, h, e in zip(store.queues, store.head, store.end)]
        _method(self, *args)
        for (queue, h, e), queue_now, h_now, e_now in zip(before, store.queues, store.head,
                                                         store.end):
            moved = queue_now is not queue or h_now != h
            written.append(int(e_now if moved else e_now - e))
    monkeypatch.setattr(CmuPolicy, "update_index", counted)
    scenario = Scenario(ues=(UeConfig(id=1, cls=UeClass.LATENCY, q=0.65, p=0.5, rho=1.0),),
                        variant=Variant.LATENCY_WEIGHTED)
    stats = run(cfg(scenario, policy="cmu", horizon=64 * CHUNK)).per_ue[1]
    assert stats.arrivals - stats.deliveries > 8 * CHUNK
    assert sum(written) <= 2 * stats.arrivals, (sum(written), stats.arrivals)


@pytest.mark.parametrize("policy", ["hier", "vw", "rd", "cmu"])
def test_no_policy_builds_a_numpy_generator(monkeypatch, policy):
    # the kernel seeds every stream it draws from the run seed and draws
    # them itself, hier's and vw's success stream included
    made = []
    real = np.random.Generator

    def counted(bits):
        made.append(bits)
        return real(bits)
    monkeypatch.setattr(np.random, "Generator", counted)
    scenario = {"hier": weighted(), "cmu": latency_only()}.get(policy, constrained())
    run(cfg(scenario, policy=policy, horizon=CHUNK + 5))
    assert made == []


def test_rd_consumes_draw_every_slot():
    # the randomised policy must consume its per-slot draw even when no
    # latency packet is queued; with a latency ue that never has packets
    # (q tiny) the aoi trajectory must match a scenario where the latency
    # queue is often occupied, as far as arrivals go
    scn_a = constrained(beta=2.0)
    r = run(cfg(scn_a, policy="rd", horizon=10 ** 4, seed=5))
    assert r.per_ue[1].deliveries > 0  # smoke: draws aligned, engine ran


# -- sweeps ---------------------------------------------------------------------

def test_sweep_empty_grid():
    assert sweep(cfg(weighted()), "alpha", [], seeds=3) == []


def test_sweep_orders_points_and_derives_seeds():
    points = sweep(cfg(weighted(), horizon=10 ** 4), "alpha", [0.1, 0.2], seeds=2)
    assert [(p.value, p.replicate) for p in points] == \
        [(0.1, 0), (0.1, 1), (0.2, 0), (0.2, 1)]
    assert points[0].seed == derive_seed(1, 0, 0)
    assert points[3].seed == derive_seed(1, 1, 1)


def test_sweep_reports_infeasible_rows():
    points = sweep(cfg(weighted(), horizon=10 ** 4), "alpha", [0.2, 0.72], seeds=1)
    assert points[0].runnable and points[0].report is not None
    assert not points[1].feasibility.feasible
    assert not points[1].runnable and points[1].report is None
    assert points[1].seed == derive_seed(1, 1, 0)  # derived as for a point that runs


def test_sweep_parallel_matches_sequential():
    seq = sweep(cfg(weighted(), horizon=10 ** 4), "alpha", [0.1, 0.3], seeds=2, jobs=1)
    par = sweep(cfg(weighted(), horizon=10 ** 4), "alpha", [0.1, 0.3], seeds=2, jobs=2)
    assert seq == par


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records the worker count asked
    for and maps in this process, so no worker is started."""

    asked: list[int] = []

    def __init__(self, max_workers):
        self.asked.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("grid,jobs,asked", [
    ([0.1, 0.2], 64, [2]),        # two runnable points: two workers, not 64
    ([0.1, 0.72], 64, []),        # one runnable point runs in this process
    ([0.1, 0.2, 0.3], 2, [2]),
    ([0.1, 0.2], 1, []),
])
def test_sweep_workers_capped_at_runnable_points(monkeypatch, grid, jobs, asked):
    monkeypatch.setattr(_RecordingPool, "asked", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    points = sweep(cfg(weighted(), horizon=1000), "alpha", grid, seeds=1, jobs=jobs)
    assert _RecordingPool.asked == asked
    serial = sweep(cfg(weighted(), horizon=1000), "alpha", grid, seeds=1)
    assert points == serial


@pytest.mark.parametrize("jobs", [0, -2])
def test_sweep_jobs_below_one_rejected(jobs):
    with pytest.raises(ScenarioError, match="jobs must be >= 1"):
        sweep(cfg(weighted(), horizon=1000), "alpha", [0.1], seeds=1, jobs=jobs)


def test_sweep_needs_unambiguous_target():
    scn = Scenario(ues=(
        UeConfig(id=1, cls=UeClass.THROUGHPUT, p=0.9, alpha=0.2),
        UeConfig(id=2, cls=UeClass.THROUGHPUT, p=0.9, alpha=0.2),
    ), variant=Variant.LATENCY_WEIGHTED)
    base = RunConfig(scenario=scn, policy=PolicySpec("hier"), horizon=100, seed=1)
    with pytest.raises(ScenarioError, match="ambiguous"):
        sweep(base, "alpha", [0.1], seeds=1)
    points = sweep(base, "alpha", [0.1], seeds=1, ue_id=2)
    assert points[0].report.per_ue[2].attempts > 0
