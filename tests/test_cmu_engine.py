"""The segment-at-a-time ``cmu`` engine against its slot-by-slot reference.

``sim.run`` draws each block's ``cmu`` arrivals and success uniforms with
the compiled ``kernel.draw_block``, into queues that grow by doubling and
are compacted in place, and serves a whole segment per call of
``kernel.cmu_serve``, which jumps over slots where every queue is empty
and sums each queue's arrivals and delivery statistics itself;
``cmu_oracle.run_slots`` walks the same draws one slot at a time in Python
and folds every event into ``UeMetrics``.  The two must write the same CSV
cells on any latency-only system of up to 16 UEs: ties in ``rho*p/q``, UEs
with ``p = 1``, loads from 10^-4 (whole blocks with empty queues) to above
1 (backlogs that grow over up to four blocks), horizons on either side of
a block edge and any warm-up.  The reference itself must reproduce every
pinned ``cmu`` digest.
"""

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from aoisched.metrics import report_rows
from aoisched.model import Scenario, ScenarioError, UeClass, UeConfig, Variant
from aoisched.policies import CmuPolicy
from aoisched.sim import CHUNK, PolicySpec, RunConfig, run
from cmu_oracle import run_slots
from test_engine_golden import (CMU_GOLDEN, CMU_SYSTEMS, GOLDEN, HORIZON, SYSTEMS,
                                run_digest)


@st.composite
def latency_systems(draw):
    """1-16 weighted latency UEs (16 is ``wide48_hier``'s ``cmu`` system) at
    a total load of 0.05-1.3, or of 10^-4 to 0.05, spread over its orders
    of magnitude; a UE may copy an earlier UE's (share, p, rho), which ties
    their rho*p/q exactly."""
    load = draw(st.floats(0.05, 1.3) | st.floats(-4.0, -1.3).map(lambda e: 10.0 ** e))
    picks = []
    for _ in range(draw(st.integers(1, 16))):
        if picks and draw(st.booleans()):
            picks.append(draw(st.sampled_from(picks)))
        else:
            picks.append((draw(st.floats(0.05, 1.0)),
                          draw(st.just(1.0) | st.floats(0.2, 1.0)),
                          draw(st.floats(0.2, 3.0))))
    total = sum(share for share, _, _ in picks)
    ues = tuple(UeConfig(id=i, cls=UeClass.LATENCY, q=min(1.0, load * share / total * p),
                         p=p, rho=rho)
                for i, (share, p, rho) in enumerate(picks, 1))
    return Scenario(ues=ues, variant=Variant.LATENCY_WEIGHTED)


@st.composite
def runs(draw):
    """A latency system, a horizon within 3 slots of 1-2 whole blocks, or
    of 1-4 above load 1, so that overloaded queues grow and are compacted
    across blocks, and a warm-up in it."""
    scenario = draw(latency_systems())
    blocks = 4 if sum(u.q / u.p for u in scenario.ues) > 1 else 2
    horizon = draw(st.integers(1, blocks)) * CHUNK + draw(st.integers(-3, 3))
    return scenario, horizon, draw(st.integers(0, horizon - 1))


# The reference walks every slot in Python, so examples stay few and short.
@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          phases=[Phase.explicit, Phase.generate])
@given(case=runs(), seed=st.integers(0, 2 ** 31))
# slot CHUNK is a block, and a segment, of its own, right after the warm-up:
# both queues are empty before it and ue 2 has an arrival there, which it
# delivers at once, its first delivery since the warm-up
@example(case=(Scenario(ues=(
    UeConfig(id=1, cls=UeClass.LATENCY, q=0.02, p=0.9, rho=1.0),
    UeConfig(id=2, cls=UeClass.LATENCY, q=0.03, p=0.6, rho=1.0),
), variant=Variant.LATENCY_WEIGHTED), CHUNK, CHUNK - 1), seed=153)
def test_segment_engine_matches_slot_reference(case, seed):
    scenario, horizon, warmup = case
    config = RunConfig(scenario=scenario, policy=PolicySpec("cmu"), horizon=horizon,
                       seed=seed, warmup=warmup)
    assert report_rows(run(config), "x") == report_rows(run_slots(config), "x")


CMU_CASES = sorted([(SYSTEMS[s]["cmu"], seed, w, digest)
                    for (s, p, seed, w), digest in GOLDEN.items() if p == "cmu"]
                   + [(CMU_SYSTEMS[s], seed, w, digest)
                      for (s, seed, w), digest in CMU_GOLDEN.items()],
                   key=lambda case: case[3])


@pytest.mark.parametrize("scenario,seed,warmup,digest", CMU_CASES,
                         ids=[case[3][:12] for case in CMU_CASES])
def test_slot_reference_reproduces_the_pinned_digests(scenario, seed, warmup, digest):
    assert HORIZON > 3 * CHUNK
    assert run_digest(scenario, PolicySpec("cmu"), seed, warmup, run_slots) == digest


def test_lower_queues_starve_behind_an_overloaded_top_queue():
    """The top queue (rho*p/q = 9) gets 0.9 packets per slot and serves 0.5,
    so after its first slots it never empties: the two lower queues get no
    slot for whole segments, and their packets only pile up."""
    scenario = Scenario(ues=(
        UeConfig(id=1, cls=UeClass.LATENCY, q=0.3, p=0.6, rho=0.5),
        UeConfig(id=2, cls=UeClass.LATENCY, q=0.9, p=0.5, rho=16.2),
        UeConfig(id=3, cls=UeClass.LATENCY, q=0.2, p=1.0, rho=0.1),
    ), variant=Variant.LATENCY_WEIGHTED)
    config = RunConfig(scenario=scenario, policy=PolicySpec("cmu"), horizon=3 * CHUNK + 5,
                       seed=11, warmup=CHUNK // 2)
    report = run(config)
    assert report_rows(report, "x") == report_rows(run_slots(config), "x")
    top, low = report.per_ue[2], [report.per_ue[1], report.per_ue[3]]
    assert top.attempts == config.horizon - config.warmup
    assert [s.attempts for s in low] == [0, 0] and [s.deliveries for s in low] == [0, 0]
    assert all(s.arrivals > 0 for s in low)


def test_a_system_without_queues_is_rejected():
    # model.check_structure calls a scenario of no UEs malformed, so cmu
    # raises on it as every policy does, and its kernel never runs without
    # a queue
    scenario = Scenario(ues=(), variant=Variant.LATENCY_WEIGHTED)
    with pytest.raises(ScenarioError, match="at least one ue"):
        run(RunConfig(scenario=scenario, policy=PolicySpec("cmu"), horizon=CHUNK + 1, seed=1))
    with pytest.raises(ScenarioError, match="at least one ue"):
        CmuPolicy(scenario)


# Three queues at a total load of 0.95, so queues are rarely all empty at a
# block edge or where the warm-up ends.
EDGE_SYSTEM = Scenario(ues=(
    UeConfig(id=1, cls=UeClass.LATENCY, q=0.3, p=0.8, rho=1.0),
    UeConfig(id=2, cls=UeClass.LATENCY, q=0.2, p=0.6, rho=2.0),
    UeConfig(id=3, cls=UeClass.LATENCY, q=0.1, p=0.9, rho=0.5),
), variant=Variant.LATENCY_WEIGHTED)
WINDOW_EDGES = {"none": lambda h: 0, "1": lambda h: 1, "chunk-1": lambda h: CHUNK - 1,
                "chunk": lambda h: CHUNK, "horizon-1": lambda h: h - 1}


@pytest.mark.parametrize("horizon", [2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 1])
@pytest.mark.parametrize("warmup", WINDOW_EDGES.values(), ids=WINDOW_EDGES.keys())
def test_window_edges_match_slot_reference(horizon, warmup):
    """The block is cut only where the warm-up ends, in its last slot
    ``warmup``, and the sums are added at the end of each window: a
    warm-up ending in slot 1, on either side of the first block edge or in
    the second-last slot; horizons ending a block, one slot into the next
    and two."""
    config = RunConfig(scenario=EDGE_SYSTEM, policy=PolicySpec("cmu"), horizon=horizon,
                       seed=3, warmup=warmup(horizon))
    assert report_rows(run(config), "x") == report_rows(run_slots(config), "x")

