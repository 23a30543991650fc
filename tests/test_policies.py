from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoisched.metrics import UeMetrics
from aoisched.model import Scenario, ScenarioError, UeClass, UeConfig, Variant
from aoisched.policies import CmuPolicy, HierarchicalPolicy, RandomizedPolicy, thresholds_for
from aoisched.rng import stream_states
from test_arrival_lists import pcg_rows

# Policy state and actions are indexed by UE position (UEs sorted by id):
# in the three-UE scenarios below, ue 1 (aoi) is position 0, ue 2
# (latency) is position 1 and ue 3 (throughput) is position 2.
AOI, LAT, THR = 0, 1, 2


def weighted_scenario():
    return Scenario(ues=(
        UeConfig(id=1, cls=UeClass.AOI, q=0.9, p=0.7, rho=1.0),
        UeConfig(id=2, cls=UeClass.LATENCY, q=0.2, p=0.8, rho=1.0),
        UeConfig(id=3, cls=UeClass.THROUGHPUT, p=0.9, alpha=0.2),
    ), variant=Variant.LATENCY_WEIGHTED)


def constrained_scenario(beta=2.0):
    return Scenario(ues=(
        UeConfig(id=1, cls=UeClass.AOI, q=0.9, p=0.7, rho=1.0),
        UeConfig(id=2, cls=UeClass.LATENCY, q=0.2, p=0.8, beta=beta),
        UeConfig(id=3, cls=UeClass.THROUGHPUT, p=0.9, alpha=0.2),
    ), variant=Variant.LATENCY_CONSTRAINED)


def hier(thresholds={1: 2}):
    return HierarchicalPolicy(weighted_scenario(), thresholds)


# -- index update hand-traces ---------------------------------------------------

def test_latency_arrival_index_is_constant():
    p = hier()
    p.update_index(1, [LAT])
    assert p.W[LAT] == pytest.approx(1.0 * 0.8 / 0.2)  # = 4
    p.update_index(2, [LAT])
    assert p.W[LAT] == pytest.approx(4.0)


def test_counter_gap_must_strictly_exceed_threshold():
    p = hier()
    p.a[AOI] = 5
    p.b[AOI] = 1
    p.update_index(6, [AOI])  # gap 1, threshold 2: no bump
    assert p.b[AOI] == 1 and p.a[AOI] == 5
    p.update_index(7, [AOI])  # gap 2: still no bump (strict)
    assert p.b[AOI] == 1
    p.update_index(8, [AOI])  # gap 3: bump
    assert p.b[AOI] == 2 and p.a[AOI] == 8


def test_first_eligible_arrival_gets_age_weighted_index():
    p = hier()
    # arrivals every slot from t=1; threshold 2 means the first bump is at t=3
    for t in (1, 2):
        p.update_index(t, [AOI])
        assert p.W[AOI] == 0.0 and p.s_packet[AOI] is None
    p.update_index(3, [AOI])
    assert p.b[AOI] == 1
    assert p.s_packet[AOI] == 3
    assert p.W[AOI] == pytest.approx(0.7 * 3)  # rho * p * (t - lam), lam = 0


def test_newer_eligible_arrival_replaces_retained_packet():
    p = hier()
    p.update_index(3, [AOI])
    assert p.s_packet[AOI] == 3
    # the counter still exceeds the delivery count, so the next arrival
    # supersedes the retained packet even without a counter bump
    p.update_index(4, [AOI])
    assert p.s_packet[AOI] == 4
    assert p.W[AOI] == pytest.approx(0.7 * 4)
    assert p.b[AOI] == 1


def test_ten_slot_reference_trace():
    # arrivals for ue1 at every slot except 5 and 9; delivery succeeds at t=4.
    # threshold 2, so bumps happen at t=3 (gap 3) and t=7 (gap 4).
    p = hier()
    expected = {
        1: (0, None, 0.0), 2: (0, None, 0.0),
        3: (1, 3, 2.1),    # bump; W = 0.7 * (3 - 0)
        4: (1, 4, 2.8),    # replace; W = 0.7 * (4 - 0)
    }
    for t in range(1, 5):
        p.update_index(t, [AOI])
        b, s, w = expected[t]
        assert (p.b[AOI], p.s_packet[AOI]) == (b, s)
        assert p.W[AOI] == pytest.approx(w)
    action = p.select(4)
    assert action == (AOI, 4)
    p.on_outcome(action, success=True, t=4)
    assert p.W[AOI] == 0.0 and p.s_packet[AOI] is None
    assert p.lam[AOI] == 4 and p.deliveries[AOI] == 1

    p.update_index(6, [AOI])   # gap 3 > 2 but b == deliveries: bump, retain
    assert p.b[AOI] == 2 and p.s_packet[AOI] == 6
    assert p.W[AOI] == pytest.approx(0.7 * (6 - 4))
    p.update_index(7, [AOI])   # replace with fresher arrival
    assert p.s_packet[AOI] == 7
    assert p.W[AOI] == pytest.approx(0.7 * (7 - 4))
    p.update_index(8, [AOI])   # gap 2 from the t=6 bump: replace only
    assert p.s_packet[AOI] == 8
    assert p.b[AOI] == 2
    p.update_index(10, [AOI])  # gap 4 > 2: bump
    assert p.b[AOI] == 3
    assert p.a[AOI] == 10
    assert p.s_packet[AOI] == 10


def test_counter_bump_timing_follows_a_not_retained_packet():
    p = hier()
    p.update_index(3, [AOI])           # bump: a=3, b=1
    p.update_index(4, [AOI])           # replace only
    p.update_index(6, [AOI])           # gap 3 > 2: bump (a tracks bumps, not packets)
    assert p.b[AOI] == 2
    assert p.a[AOI] == 6


def test_hier_backlog_is_its_queues_and_retained_packets():
    # a latency queue reports (count, slot sum), a retained aoi packet (1, g)
    p = hier()
    assert p.backlog() == [(0, 0), (0, 0), (0, 0)]
    for t in (2, 3, 5):
        p.update_index(t, [AOI, LAT])  # the first bump, at slot 3, retains
    assert p.backlog() == [(1, 5), (3, 2 + 3 + 5), (0, 0)]
    p.on_outcome(p.select(5), success=True, t=5)  # the newest latency packet
    p.on_outcome((AOI, 5), success=True, t=6)
    assert p.backlog() == [(0, 0), (2, 2 + 3), (0, 0)]


# -- selection ----------------------------------------------------------------

def test_argmax_selects_highest_index():
    p = hier()
    p.update_index(3, [AOI, LAT])    # W1 = 2.1, W2 = 4
    action = p.select(3)
    assert action == (LAT, 3)


def test_argmax_tie_breaks_to_lowest_id():
    scn = Scenario(ues=(
        UeConfig(id=1, cls=UeClass.LATENCY, q=0.2, p=0.8, rho=1.0),
        UeConfig(id=2, cls=UeClass.LATENCY, q=0.2, p=0.8, rho=1.0),
    ), variant=Variant.LATENCY_WEIGHTED)
    p = HierarchicalPolicy(scn, {})
    p.update_index(1, [0, 1])
    assert p.select(1) == (0, 1)


def test_throughput_tier_served_only_when_pool_empty():
    p = hier()
    p.update_index(3, [AOI])
    assert p.select(3)[0] == AOI
    p.on_outcome(p.select(3), success=True, t=3)
    assert p.select(4) == (THR, 4)  # pool empty: throughput tier


def test_throughput_index_arithmetic():
    # alpha/p of 0.3 and 0.2, attempts 2 and 0, t=10: indices 1.0 and 2.0
    scn = Scenario(ues=(
        UeConfig(id=1, cls=UeClass.THROUGHPUT, p=1.0, alpha=0.3),
        UeConfig(id=2, cls=UeClass.THROUGHPUT, p=1.0, alpha=0.2),
    ), variant=Variant.LATENCY_WEIGHTED)
    p = HierarchicalPolicy(scn, {})
    for t in (1, 2):
        p.on_outcome((0, t), success=False, t=t)   # two attempts for ue 1
    assert p.select(10) == (1, 10)


def test_latency_service_is_newest_first():
    p = hier()
    p.update_index(1, [LAT])
    p.update_index(5, [LAT])
    assert p.select(5) == (LAT, 5)


def test_latency_index_survives_partial_drain():
    p = hier()
    p.update_index(1, [LAT])
    p.update_index(2, [LAT])
    action = p.select(2)
    p.on_outcome(action, success=True, t=2)
    assert p.W[LAT] == pytest.approx(4.0)   # queue still nonempty
    action = p.select(3)
    p.on_outcome(action, success=True, t=3)
    assert p.W[LAT] == 0.0


def test_failure_leaves_packet_in_place():
    p = hier()
    p.update_index(3, [AOI])
    action = p.select(3)
    p.on_outcome(action, success=False, t=3)
    assert p.s_packet[AOI] == 3
    assert p.select(4) == (AOI, 3)


def test_counter_dominates_delivery_count():
    import numpy as np
    rng = np.random.default_rng(3)
    p = hier()
    for t in range(1, 2000):
        arrived = [i for i in (AOI, LAT) if rng.random() < (0.9 if i == AOI else 0.2)]
        p.update_index(t, arrived)
        action = p.select(t)
        if action is not None and action[0] != THR:
            p.on_outcome(action, rng.random() < 0.75, t)
        assert p.b[AOI] >= p.deliveries[AOI]


def test_decisions_invariant_under_weight_rescaling():
    import numpy as np

    def trace(scale):
        scn = Scenario(ues=(
            UeConfig(id=1, cls=UeClass.AOI, q=0.9, p=0.7, rho=1.0 * scale),
            UeConfig(id=2, cls=UeClass.LATENCY, q=0.2, p=0.8, rho=1.0 * scale),
            UeConfig(id=3, cls=UeClass.THROUGHPUT, p=0.9, alpha=0.2),
        ), variant=Variant.LATENCY_WEIGHTED)
        p = HierarchicalPolicy(scn, {1: 2})
        rng = np.random.default_rng(17)
        out = []
        for t in range(1, 3000):
            arrived = [i for i in (AOI, LAT) if rng.random() < (0.9 if i == AOI else 0.2)]
            p.update_index(t, arrived)
            action = p.select(t)
            out.append(action)
            if action is not None:
                p.on_outcome(action, rng.random() < 0.7, t)
        return out

    assert trace(1.0) == trace(7.3)


# -- virtual weights -------------------------------------------------------------

def test_virtual_weights_start_at_one_and_follow_gradient():
    p = HierarchicalPolicy(constrained_scenario(beta=5.0), {1: 2}, f=10000)
    assert p.name == "vw"
    assert p.virtual_rho[LAT] == 1.0
    assert p.weight_log == {2: array("d")}   # one array per latency ue, by id
    p.update_virtual_weights([1.4])
    # step: 1 - 0.1 * (5 - 1.4) = 0.64
    assert p.virtual_rho[LAT] == pytest.approx(0.64)
    assert p.weight_log == {2: array("d", [p.virtual_rho[LAT]])}


def test_virtual_weight_stays_and_is_logged_before_any_arrival():
    # a latency of None (no arrival yet) leaves the weight as it is, and the
    # step still logs it
    p = HierarchicalPolicy(constrained_scenario(beta=5.0), {1: 2}, f=10000)
    p.update_virtual_weights([None])
    assert p.virtual_rho[LAT] == 1.0
    p.update_virtual_weights([1.4])
    p.update_virtual_weights([None])
    assert p.virtual_rho[LAT] == pytest.approx(0.64)
    assert p.weight_log == {2: array("d", [1.0, p.virtual_rho[LAT], p.virtual_rho[LAT]])}


def test_virtual_weight_zero_floor():
    p = HierarchicalPolicy(constrained_scenario(beta=5.0), {1: 2}, f=10000)
    p.virtual_rho[LAT] = 0.1
    p.update_virtual_weights([1.4])
    assert p.virtual_rho[LAT] == 0.0


def test_virtual_weight_fixed_point():
    p = HierarchicalPolicy(constrained_scenario(beta=2.0), {1: 2}, f=10000)
    p.update_virtual_weights([2.0])
    assert p.virtual_rho[LAT] == 1.0


def test_virtual_weight_grows_when_infeasible():
    p = HierarchicalPolicy(constrained_scenario(beta=1.01), {1: 2}, f=10000)
    values = [1.0]
    for _ in range(5):
        p.update_virtual_weights([1.4])
        values.append(p.virtual_rho[LAT])
    assert all(b > a for a, b in zip(values, values[1:]))


def test_zero_weight_latency_queue_still_outranks_throughput_tier():
    p = HierarchicalPolicy(constrained_scenario(beta=5.0), {1: 2}, f=10000)
    p.virtual_rho[LAT] = 0.0
    p.update_index(1, [LAT])
    assert p.W[LAT] == 0.0
    assert p.select(1) == (LAT, 1)  # pool membership, not index, decides the tier


# -- randomised policy -------------------------------------------------------------

def states_of(policy):
    """Fresh PCG64 states for each stream the policy draws: its arrival
    streams, then the success and policy streams."""
    return pcg_rows([np.random.Generator(np.random.PCG64(k))
                         for k in range(len(policy.store.pos) + 2)])


def draw(policy, states, start, n, arriving=()):
    """Draw the block of ``n`` slots from ``start``: the arrival streams in
    ``arriving`` (by index among the policy's) arrive in every slot of it,
    the others in none, their q being 1 and 0 for the block, which every
    draw is below and none is."""
    policy.store.q[:] = [float(k in arriving) for k in range(len(policy.store.q))]
    policy.update_index(start, n, states)


def served(policy, rows, arrivals=(), first=1):
    """Draw and serve slots ``first``, ``first`` + 1, ..., a block each: in
    slot t the k-th arrival stream has an arrival iff t is in
    ``arrivals[k]``, and the block's uniforms (success, then policy under
    ``rd``) are ``rows[t - first]``.  Returns the position that attempted in
    each slot, or None."""
    states, attempted = states_of(policy), []
    for t, row in enumerate(rows, first):
        draw(policy, states, t, 1, [k for k, slots in enumerate(arrivals) if t in slots])
        policy.block[:, 0] = row
        attempts = policy.sums[:, 1].copy()
        policy.select(t, t + 1)
        attempts = policy.sums[:, 1] - attempts
        attempted.append(int(attempts.argmax()) if attempts.any() else None)
    return attempted


def rd(beta=2.0):
    return RandomizedPolicy(constrained_scenario(beta=beta), {1: 2})


def rd_served(policy, draws, arrivals=(), succeed=()):
    """Serve slots 1..len(draws) with policy uniform ``draws[t - 1]`` in
    slot t, the k-th AoI or latency position (ascending) having arrivals in
    ``arrivals[k]``; the attempt in slot t succeeds iff t is in
    ``succeed``."""
    return served(policy, [[0.0 if t in succeed else 1.0, u] for t, u in enumerate(draws, 1)],
                  arrivals)


def test_rd_probability_partition():
    # theta for (q=0.2, p=0.8, beta=2) is 0.75; the latency interval comes
    # first, the deterministic candidate takes the remainder
    p = rd(beta=2.0)
    theta = p.ue["weight"][LAT]
    assert theta == pytest.approx(0.75)
    # an interval holds its lower end, not its upper one
    assert rd_served(p, [0.5, 0.74, theta, 0.76, 0.9], arrivals=[(), (1,)]) == \
        [LAT, LAT, THR, THR, THR]


def test_rd_empty_latency_queue_gives_candidate_probability_one():
    assert rd_served(rd(), [0.0, 0.999]) == [THR, THR]


def test_rd_aoi_candidate_outranks_throughput():
    # threshold 2: the first bump is at slot 3, and its packet is retained
    p = rd()
    assert rd_served(p, [0.99] * 3, arrivals=[(1, 2, 3)]) == [THR, THR, AOI]
    assert p.ue["packet"][AOI] == 3


def test_rd_never_idles_with_throughput_ues():
    assert rd_served(rd(), [0.5]) == [THR]


def test_rd_attempt_fails_at_a_uniform_equal_to_p():
    # every tier delivers iff the success uniform is below the ue's p: slots
    # 1-2 go to the throughput ue (p 0.9), slot 3 to the latency ue (0.8),
    # slot 4 to the aoi ue (0.7), its packet of slot 3 eligible
    p, metrics = rd(), [UeMetrics(u.id, u.cls) for u in constrained_scenario().ues]
    served(p, [[0.9, 0.5], [0.9, 0.5], [0.8, 0.5], [0.7, 0.99]], arrivals=[(1, 2, 3), (3,)])
    p.on_outcome(metrics)
    assert [m.attempts for m in metrics] == [1, 1, 2]
    assert [m.deliveries for m in metrics] == [0, 0, 0]


def test_rd_share_clamped_when_ceiling_unattainable():
    # beta below the queueing floor pushes theta above 1; the share clamps
    # so the latency ue is served whenever it has a packet
    p = rd(beta=1.2)
    assert p.ue["weight"][LAT] > 1.0
    assert rd_served(p, [0.999999], arrivals=[(), (1,)]) == [LAT]


def test_rd_partition_orders_latency_ues_by_id():
    scn = Scenario(ues=(
        UeConfig(id=2, cls=UeClass.LATENCY, q=0.2, p=0.8, beta=2.0),   # share 0.75
        UeConfig(id=3, cls=UeClass.THROUGHPUT, p=0.9, alpha=0.1),
        UeConfig(id=5, cls=UeClass.LATENCY, q=0.1, p=0.9, beta=10.0),  # share 0.2
    ), variant=Variant.LATENCY_CONSTRAINED)
    p = RandomizedPolicy(scn, {})
    # ue 2: [0, 0.75), ue 5: [0.75, 0.95), the leftover to the candidate, ue 3
    assert rd_served(p, [0.4, 0.80, 0.97], arrivals=[(1,), (1,)]) == [0, 2, 1]


def test_rd_latency_ues_have_no_index():
    p = rd()
    rd_served(p, [0.99], arrivals=[(), (1,)])
    assert p.ue["index"][LAT] == 0.0 and p.ue["packet"][LAT] == -1
    assert p.store.depth[LAT] == 1


def test_rd_success_clears_aoi_candidate_only():
    p, metrics = rd(), [UeMetrics(u.id, u.cls) for u in constrained_scenario().ues]
    attempted = rd_served(p, [0.99, 0.99, 0.99, 0.2], arrivals=[(1, 2, 3), (1, 2, 3)],
                          succeed=(3, 4))
    assert attempted == [THR, THR, AOI, LAT]   # aoi candidate in 3, latency interval in 4
    assert p.ue["packet"][AOI] == -1
    p.on_outcome(metrics)                    # the sums of slots 1-4
    assert [m.deliveries for m in metrics] == [1, 1, 0]
    assert metrics[AOI].latency_sum_delivered == 3 - 3 + 1
    assert metrics[LAT].latency_sum_delivered == 4 - 3 + 1   # newest first
    assert not p.sums.any()                  # zeroed once added
    # slots 1 and 2 stay queued; the delivered aoi packet leaves no backlog
    assert p.backlog() == [(0, 0), (2, 1 + 2), (0, 0)]
    assert p.store.depth.tolist() == [0, 2, 0]   # only latency ues keep a stack


def test_rd_latency_stack_grows_across_blocks():
    # the latency ue has an arrival in every slot, and every draw falls in
    # the leftover (theta 0.75), so its stack keeps every packet.  The stack
    # is the bottom of its queue, and no gap opens above it, so before each
    # block the queue needs its stack, no live packet (each block's are
    # taken by its end) and the block's arrivals: 7, 15, 23, 31, 39, 47.
    # Its storage, when that does not fit, grows to the least power of two
    # at least that and twice what it had, keeping the stack
    p, metrics = rd(), [UeMetrics(u.id, u.cls) for u in constrained_scenario().ues]
    states, caps = states_of(p), []
    for start in range(0, 48, 8):
        draw(p, states, start, 8, arriving=[LAT])
        p.block[:, :8] = [[0.0] * 8, [0.99] * 8]
        p.select(max(start, 1), start + 8)
        p.on_outcome(metrics)
        caps.append(int(p.store.cap[LAT]))
        assert p.store.depth[LAT] == p.store.head[LAT] == p.store.end[LAT] == start + 7
    assert caps == [8, 16, 32, 32, 64, 64]
    assert [m.attempts for m in metrics] == [0, 0, 47]
    assert metrics[LAT].arrivals == 47 and metrics[LAT].deliveries == 0
    assert p.backlog()[LAT] == (47, sum(range(1, 48)))


def test_rd_select_checks_the_buffers_it_hands_the_kernel():
    # the policy binds its buffers when it is built: select serves only
    # slots of the block they hold, and a block must fit them
    p = rd()
    with pytest.raises(ValueError, match=r"slots \[1, 3\) are not in the block drawn"):
        p.select(1, 3)                       # no block drawn yet
    states = states_of(p)
    draw(p, states, 8, 4)
    for a, b in (7, 9), (8, 13), (11, 10), (12, 13):
        with pytest.raises(ValueError, match="not in the block drawn"):
            p.select(a, b)
    assert not p.sums.any()                  # nothing was served
    p.block[:, :4] = 0.5
    p.select(8, 12)
    assert p.sums[:, 1].tolist() == [0, 0, 4]
    draw(p, states, 12, 4, arriving=[0])
    with pytest.raises(ValueError, match="skip an arrival not yet served"):
        p.select(13, 16)                     # the aoi ue's arrival in slot 12
    assert p.sums[:, 1].tolist() == [0, 0, 4]
    with pytest.raises(ValueError, match="a block of 8193 slots does not fit 8192"):
        draw(p, states, 16, 8193)


# -- weighted-rate rule -------------------------------------------------------------

def cmu_scenario():
    return Scenario(ues=(
        UeConfig(id=1, cls=UeClass.LATENCY, q=0.2, p=0.8, rho=1.0),   # index 4
        UeConfig(id=2, cls=UeClass.LATENCY, q=0.3, p=0.6, rho=1.0),   # index 2
    ), variant=Variant.LATENCY_WEIGHTED)


def cmu_metrics():
    return [UeMetrics(1, UeClass.LATENCY), UeMetrics(2, UeClass.LATENCY)]


def test_cmu_serves_highest_weighted_rate():
    p, metrics = CmuPolicy(cmu_scenario()), cmu_metrics()
    assert served(p, [[0.99]], arrivals=[(1,), (1,)]) == [0]   # the attempt fails
    p.on_outcome(metrics)
    assert [m.arrivals for m in metrics] == [1, 1]
    assert [m.attempts for m in metrics] == [1, 0]
    assert [m.deliveries for m in metrics] == [0, 0]
    assert p.backlog() == [(1, 1), (1, 1)]


def test_cmu_work_conserving_fifo():
    p, metrics = CmuPolicy(cmu_scenario()), cmu_metrics()
    states = states_of(p)
    # slot 0 takes no arrival, even at q = 1; ue 2 has arrivals in slots 1
    # and 2, and slot 1 is drawn but not served
    draw(p, states, 0, 1, arriving=[0, 1])
    draw(p, states, 1, 1, arriving=[1])
    # slots 2..4, every attempt succeeds: ue 2 is served in 2 and 3, then idle
    assert served(p, [[0.0]] * 3, arrivals=[(), (2,)], first=2) == [1, 1, None]
    p.on_outcome(metrics)
    assert [m.attempts for m in metrics] == [0, 2]
    lat = metrics[1]
    assert lat.arrivals == 1                            # slot 1's arrived before the segment
    assert lat.deliveries == 2 and lat.latency_sum_delivered == (2 - 1 + 1) + (3 - 2 + 1)
    # oldest first: arrival slot 1, then 2, so the one spacing sample is +1
    assert (lat.n_samples, lat.sample_sum, lat.sample_sumsq) == (1, 1.0, 1.0)
    assert p.backlog() == [(0, 0), (0, 0)]
    draw(p, states, 5, 1)
    p.block[0, 0] = 0.0
    p.select(5, 6)                                              # both queues empty
    assert p.sums.tolist() == [[0] * 9, [0] * 9]


def test_cmu_queues_grow_and_compact_across_blocks():
    # ue 1 has an arrival in every slot and delivers it at once: its
    # storage, grown to hold the first block's arrivals, is empty at every
    # later block and is compacted in place; ue 2 is never served, so its
    # storage keeps doubling
    p, metrics = CmuPolicy(cmu_scenario()), cmu_metrics()
    states, caps, heads, storage = states_of(p), [], [], []
    for start in range(0, 48, 8):
        draw(p, states, start, 8, arriving=[0, 1])
        p.block[0, :8] = 0.0
        p.select(max(start, 1), start + 8)
        p.on_outcome(metrics)
        caps.append(p.store.cap.tolist())
        heads.append(int(p.store.head[0]))
        storage.append(p.store.queues[0])
    assert caps == [[8, 8], [8, 16], [8, 32], [8, 32], [8, 64], [8, 64]]
    assert heads == [7, 8, 8, 8, 8, 8]
    assert all(queue is storage[0] for queue in storage)
    assert [m.arrivals for m in metrics] == [47, 47]
    assert [m.deliveries for m in metrics] == [47, 0]
    assert p.backlog() == [(0, 0), (47, sum(range(1, 48)))]


def test_cmu_select_checks_the_buffers_it_hands_the_kernel():
    # the policy binds its buffers when it is built: select serves only
    # slots of the block they hold, and a block must fit them
    p = CmuPolicy(cmu_scenario())
    with pytest.raises(ValueError, match=r"slots \[1, 3\) are not in the block drawn"):
        p.select(1, 3)                       # no block drawn yet
    states = states_of(p)
    draw(p, states, 8, 4, arriving=[0, 1])
    for a, b in (7, 9), (8, 13), (11, 10), (12, 13):
        with pytest.raises(ValueError, match="not in the block drawn"):
            p.select(a, b)
    assert not p.sums.any()                  # nothing was served
    p.block[0, :4] = 0.0
    p.select(8, 12)
    assert p.sums[:, 2].tolist() == [4, 0]   # ue 1 delivers each slot's arrival at once
    with pytest.raises(ValueError, match="a block of 8193 slots does not fit 8192"):
        draw(p, states, 16, 8193)


def test_cmu_rejects_mixed_scenarios():
    with pytest.raises(ScenarioError):
        CmuPolicy(weighted_scenario())


# -- a block served in many calls ------------------------------------------------------

# rd: two AoI UEs gated at thresholds 1 and 3, two latency UEs whose shares
# leave 0.1 of a slot when both are queued, and three throughput UEs, two
# of them one (alpha, p) group; rd_wide: 24 AoI UEs at q 0.6-0.95 and 8
# latency UEs at q 0.1, ids interleaved, so most slots take several
# arrivals, and cuts fall between a stream's consecutive ones, and the
# latency shares overfill the slot when most are queued; cmu: three queues
# at a load of about 0.95
SPLIT_SYSTEMS = {
    "rd": lambda: RandomizedPolicy(Scenario(ues=(
        UeConfig(id=1, cls=UeClass.AOI, q=0.6, p=0.7, rho=1.0),
        UeConfig(id=2, cls=UeClass.LATENCY, q=0.2, p=0.8, beta=3.0),
        UeConfig(id=3, cls=UeClass.THROUGHPUT, p=0.9, alpha=0.1),
        UeConfig(id=4, cls=UeClass.AOI, q=0.3, p=0.5, rho=2.0),
        UeConfig(id=5, cls=UeClass.LATENCY, q=0.1, p=0.6, beta=10.0),
        UeConfig(id=6, cls=UeClass.THROUGHPUT, p=0.9, alpha=0.1),
        UeConfig(id=7, cls=UeClass.THROUGHPUT, p=0.5, alpha=0.05),
    ), variant=Variant.LATENCY_CONSTRAINED), {1: 1, 4: 3}),
    "rd_wide": lambda: RandomizedPolicy(Scenario(ues=tuple(
        UeConfig(id=i, cls=UeClass.LATENCY, q=0.1, p=0.9, beta=3.0 + i % 7) if i % 4 == 0 else
        UeConfig(id=i, cls=UeClass.AOI, q=0.6 + 0.35 * i / 32, p=0.7, rho=1.0 + i % 3)
        for i in range(1, 33)) + (UeConfig(id=33, cls=UeClass.THROUGHPUT, p=0.9, alpha=0.05),),
        variant=Variant.LATENCY_CONSTRAINED), {i: i % 6 for i in range(1, 33) if i % 4}),
    "cmu": lambda: CmuPolicy(Scenario(ues=(
        UeConfig(id=1, cls=UeClass.LATENCY, q=0.3, p=0.8, rho=1.0),
        UeConfig(id=2, cls=UeClass.LATENCY, q=0.2, p=0.6, rho=2.0),
        UeConfig(id=3, cls=UeClass.LATENCY, q=0.1, p=0.9, rho=0.5),
    ), variant=Variant.LATENCY_WEIGHTED)),
}


@settings(max_examples=90, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(SPLIT_SYSTEMS)), seed=st.integers(0, 2 ** 32),
       n=st.integers(1, 400), data=st.data())
def test_a_block_served_in_many_calls_is_served_as_in_one(name, seed, n, data):
    # rd_serve keeps its serving state between calls (the queued latency
    # UEs, the pool and its best, each group's turn) and writes its timing
    # wheel's cursors back to the queue heads at each call's end, as
    # cmu_serve keeps its queue heads and g_prev: two blocks, each served
    # in one call by one policy and cut anywhere into calls, empty ones
    # included, by another, leave the same sums, backlog and state, the
    # stacks in the queues included
    whole, cut = SPLIT_SYSTEMS[name](), SPLIT_SYSTEMS[name]()
    states = [stream_states(seed, p.store.frame.narr, p.store.frame.nrows) for p in (whole, cut)]
    for start in 0, n:
        whole.update_index(start, n, states[0])
        cut.update_index(start, n, states[1])
        a, b = max(start, 1), start + n
        whole.select(a, b)
        cuts = sorted(data.draw(st.lists(st.integers(a, b), max_size=12)))
        for lo, hi in zip([a, *cuts], [*cuts, b]):
            cut.select(lo, hi)
        assert cut.sums.tolist() == whole.sums.tolist()
        assert cut.backlog() == whole.backlog()
        assert cut.store.head.tolist() == whole.store.head.tolist()
        assert cut.store.depth.tolist() == whole.store.depth.tolist()
        if name != "cmu":
            assert cut.ue.tolist() == whole.ue.tolist()
            c, w = cut.frame, whole.frame
            assert (c.nq, c.np, c.best) == (w.nq, w.np, w.best)
        else:
            assert cut.g_prev.tolist() == whole.g_prev.tolist()


# -- construction helpers -------------------------------------------------------------

def test_thresholds_for_reference_scenario():
    scn = weighted_scenario()
    thresholds, sol = thresholds_for(scn, 1 - 0.25 - 0.2 / 0.9)
    assert thresholds == {1: 2}
    assert sol.t_star[1] == pytest.approx(2.7068, abs=1e-4)


def test_thresholds_for_without_aoi_ues():
    scn = Scenario(ues=(UeConfig(id=2, cls=UeClass.LATENCY, q=0.2, p=0.8, rho=1.0),),
                   variant=Variant.LATENCY_WEIGHTED)
    thresholds, sol = thresholds_for(scn, 0.5)
    assert thresholds == {} and sol is None
