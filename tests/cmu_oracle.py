"""Slot-by-slot reference for the weighted-rate rule (``cmu``).

``sim.run`` serves ``cmu`` a segment at a time.  This module keeps the
rule in its plain per-slot form, as the engine ran it before, so tests can
compare the two: ``SlotCmuPolicy`` holds one deque per latency UE, and
``run_slots`` draws the same streams as ``sim.run`` (one arrival stream
per UE, the success stream; no policy stream), with numpy's own
generators (``numpy_streams``), and walks every slot,
folding each arrival and delivery into ``UeMetrics`` as it happens and
handing it the backlog of its own queues at the end.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from typing import Sequence

from aoisched.metrics import RunReport, UeMetrics, assemble_cost
from aoisched.model import Scenario, ScenarioError, Variant
from aoisched.sim import RunConfig
from numpy_streams import numpy_substreams


class SlotCmuPolicy:
    """Weighted-rate rule over latency UEs only: serve the nonempty queue
    with the largest rho*p/q, oldest packet first.  Positions index the UEs
    sorted by id; ties break toward the lower position."""

    def __init__(self, scenario: Scenario):
        lat = scenario.latency_ues
        if len(lat) != len(scenario.ues):
            raise ScenarioError("weighted-rate rule runs on latency-only scenarios")
        if scenario.variant is not Variant.LATENCY_WEIGHTED:
            raise ScenarioError("weighted-rate rule needs latency weights (rho)")
        ues = sorted(lat, key=lambda u: u.id)
        order = sorted(range(len(ues)), key=lambda i: (-(ues[i].rho * ues[i].p / ues[i].q), i))
        self.order = order                          # positions, service priority first
        self._rank_of = {i: r for r, i in enumerate(order)}
        self.queues: list[deque[int]] = [deque() for _ in ues]
        self._ready: list[int] = []                 # ranks of nonempty queues, ascending

    def update_index(self, t: int, arrived: Sequence[int]) -> None:
        for i in arrived:
            queue = self.queues[i]
            if not queue:
                insort(self._ready, self._rank_of[i])
            queue.append(t)

    def select(self, t: int) -> tuple[int, int] | None:
        if not self._ready:
            return None
        i = self.order[self._ready[0]]
        return i, self.queues[i][0]

    def on_outcome(self, action: tuple[int, int], success: bool, t: int) -> None:
        if success:
            i = action[0]
            queue = self.queues[i]
            queue.popleft()
            if not queue:
                self._ready.remove(self._rank_of[i])


def run_slots(config: RunConfig) -> RunReport:
    """``sim.run`` for ``cmu``, one slot at a time."""
    scenario, horizon, warmup = config.scenario, config.horizon, config.warmup
    policy = SlotCmuPolicy(scenario)
    ues = sorted(scenario.ues, key=lambda u: u.id)
    metrics = [UeMetrics(u.id, u.cls) for u in ues]
    arrival_gens, _, success_gen = numpy_substreams(config.seed, len(ues))
    # slot t reads draw t of every stream; draw 0 is never used
    arrival_u = [gen.random(horizon + 1).tolist() for gen in arrival_gens]
    success_u = success_gen.random(horizon + 1).tolist()
    for t in range(1, horizon + 1):
        arrived = [i for i, u in enumerate(ues) if arrival_u[i][t] < u.q]
        for i in arrived:
            metrics[i].on_arrival([t])
        policy.update_index(t, arrived)
        action = policy.select(t)
        if action is not None:
            i, g = action
            metrics[i].attempts += 1
            success = success_u[t] < ues[i].p
            if success:
                metrics[i].on_delivery([g], [t])
            policy.on_outcome(action, success, t)
        if t == warmup:
            for m in metrics:
                m.reset_window()

    effective = horizon - warmup
    per_ue = {u.id: m.finalize(effective, (len(queue), sum(queue)))
              for u, m, queue in zip(ues, metrics, policy.queues)}
    cost, f1, f2 = assemble_cost(per_ue, scenario, effective)
    return RunReport(policy="cmu", seed=config.seed, horizon=horizon, per_ue=per_ue,
                     cost_objective=cost, f1=f1, f2=f2)
