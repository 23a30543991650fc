"""List-based reference for the two-tier engine (``hier``, ``vw``, ``rd``).

``sim.run`` reads each block's draws in place from their numpy buffers.
This module keeps the block loop as it ran before that, so tests can
compare the two: ``run_blocks`` turns each block's success and policy
uniforms into Python float lists and each stream's arrival slots into an
int list (``.tolist()``), gives a slot with several arrivals a list of
its own, and slices all of them per segment.  For ``hier`` and ``vw`` the
policies, the metrics and the report are ``aoisched``'s own; only the
loop that feeds them the draws lives here.  ``sim.run`` serves ``rd`` a
segment at a time in compiled code (``policies.RandomizedPolicy``), so
its per-slot form lives here too: ``SlotRandomizedPolicy``, the class as
the engine ran it before.  The draws come from numpy's own generators
(``numpy_streams``), not from the kernel the engine draws with.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from itertools import repeat
from typing import Sequence

import numpy as np

from aoisched.metrics import RunReport, UeMetrics, aoi_decomposition_audit, assemble_cost
from aoisched.model import Scenario, ScenarioError, UeClass, Variant, theta_j
from aoisched.policies import RandomizedPolicy, _TwoTier
from aoisched.sim import CHUNK, RunConfig, build_policy
from numpy_streams import numpy_substreams


class SlotRandomizedPolicy(_TwoTier):
    """Two-tier selection for AoI/throughput plus randomised latency
    service, one slot at a time (``policies.RandomizedPolicy`` serves a
    segment per call).

    Each latency UE with a queued packet is served with its fixed
    probability share; the leftover goes to the deterministic candidate.
    If the queued shares exceed the whole slot they are scaled down
    proportionally (the latency ceilings are then unattainable and the
    leftover share is zero).
    """

    name = "rd"

    def __init__(self, scenario: Scenario, thresholds: dict[int, int]):
        if scenario.latency_ues and scenario.variant is not Variant.LATENCY_CONSTRAINED:
            raise ScenarioError("randomised policy needs latency ceilings (beta)")
        super().__init__(scenario, thresholds)
        self.theta = [theta_j(u.q, u.p, u.beta) if u.cls is UeClass.LATENCY else None
                      for u in self.ues]
        self._queued: list[int] = []    # latency positions with a packet, ascending
        self._cum: list[float] = []     # upper ends of their service intervals

    def _partition(self) -> None:
        queued = self._queued
        total = 0.0
        for j in queued:  # in order: from Python 3.12, sum() compensates
            total += self.theta[j]
        scale = 1.0 if total <= 1.0 else 1.0 / total
        acc = 0.0
        cum = []
        for j in queued:
            acc += self.theta[j] * scale
            cum.append(acc)
        self._cum = cum

    def update_index(self, t: int, arrived: Sequence[int]) -> None:
        regroup = False
        for i in arrived:
            queue = self.queues[i]
            if queue is None:
                self._aoi_arrival(i, t)
            else:
                if not queue:
                    insort(self._queued, i)
                    regroup = True
                queue.append(t)
        if regroup:
            self._partition()

    def select(self, t: int, draw: float) -> tuple[int, int] | None:
        k = bisect_right(self._cum, draw)
        if k < len(self._cum):
            j = self._queued[k]
            return j, self.queues[j][-1]
        best = self._best
        if best is not None:
            return best, self.s_packet[best]
        k = self._throughput_best(t)
        return (k, t) if k is not None else None

    def on_outcome(self, action: tuple[int, int], success: bool, t: int) -> None:
        i, g = action
        if i in self._thr_heap:
            self._throughput_attempted(i)
            return
        if not success:
            return
        queue = self.queues[i]
        if queue is None:
            self._aoi_delivered(i, g)
            return
        queue.pop()
        if not queue:
            self._queued.remove(i)
            self._partition()


def _arrivals(n: int, start: int, streams) -> list:
    """Positions arriving in each of the ``n`` slots from ``start`` on,
    ascending, or None; each stream's arrival slots also go to its UE's
    metrics.  Slot 0 is left out."""
    slots: list = [None] * n
    for pos, gen, q, m in streams:
        hit = np.flatnonzero(gen.random(n) < q)
        if start == 0:
            hit = hit[hit.searchsorted(1):]
        hit += start
        m.log_arrivals(hit)
        alone = (pos,)
        for s in (hit - start).tolist():
            at = slots[s]
            if at is None:
                slots[s] = alone
            elif at.__class__ is tuple:
                slots[s] = [at[0], pos]
            else:
                at.append(pos)
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


def run_blocks(config: RunConfig) -> RunReport:
    """``sim.run`` for the two-tier policies, over list copies of each block's draws."""
    scenario, horizon, warm_end = config.scenario, config.horizon, config.warmup
    policy, extras = build_policy(config)
    if policy.name not in ("hier", "vw", "rd"):
        raise ScenarioError(f"{policy.name!r} is not a two-tier policy")
    randomized = isinstance(policy, RandomizedPolicy)
    if randomized:
        policy = SlotRandomizedPolicy(scenario, extras.get("thresholds", {}))

    ues = sorted(scenario.ues, key=lambda u: u.id)
    metrics = [UeMetrics(u.id, u.cls) for u in ues]
    is_thr = [u.cls is UeClass.THROUGHPUT for u in ues]
    arriving = [i for i, thr in enumerate(is_thr) if not thr]

    arrival_gens, policy_gen, success_gen = numpy_substreams(config.seed, len(arriving))
    streams = [(i, gen, ues[i].q, metrics[i]) for i, gen in zip(arriving, arrival_gens)]
    every = config.policy.f if policy.name == "vw" else 0

    # slot 0 is drawn and never used, so slot t is draw t of every stream
    for start in range(0, horizon + 1, CHUNK):
        n = min(CHUNK, horizon + 1 - start)
        arrivals = _arrivals(n, start, streams)
        success_u = success_gen.random(n).tolist()
        policy_u = policy_gen.random(n).tolist() if randomized else None
        for a, b in _segments(max(start, 1), start + n, every, warm_end):
            if every and a % every == 0:
                policy.update_virtual_weights(
                    [metrics[i].latency_now(a, policy.queues[i]) for i in policy.lat])
            lo, hi = a - start, b - start
            draws = policy_u[lo:hi] if policy_u is not None else repeat(None)
            for t, arrived, u, draw in zip(range(a, b), arrivals[lo:hi],
                                           success_u[lo:hi], draws):
                if arrived is not None:
                    policy.update_index(t, arrived)
                action = policy.select(t, draw) if randomized else policy.select(t)
                if action is None:
                    continue
                i, g = action
                metrics[i].attempts += 1
                if u < ues[i].p:
                    metrics[i].dg.append(g)
                    metrics[i].dt.append(t)
                    policy.on_outcome(action, True, t)
                elif is_thr[i]:
                    policy.on_outcome(action, False, t)
            if b - 1 == warm_end:
                for m in metrics:
                    m.fold(b)
                    if m.is_aoi:
                        m.accrue_age(warm_end)
                    m.reset_window()
        for m in metrics:
            m.fold(start + n)
    for m in metrics:
        if m.is_aoi:
            m.accrue_age(horizon)

    effective = horizon - warm_end
    per_ue = {u.id: m.finalize(effective, pending)
              for u, m, pending in zip(ues, metrics, policy.backlog())}
    cost, f1, f2 = assemble_cost(per_ue, scenario, effective)
    audit = {}
    for u in scenario.aoi_ues:
        res = aoi_decomposition_audit(per_ue[u.id], effective)
        if res is not None:
            audit[u.id] = res
    return RunReport(policy=policy.name, seed=config.seed, horizon=horizon, per_ue=per_ue,
                     cost_objective=cost, f1=f1, f2=f2, audit=audit, extras=extras)
