"""Scheduling policies.

The two-tier policies share the same per-slot shape: an index update fed
with the slot's arrivals, a selection step returning at most one
transmission, and an outcome hook.  The weighted-rate rule
(``CmuPolicy``, defined in ``cmu`` and imported here with the others) has
the same three steps, each over a block or a segment of slots.  The
hierarchical policies keep a pool of retained high-priority packets (at
most one per AoI UE, the whole queue per latency UE); whenever that pool
is nonempty its best-index packet is sent, and only an empty pool lets the
throughput tier transmit.  Ties break toward the lowest UE id everywhere,
which keeps runs reproducible.

State is indexed by UE *position*: the UE's index in the scenario's UEs
sorted by ascending id.  In the two-tier policies ``update_index`` takes
the positions that saw an arrival, in ascending order, and may be skipped
on slots without arrivals; ``select(t, draw)`` gets the slot's policy
uniform, or None for policies that take none (``needs_draw``), and
returns at most one transmission, a ``(position, g)`` tuple, ``g`` being
the arrival slot of the packet sent.
``on_outcome`` changes nothing on a failed AoI or latency attempt, so it
may be skipped then.  Indices change only on these events, so each policy
keeps its argmax cached and ``select`` does no work that grows with the
number of UEs (the throughput tier's, with the number of distinct
``(alpha, p)`` pairs).

AoI eligibility is gated by a counter: an arrival in slot t bumps the
counter only if more than ``threshold`` slots passed since the previous
bump, and while the counter exceeds the UE's delivery count every new
arrival replaces the retained packet (fresher data supersedes older).
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from heapq import heapreplace
from typing import Sequence

from .cmu import CmuPolicy
from .model import Scenario, ScenarioError, UeClass, Variant, theta_j
from .solver import TStarSolution, compute_t_star, hier_threshold


def thresholds_for(scenario: Scenario, zeta: float) -> tuple[dict[int, int], TStarSolution | None]:
    """Counter thresholds from the spacing program; empty without AoI UEs."""
    aoi = scenario.aoi_ues
    if not aoi:
        return {}, None
    sol = compute_t_star(aoi, zeta)
    return {u.id: hier_threshold(sol.t_star[u.id], u.q) for u in aoi}, sol


class _TwoTier:
    """State the two-tier policies share, one list entry per UE position.

    * The AoI eligibility gate: last bump slot ``a``, counter ``b``,
      ``deliveries``, newest delivered arrival slot ``lam`` and the
      retained packet ``s_packet``.
    * The index ``W`` of every ``pool`` member, and the cached pool
      argmax (largest index, lowest position on ties).
    * The latency ``queues`` (``None`` for other classes).
    * The throughput tier: argmax of ``alpha*t/p - attempts``.  UEs that
      share ``(alpha, p)`` share ``alpha*t/p``, and below 2**52 distinct
      attempt counts never round to the same index, so within such a
      group the argmax is the member with the fewest attempts, lowest
      position first: a heap of ``(attempts, position)`` per group.
    """

    def __init__(self, scenario: Scenario, thresholds: dict[int, int]):
        ues = sorted(scenario.ues, key=lambda u: u.id)
        n = len(ues)
        self.ues = ues
        self.W = [0.0] * n
        self.a = [0] * n
        self.b = [0] * n
        self.deliveries = [0] * n
        self.lam = [0] * n
        self.s_packet: list[int | None] = [None] * n
        self.thresholds = [thresholds.get(u.id) for u in ues]
        self.queues = [[] if u.cls is UeClass.LATENCY else None for u in ues]
        self._aoi_w = [u.rho * u.p if u.cls is UeClass.AOI else None for u in ues]
        self.pool: set[int] = set()
        self._best: int | None = None
        self._best_w = -1.0
        groups: dict[tuple[float, float], list] = {}
        for i, u in enumerate(ues):
            if u.cls is UeClass.THROUGHPUT:
                groups.setdefault((u.alpha, u.p), []).append((0, i))
        self._thr_groups = [(alpha, p, heap) for (alpha, p), heap in groups.items()]
        self._thr_heap = {i: heap for _, _, heap in self._thr_groups for _, i in heap}

    def _aoi_arrival(self, i: int, t: int) -> None:
        """Gate an AoI arrival; retain it while the counter is ahead."""
        if t - self.a[i] > self.thresholds[i]:
            self.a[i] = t
            self.b[i] += 1
        if self.b[i] > self.deliveries[i]:
            self.s_packet[i] = t
            self._retain(i, self._aoi_w[i] * (t - self.lam[i]))

    def _aoi_delivered(self, i: int, g: int) -> None:
        if self.lam[i] < g:
            self.lam[i] = g
        self.deliveries[i] += 1
        self.s_packet[i] = None
        assert self.deliveries[i] <= self.b[i]
        self._release(i)

    def _retain(self, i: int, w: float) -> None:
        """Put i in the pool with index w, keeping the cached argmax current."""
        self.W[i] = w
        self.pool.add(i)
        best, best_w = self._best, self._best_w
        if i == best:
            if w < best_w:
                self._rescan()
            else:
                self._best_w = w
        elif best is None or w > best_w or (w == best_w and i < best):
            self._best, self._best_w = i, w

    def _release(self, i: int) -> None:
        self.W[i] = 0.0
        self.pool.discard(i)
        if i == self._best:
            self._rescan()

    def _rescan(self) -> None:
        W = self.W
        best, best_w = None, -1.0
        for i in self.pool:
            w = W[i]
            if best is None or w > best_w or (w == best_w and i < best):
                best, best_w = i, w
        self._best, self._best_w = best, best_w

    def _throughput_best(self, t: int) -> int | None:
        best = None
        best_y = -math.inf
        for alpha, p, heap in self._thr_groups:
            n, i = heap[0]
            y = alpha * t / p - n
            if y > best_y or (y == best_y and i < best):
                best, best_y = i, y
        return best

    def _throughput_attempted(self, i: int) -> None:
        heap = self._thr_heap[i]
        n, top = heap[0]
        assert top == i, "only the throughput argmax is ever attempted"
        heapreplace(heap, (n + 1, i))

    def pending_aoi_packets(self) -> dict[int, int]:
        """Arrival slot of each retained AoI packet, by position."""
        return {i: g for i, g in enumerate(self.s_packet) if g is not None}


class HierarchicalPolicy(_TwoTier):
    """Index policy with a strict two-tier hierarchy.

    Without a weight period ``f`` this is "hier": the latency weights come
    from a latency-weighted scenario and never change.  Given ``f`` >= 1 it is
    "vw", for latency-constrained scenarios: the latency weights are
    virtual, start at 1, and at every ``f``-th slot the engine moves them
    by ``eta`` (finite, > 0) times the gap between the UE's running average
    latency and its ceiling, floored at zero.  A latency UE's index is set
    from its weight when a packet arrives, so a weight step reaches the
    index at the UE's next arrival.
    """

    name = "hier"
    needs_draw = False

    def __init__(self, scenario: Scenario, thresholds: dict[int, int],
                 f: int | None = None, eta: float = 0.1):
        if f is None:
            if scenario.latency_ues and scenario.variant is not Variant.LATENCY_WEIGHTED:
                raise ScenarioError("policy 'hier' needs latency weights; use 'vw' or 'rd' "
                                    "with latency ceilings")
        elif f < 1:
            raise ScenarioError(f"policy 'vw' needs a weight period f >= 1, got {f}")
        elif not 0 < eta < math.inf:
            raise ScenarioError(f"policy 'vw' needs a finite weight step eta > 0, got {eta}")
        elif scenario.latency_ues and scenario.variant is not Variant.LATENCY_CONSTRAINED:
            raise ScenarioError("policy 'vw' needs latency ceilings (beta)")
        super().__init__(scenario, thresholds)
        ues = self.ues
        self.lat = [i for i, u in enumerate(ues) if u.cls is UeClass.LATENCY]
        if f is None:
            self.virtual_rho = [u.rho if u.cls is UeClass.LATENCY else None for u in ues]
        else:
            self.name = "vw"
            self.eta = eta
            self.virtual_rho = [1.0 if u.cls is UeClass.LATENCY else None for u in ues]
            self.weight_log: list[dict[int, float]] = []
        self._p = [u.p for u in ues]
        self._q = [u.q for u in ues]

    def update_virtual_weights(self, latency_now: dict[int, float | None]) -> None:
        """One weight step from each latency UE's running latency, by position."""
        rho = self.virtual_rho
        for j in self.lat:
            lbar = latency_now.get(j)
            if lbar is None:
                continue
            rho[j] = max(0.0, rho[j] - self.eta * (self.ues[j].beta - lbar))
        self.weight_log.append({self.ues[j].id: rho[j] for j in self.lat})

    def update_index(self, t: int, arrived: Sequence[int]) -> None:
        for i in arrived:
            queue = self.queues[i]
            if queue is None:
                self._aoi_arrival(i, t)
            else:
                queue.append(t)
                self._retain(i, self.virtual_rho[i] * self._p[i] / self._q[i])

    def select(self, t: int, draw: float | None = None) -> tuple[int, int] | None:
        best = self._best
        if best is not None:
            queue = self.queues[best]
            return best, (self.s_packet[best] if queue is None else queue[-1])
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
        queue.pop()  # newest was transmitted
        if not queue:
            self._release(i)


class RandomizedPolicy(_TwoTier):
    """Two-tier selection for AoI/throughput plus randomised latency service.

    Each latency UE with a queued packet is served with its fixed
    probability share; the leftover goes to the deterministic candidate.
    If the queued shares exceed the whole slot they are scaled down
    proportionally (the latency ceilings are then unattainable and the
    leftover share is zero).
    """

    name = "rd"
    needs_draw = True

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
        total = sum(self.theta[j] for j in queued)
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
