"""Scheduling policies.

``hier`` and ``vw`` (``HierarchicalPolicy``) share a per-slot shape: an
index update fed with the slot's arrivals, a selection step returning at
most one transmission, and an outcome hook.  The randomised policy
(``RandomizedPolicy``, ``rd``) and the weighted-rate rule (``CmuPolicy``)
have the same three steps over runs of slots, ``update_index`` over a
block, ``select`` over a block's slots on one side of the warm-up's end
and ``on_outcome`` over a window, and serve in compiled code
(``kernel``).  The two-tier policies keep a pool of
retained high-priority packets (at most one per AoI UE; under
``hier``/``vw`` also the whole queue per latency UE); whenever that pool is
nonempty its best-index packet is sent, and only an empty pool lets the
throughput tier transmit (``rd`` first gives each queued latency UE its
probability share).  Ties break toward the lowest UE id everywhere, which
keeps runs reproducible.  Every policy is the only holder of its
undelivered packets: ``backlog()`` gives each position's count and sum of
their arrival slots, for the engine to pass to ``UeMetrics.finalize`` at
the horizon.  Each policy owns the ``kernel.QueueStore`` its arrival
streams fill, and takes each block's draws from the states the engine
seeds for it (``rng`` states the layout).

State is indexed by UE *position* (``Scenario.positions``, see ``rng``).
In ``HierarchicalPolicy`` ``update_index`` takes
the positions that saw an arrival, in ascending order, and may be skipped
on slots without arrivals; ``select(t)`` returns at most one transmission,
a ``(position, g)`` tuple, ``g`` being the arrival slot of the packet
sent.  ``on_outcome`` changes nothing on a failed AoI or latency attempt,
so it may be skipped then.  Indices change only on these events, so the
policy keeps its argmax cached and ``select`` does no work that grows with
the number of UEs (the throughput tier's, with the number of distinct
``(alpha, p)`` pairs).

AoI eligibility is gated by a counter: an arrival in slot t bumps the
counter only if more than ``threshold`` slots passed since the previous
bump, and while the counter exceeds the UE's delivery count every new
arrival replaces the retained packet (fresher data supersedes older).
"""

from __future__ import annotations

import ctypes
import math
from array import array
from heapq import heapreplace
from itertools import accumulate
from typing import Sequence

import numpy as np

from . import kernel
from .metrics import UeMetrics, add_sums
from .model import Scenario, ScenarioError, UeClass, UeConfig, Variant, theta_j
from .solver import TStarSolution, compute_t_star, hier_threshold


def thresholds_for(scenario: Scenario, zeta: float) -> tuple[dict[int, int], TStarSolution | None]:
    """Counter thresholds from the spacing program; empty without AoI UEs."""
    aoi = scenario.aoi_ues
    if not aoi:
        return {}, None
    sol = compute_t_star(aoi, zeta)
    return {u.id: hier_threshold(sol.t_star[u.id], u.q) for u in aoi}, sol


def throughput_groups(ues: Sequence[UeConfig]) -> list[list[int]]:
    """The positions of the throughput UEs among ``ues`` (by position),
    grouped by ``(alpha, p)``: each group ascending, the groups in the order
    of their first members.  A group's members share ``alpha*t/p``, so the
    throughput tier's argmax within it is the member with the fewest
    attempts, lowest position first."""
    groups: dict[tuple[float, float], list[int]] = {}
    for i, u in enumerate(ues):
        if u.cls is UeClass.THROUGHPUT:
            groups.setdefault((u.alpha, u.p), []).append(i)
    return list(groups.values())


class _TwoTier:
    """The slot-by-slot two-tier state, one list entry per UE position, of
    ``HierarchicalPolicy`` and of the tests' per-slot ``rd`` oracle
    (``RandomizedPolicy`` keeps the same state in ``_kernel.c``).

    * The AoI eligibility gate: last bump slot ``a``, counter ``b``,
      ``deliveries``, newest delivered arrival slot ``lam`` and the
      retained packet ``s_packet``.
    * The index ``W`` of every ``pool`` member, and the cached pool
      argmax (largest index, lowest position on ties).
    * The latency ``queues``: the arrival slots of each latency UE's
      undelivered packets, newest last (``None`` for other classes).
    * The throughput tier: argmax of ``alpha*t/p - attempts``, a heap of
      ``(attempts, position)`` per ``throughput_groups`` group (below 2**52
      distinct attempt counts never round to the same index).
    """

    def __init__(self, scenario: Scenario, thresholds: dict[int, int]):
        ues = scenario.positions
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
        self._thr_groups = [(ues[m[0]].alpha, ues[m[0]].p, [(0, i) for i in m])
                            for m in throughput_groups(ues)]
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

    def backlog(self) -> list[tuple[int, int]]:
        """Each position's count and sum of arrival slots of undelivered
        packets: a latency UE's queue, an AoI UE's retained packet."""
        return [(len(queue), sum(queue)) if queue is not None else (0, 0) if g is None else (1, g)
                for queue, g in zip(self.queues, self.s_packet)]


class HierarchicalPolicy(_TwoTier):
    """Index policy with a strict two-tier hierarchy.

    Without a weight period ``f`` this is "hier": the latency weights come
    from a latency-weighted scenario and never change.  Given ``f`` >= 1 it is
    "vw", for latency-constrained scenarios: the latency weights are
    virtual, start at 1, and at every ``f``-th slot the engine moves them
    by ``eta`` (finite, > 0) times the gap between the UE's running average
    latency and its ceiling, floored at zero.  A latency UE's index is set
    from its weight when a packet arrives, so a weight step reaches the
    index at the UE's next arrival.  ``weight_log`` maps each latency UE's
    id, ascending, to the ``array('d')`` of its weight after every step:
    8 bytes per latency UE per step.
    """

    name = "hier"

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
            self.weight_log = {ues[j].id: array("d") for j in self.lat}
        self._p = [u.p for u in ues]
        self._q = [u.q for u in ues]
        # each block's arrival slots, queue i of ``store``, which the engine
        # draws and reads (their head stays 0); success is drawn apart
        self.store = kernel.QueueStore(self._q, np.empty((0, kernel.CHUNK)))

    def update_virtual_weights(self, latencies: Sequence[float | None]) -> None:
        """One weight step from each latency UE's running latency, in ``lat``
        order (None: no arrival yet, so the weight stays), appending each
        weight to the UE's array in ``weight_log``."""
        rho = self.virtual_rho
        for j, lbar, log in zip(self.lat, latencies, self.weight_log.values(), strict=True):
            if lbar is not None:
                rho[j] = max(0.0, rho[j] - self.eta * (self.ues[j].beta - lbar))
            log.append(rho[j])

    def update_index(self, t: int, arrived: Sequence[int]) -> None:
        for i in arrived:
            queue = self.queues[i]
            if queue is None:
                self._aoi_arrival(i, t)
            else:
                queue.append(t)
                self._retain(i, self.virtual_rho[i] * self._p[i] / self._q[i])

    def select(self, t: int) -> tuple[int, int] | None:
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


class RandomizedPolicy:
    """Two-tier selection for AoI/throughput plus randomised latency
    service, served a block of slots at a time.

    In every slot the policy uniform picks a latency UE with a queued
    packet by its fixed probability share theta: the shares of the queued
    UEs, in ascending position, partition [0, 1), and if they exceed the
    whole slot they are scaled down proportionally (the latency ceilings
    are then unattainable and the leftover share is zero).  The chosen UE
    sends its newest packet.  A draw in the leftover goes to the
    deterministic candidate: the retained AoI packet with the largest
    ``rho*p*(t - lam)``, else the throughput UE with the largest
    ``alpha*t/p - attempts``, lowest position on ties.

    As under ``CmuPolicy``, ``update_index`` draws a block, enqueueing its
    arrivals (``kernel.QueueStore.draw``), ``select`` serves slots
    [a, b) of it in one call of ``kernel.rd_serve``, which takes each
    slot's arrivals from a timing wheel that lists the streams by the slot
    of their next arrival, each arrival at the same cost however many
    streams there are, and adds to each position's row of sums, and
    ``on_outcome``, once per window, adds the rows to the UEs' metrics and
    closes the window.  Like ``_TwoTier`` in Python, the kernel keeps the
    pool's argmax as packets are retained, each throughput group's
    candidate as its members attempt and the queued latency UEs' partition
    as they change, so no step of a slot walks every UE; it keeps that
    serving state between calls, in ``frame``, so a block served in many
    calls is served as in one.  A latency UE's queued packets, newest
    first, are a stack in its queue's storage below the arrivals not yet
    taken (``kernel.QueueStore``), so they grow with the queue and a call
    never stops for room.  The block's uniforms (``block``), the kernel's
    per-UE state, the wheel (a slot of the block each) and every address
    the kernels take (``frame``, ``_kernel.c``'s ``struct rd``) are bound
    here, once, so a call converts no array and the C stack holds no
    per-UE state at any number of UEs.
    """

    name = "rd"

    def __init__(self, scenario: Scenario, thresholds: dict[int, int]):
        if scenario.latency_ues and scenario.variant is not Variant.LATENCY_CONSTRAINED:
            raise ScenarioError("randomised policy needs latency ceilings (beta)")
        ues = scenario.positions
        n = len(ues)
        aoi = [i for i, u in enumerate(ues) if u.cls is UeClass.AOI]
        lat = [i for i, u in enumerate(ues) if u.cls is UeClass.LATENCY]
        thr = throughput_groups(ues)
        ue = np.zeros(n, kernel.UE_STATE)
        ue["packet"] = ue["g_prev"] = -1
        ue["p"] = [u.p for u in ues]
        for i in aoi:
            # no slot difference reaches 2**63 - 1: a larger threshold gates alike
            ue["threshold"][i] = min(thresholds[ues[i].id], 2 ** 63 - 1)
            ue["weight"][i] = ues[i].rho * ues[i].p
        for i in lat:
            ue["weight"][i] = theta_j(ues[i].q, ues[i].p, ues[i].beta)
        for members in thr:
            for i in members:
                ue["weight"][i] = ues[i].alpha
        self.ue = ue
        # the block's success and policy uniforms, drawn with its arrivals;
        # each AoI and latency UE's arrival slots not yet served, queue i of
        # ``store``, below which a latency UE keeps its stack
        self.block = np.empty((2, kernel.CHUNK))
        self.store = kernel.QueueStore([u.q for u in ues], self.block)
        # each position's sums since on_outcome last ran
        self.sums = np.zeros((n, kernel.NSUMS), np.int64)
        # AoI, latency, then each throughput group's members, ascending,
        # and where each group starts among the throughput ones; the
        # serving state rd_serve keeps between calls (the queued latency
        # UEs and their partition, the pool, each group's turn, all empty
        # or 0 at first), then its scratch: a timing wheel over a block's
        # slots and each arrival stream's link and cursor
        streams = len(aoi) + len(lat)
        self._buffers = (np.array(aoi + lat + [i for m in thr for i in m], np.int64),
                         np.array([0, *accumulate(len(m) for m in thr)], np.int64), ue, self.sums,
                         np.empty(len(lat), np.int64), np.empty(len(lat)),
                         np.empty(len(aoi), np.int64), np.zeros(len(thr), np.int64),
                         np.empty(self.store.width, np.int64), np.empty(streams, np.int64),
                         np.empty(streams, np.int64))
        self.frame = kernel.Rd(ctypes.pointer(self.store.frame), kernel.address(self.block[0]),
                               kernel.address(self.block[1]), len(aoi), len(lat), len(thr),
                               *map(kernel.address, self._buffers), 0, 0, -1)

    def update_index(self, start: int, n: int, states: np.ndarray) -> None:
        """Draw the block of ``n`` slots from ``start`` from ``states``
        (``rng.stream_states``), advancing them: the arrival streams into
        ``store``'s queues, the success and policy streams into ``block[0]``
        and ``block[1]``."""
        self.store.draw(start, n, states)

    def select(self, a: int, b: int) -> None:
        """Serve slots [a, b) of the block drawn last, whose success and
        policy uniforms are in ``block[0]`` and ``block[1]`` from its first
        slot on, adding each position's sums over them to its row of
        ``sums``; slots outside the block, or after an arrival not yet
        served (each call takes up where the last left off), raise
        ValueError."""
        if kernel.rd_serve(self.frame, a, b):
            raise ValueError(f"slots [{a}, {b}) are not in the block drawn, or skip an "
                             f"arrival not yet served")

    def on_outcome(self, metrics: Sequence[UeMetrics]) -> None:
        """Close the window: add each position's sums to its metrics, zero
        them, and forget each position's last delivery, so no spacing
        sample spans two windows."""
        add_sums(metrics, self.sums)
        self.ue["g_prev"] = -1

    def backlog(self) -> list[tuple[int, int]]:
        """Each position's count and sum of arrival slots of undelivered
        packets: a latency UE's stack, an AoI UE's retained packet."""
        store = self.store
        return [(d, int(queue[:d].sum())) if d else (1, g) if g >= 0 else (0, 0)
                for queue, d, g in zip(store.queues, store.depth.tolist(),
                                       self.ue["packet"].tolist())]


class CmuPolicy:
    """Weighted-rate rule over latency UEs only: in every slot, serve the
    nonempty queue with the largest rho*p/q (ties toward the lower
    position), oldest packet first, served a block of slots at a time.

    A strict priority over first-in-first-out queues needs no per-slot
    call.  ``update_index`` draws a block, its arrivals into the queues
    and its success uniforms into ``block``, in one compiled call
    (``kernel.QueueStore.draw``), ``select`` serves slots [a, b) of it in
    one compiled pass (``kernel.cmu_serve``), adding to each queue's sums,
    its arrivals included, and ``on_outcome``, once per window, adds them
    to the UEs' metrics and closes the window.  The block's uniforms
    (``block``) and every address the kernels take (``frame``,
    ``_kernel.c``'s ``struct cmu``) are bound here, once.  Before a block,
    a queue is compacted in place when no more of its packets are live than
    have left it, and its storage grows by doubling when the block's
    arrivals still do not fit, so enqueueing a block costs its arrivals,
    not the backlog.
    """

    name = "cmu"

    def __init__(self, scenario: Scenario):
        if not scenario.ues:  # cmu_serve's tree is over at least one queue
            raise ScenarioError("scenario needs at least one ue")
        if len(scenario.latency_ues) != len(scenario.ues):
            raise ScenarioError("weighted-rate rule runs on latency-only scenarios")
        if scenario.variant is not Variant.LATENCY_WEIGHTED:
            raise ScenarioError("weighted-rate rule needs latency weights (rho)")
        ues = scenario.positions
        n = len(ues)
        self.order = sorted(range(n), key=lambda i: (-(ues[i].rho * ues[i].p / ues[i].q), i))
        # the block's success uniforms, drawn with its arrivals; the arrival
        # slots of each queue's undelivered packets, of which those after
        # the slots being served have not arrived yet
        self.block = np.empty((1, kernel.CHUNK))
        self.store = kernel.QueueStore([u.q for u in ues], self.block)
        # each queue's last delivered arrival slot (-1: none since the run or
        # the warm-up began), its sums since on_outcome last ran, and
        # cmu_serve's tree
        self.g_prev = np.full(n, -1, np.int64)
        self.sums = np.zeros((n, kernel.NSUMS), np.int64)
        self._buffers = (np.array(self.order, np.int64), np.array([u.p for u in ues]),
                         self.g_prev, self.sums, np.empty(4 * n, np.int64))
        self.frame = kernel.Cmu(ctypes.pointer(self.store.frame), kernel.address(self.block), n,
                                *map(kernel.address, self._buffers))

    def update_index(self, start: int, n: int, states: np.ndarray) -> None:
        """Draw the block of ``n`` slots from ``start`` from ``states``
        (``rng.stream_states``), advancing them: the arrival streams into
        ``store``'s queues, the success stream into ``block[0]``."""
        self.store.draw(start, n, states)

    def select(self, a: int, b: int) -> None:
        """Serve slots [a, b) of the block drawn last, whose success
        uniforms are in ``block[0]`` from its first slot on, adding each
        position's sums over them to its row of ``sums``; slots outside the
        block raise ValueError."""
        if kernel.cmu_serve(self.frame, a, b):
            raise ValueError(f"slots [{a}, {b}) are not in the block drawn")

    def on_outcome(self, metrics: Sequence[UeMetrics]) -> None:
        """Close the window: add each position's sums to its metrics, zero
        them, and forget each queue's last delivery, so no spacing sample
        spans two windows."""
        add_sums(metrics, self.sums)
        self.g_prev.fill(-1)

    def backlog(self) -> list[tuple[int, int]]:
        """Each queue's count and sum of arrival slots of undelivered packets."""
        store = self.store
        return [(e - h, int(queue[h:e].sum()) if e > h else 0)
                for queue, h, e in zip(store.queues, store.head.tolist(), store.end.tolist())]
