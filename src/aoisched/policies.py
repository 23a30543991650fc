"""Scheduling policies.

``hier`` and ``vw`` (``HierarchicalPolicy``) share a per-slot shape: an
index update fed with the slot's arrivals, a selection step returning at
most one transmission, and an outcome hook.  The randomised policy
(``RandomizedPolicy``, ``rd``) and the weighted-rate rule (``CmuPolicy``)
have the same three steps, each over a block or a segment of slots, and
serve in compiled code (``kernel``).  The two-tier policies keep a pool of
retained high-priority packets (at most one per AoI UE; under
``hier``/``vw`` also the whole queue per latency UE); whenever that pool is
nonempty its best-index packet is sent, and only an empty pool lets the
throughput tier transmit (``rd`` first gives each queued latency UE its
probability share).  Ties break toward the lowest UE id everywhere, which
keeps runs reproducible.  Every policy is the only holder of its
undelivered packets: ``backlog()`` gives each position's count and sum of
their arrival slots, for the engine to pass to ``UeMetrics.finalize`` at
the horizon.

State is indexed by UE *position*: the UE's index in the scenario's UEs
sorted by ascending id.  In ``HierarchicalPolicy`` ``update_index`` takes
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

import math
from array import array
from heapq import heapreplace
from itertools import accumulate
from typing import Sequence

import numpy as np

from . import kernel
from .metrics import UeMetrics, add_sums
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
    * The latency ``queues``: the arrival slots of each latency UE's
      undelivered packets, newest last (``None`` for other classes).
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


# One UE's state under ``rd``, laid out as ``_kernel.c``'s ``struct ue``:
# the address and depth of a latency UE's stack, the AoI gate, the
# throughput tier's tries, then the doubles.
UE_STATE = np.dtype([("stack", np.uintp)]
                    + [(name, np.int64) for name in (
                        "depth", "threshold", "bump", "counter", "delivered", "packet",
                        "lam", "aged", "g_prev", "tries")]
                    + [(name, np.float64) for name in ("p", "weight", "index")])


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

    ``update_index`` draws a block's arrivals and lists them in slot order
    (``kernel.rd_list``), ``select`` serves slots [a, b) in one call of
    ``kernel.rd_serve`` and ``on_outcome`` adds each position's sums over
    them to its UE's metrics.  Like ``_TwoTier`` in Python, the kernel
    keeps the pool's argmax as packets are retained and each throughput
    group's candidate as its members attempt, so no step of a slot walks
    every UE.  The kernel's per-UE scratch is allocated here, once, so the
    C stack holds none of it at any number of UEs.
    """

    name = "rd"
    needs_draw = True

    def __init__(self, scenario: Scenario, thresholds: dict[int, int]):
        if scenario.latency_ues and scenario.variant is not Variant.LATENCY_CONSTRAINED:
            raise ScenarioError("randomised policy needs latency ceilings (beta)")
        ues = sorted(scenario.ues, key=lambda u: u.id)
        n = len(ues)
        aoi = [i for i, u in enumerate(ues) if u.cls is UeClass.AOI]
        lat = [i for i, u in enumerate(ues) if u.cls is UeClass.LATENCY]
        groups: dict[tuple[float, float], list[int]] = {}
        for i, u in enumerate(ues):
            if u.cls is UeClass.THROUGHPUT:
                groups.setdefault((u.alpha, u.p), []).append(i)
        ue = np.zeros(n, UE_STATE)
        ue["packet"] = ue["g_prev"] = -1
        ue["p"] = [u.p for u in ues]
        for i in aoi:
            ue["threshold"][i] = thresholds[ues[i].id]
            ue["weight"][i] = ues[i].rho * ues[i].p
        for i in lat:
            ue["weight"][i] = theta_j(ues[i].q, ues[i].p, ues[i].beta)
        for members in groups.values():
            for i in members:
                ue["weight"][i] = ues[i].alpha
        self.ue = ue
        # each AoI and latency UE's arrival slots in the block, queue i of
        # ``store`` (its head stays 0, so cmu_enqueue never compacts it),
        # then all of them in slot order in ``_list``, served up to
        # ``_cursor``; a latency UE's stack, with room for the block's arrivals
        self._arriving = sorted(aoi + lat)
        self._q = [ues[i].q for i in self._arriving]
        self._lat = lat
        self.store = kernel.QueueStore(n)
        self.stacks = [np.empty(0, np.int64)] * n
        self._list = np.empty(0, np.int64)
        self._cursor = np.zeros(1, np.int64)
        # each position's last delivered arrival slot (-1: none since the
        # run or the warm-up began), and its sums over the last segment
        self.g_prev = ue["g_prev"]
        self.sums = np.zeros((n, kernel.NSUMS), np.int64)
        # AoI, latency, then each throughput group's members, ascending,
        # and where each group starts among the throughput ones
        thr = list(groups.values())
        self._members = np.array(aoi + lat + [i for m in thr for i in m], np.int64)
        self._groups = np.array([0, *accumulate(len(m) for m in thr)], np.int64)
        # rd_serve's scratch: the queued latency UEs and their partition,
        # the AoI UEs holding a packet and each group's turn
        self._scratch = (np.empty(len(lat), np.int64), np.empty(len(lat)),
                         np.empty(len(aoi), np.int64), np.empty(len(thr), np.int64))
        # the kernels' buffers, by address: the arrival list's comes last in
        # both lists, to be replaced as the list grows
        members, arrivals = self._members.ctypes.data, self._list.ctypes.data
        at, end = self.store.at.ctypes.data, self.store.end.ctypes.data
        self._list_args = [len(self._arriving), members, at, end, arrivals]
        self._serve_args = [len(aoi), len(lat), len(thr), members, *[x.ctypes.data for x in (
            self._groups, self._cursor, ue, self.sums, *self._scratch)], arrivals]

    def update_index(self, start: int, u: np.ndarray, gens: Sequence[np.random.Generator]) -> None:
        """List a block's arrivals, drawing each stream's in turn into
        ``u``: the k-th AoI or latency position (ascending) has an arrival
        in slot start + j, for j < len(u), iff draw j of ``gens[k]`` is
        below its q (slot 0 has none).  ``store`` turns each stream's
        uniforms into arrival slots, and ``kernel.rd_list`` sorts them all
        by slot, counting in ``u`` once its uniforms are spent."""
        self.store.end.fill(0)
        self.store.enqueue(start, u, zip(self._arriving, gens, self._q))
        need = int(self.store.end.sum()) + 1
        if need > len(self._list):
            self._list = kernel.grown(self._list, need)
            self._list_args[-1] = self._serve_args[-1] = self._list.ctypes.data
        kernel.rd_list(start, len(u), *self._list_args, u.ctypes.data)
        self._cursor[0] = 0
        depth, stack_at = self.ue["depth"].tolist(), self.ue["stack"]
        for i in self._lat:
            need = depth[i] + int(self.store.end[i])
            if need > len(self.stacks[i]):
                self.stacks[i] = stack = kernel.grown(self.stacks[i], need, 0, depth[i])
                stack_at[i] = stack.ctypes.data

    def select(self, a: int, b: int, u: np.ndarray, draws: np.ndarray) -> None:
        """Serve slots [a, b), whose success uniforms are ``u`` and policy
        uniforms ``draws``, leaving each position's sums over them in its
        row of ``sums``."""
        u, draws = (np.ascontiguousarray(x, np.float64) for x in (u, draws))
        if u.shape != (b - a,) or draws.shape != (b - a,):
            raise ValueError(f"slots [{a}, {b}) need {b - a} success and policy uniforms, "
                             f"got {u.shape} and {draws.shape}")
        kernel.rd_serve(a, b - a, u.ctypes.data, draws.ctypes.data, *self._serve_args)

    def on_outcome(self, metrics: Sequence[UeMetrics]) -> None:
        """Add each position's sums over the last segment to its metrics."""
        add_sums(metrics, self.sums.tolist())

    def backlog(self) -> list[tuple[int, int]]:
        """Each position's count and sum of arrival slots of undelivered
        packets: a latency UE's queue, an AoI UE's retained packet."""
        depth, packet = self.ue["depth"].tolist(), self.ue["packet"].tolist()
        return [(d, int(stack[:d].sum())) if d else (1, g) if g >= 0 else (0, 0)
                for stack, d, g in zip(self.stacks, depth, packet)]


class CmuPolicy:
    """Weighted-rate rule over latency UEs only: in every slot, serve the
    nonempty queue with the largest rho*p/q (ties toward the lower
    position), oldest packet first, served a block of slots at a time.

    A strict priority over first-in-first-out queues needs no per-slot
    call.  ``update_index`` draws and enqueues a block's arrivals, one
    compiled call per queue (``kernel.QueueStore.enqueue``), ``select``
    serves slots [a, b) in one compiled pass (``kernel.cmu_serve``) and
    ``on_outcome`` adds each queue's sums over them, its arrivals included,
    to its UE's metrics.  A queue's storage grows by doubling and is
    compacted in place whenever its head has passed the midpoint, so
    enqueueing a block costs its arrivals, not the backlog.
    """

    name = "cmu"
    needs_draw = False

    def __init__(self, scenario: Scenario):
        lat = scenario.latency_ues
        if len(lat) != len(scenario.ues):
            raise ScenarioError("weighted-rate rule runs on latency-only scenarios")
        if scenario.variant is not Variant.LATENCY_WEIGHTED:
            raise ScenarioError("weighted-rate rule needs latency weights (rho)")
        ues = sorted(lat, key=lambda u: u.id)
        n = len(ues)
        self.q = [u.q for u in ues]
        self.order = sorted(range(n), key=lambda i: (-(ues[i].rho * ues[i].p / ues[i].q), i))
        # the arrival slots of each queue's undelivered packets, of which
        # those after the segment being served have not arrived yet
        self.store = kernel.QueueStore(n)
        # each queue's last delivered arrival slot (-1: none since the run or
        # the warm-up began), and its sums over the last segment served
        self.g_prev = np.full(n, -1, np.int64)
        self.sums = np.zeros((n, kernel.NSUMS), np.int64)
        # the kernel's arguments after the block's, passed by address
        store = self.store
        self._buffers = (np.array(self.order, np.int64), np.array([u.p for u in ues]),
                         store.head, store.end, self.g_prev, self.sums, np.zeros(n, np.int64))
        self._serve_args = [x.ctypes.data for x in (store.at, *self._buffers)]

    def update_index(self, start: int, u: np.ndarray, gens: Sequence[np.random.Generator]) -> None:
        """Enqueue a block's arrivals, drawing each stream's in turn into
        ``u``: position i has an arrival in slot start + k, for k < len(u),
        iff draw k of ``gens[i]`` is below its q (slot 0 has none)."""
        self.store.enqueue(start, u, zip(range(len(self.q)), gens, self.q))

    def select(self, a: int, b: int, u: np.ndarray) -> None:
        """Serve slots [a, b), whose success uniforms are ``u``, leaving
        each position's sums over them in its row of ``sums``."""
        u = np.ascontiguousarray(u, np.float64)
        if u.shape != (b - a,):
            raise ValueError(f"slots [{a}, {b}) need {b - a} success uniforms, got {u.shape}")
        kernel.cmu_serve(a, b - a, u.ctypes.data, len(self.order), *self._serve_args)

    def on_outcome(self, metrics: Sequence[UeMetrics]) -> None:
        """Add each position's sums over the last segment to its metrics."""
        add_sums(metrics, self.sums.tolist())

    def backlog(self) -> list[tuple[int, int]]:
        """Each queue's count and sum of arrival slots of undelivered packets."""
        store = self.store
        return [(e - h, int(queue[h:e].sum()))
                for queue, h, e in zip(store.queues, store.head.tolist(), store.end.tolist())]
