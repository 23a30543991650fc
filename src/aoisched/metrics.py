"""Per-UE statistics folded in batches during a run, and the cost assembly.

Conventions:

* Age starts from a virtual delivery at slot 0, so a UE's age at slot t is
  t until its first real delivery.
* A packet delivered in its arrival slot has latency 1 (both endpoints
  count).  Undelivered packets at the horizon contribute as if delivered in
  the final slot.
* Inter-arrival samples (``t_samples``) are taken between consecutive
  *delivered* packets' arrival slots, starting from the second delivery.
* Packets an AoI scheduler discards (superseded by a fresher one) do not
  enter that UE's average latency; only delivered packets feed its
  spacing-weighted waiting term.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .model import Scenario, UeClass, Variant


class UeMetrics:
    """Accumulators for one UE.  One instance per UE per run.

    Events are folded in batches, not one at a time.  The engine hands
    over each block's arrival slots (``log_arrivals``) and appends each
    delivery to the ``dg``/``dt`` buffers; ``fold(end)`` folds the batch,
    once per block and at the warm-up boundary, and sums an AoI UE's age
    through slot end - 1.  ``latency_now`` only reads: it counts the
    arrivals logged before its slot without folding them.  An ``rd`` or
    ``cmu`` run uses none of these: its policy sums each window, arrivals
    and age included, and ``add_sums`` adds its rows.  No backlog is
    tracked here: the policy holds the undelivered packets, and
    ``finalize`` takes their count and sum of arrival slots.  Every
    statistic is a sum of integers, exact in int64 and, as a float, below
    2**53 for horizons up to about 9 * 10**7 slots, so a batch fold gives
    the same bits as folding the events one by one.
    """

    __slots__ = (
        "ue_id", "cls", "is_aoi",
        "lam", "aoi_sum", "aged", "arrivals", "deliveries", "attempts",
        "latency_sum_delivered",
        "n_samples", "sample_sum", "sample_sumsq", "g_prev",
        "sum_spacing_wait",
        "arrived", "dg", "dt", "_counted", "_seen", "_tail_t", "_tail_g",
    )

    def __init__(self, ue_id: int, cls: UeClass):
        self.ue_id = ue_id
        self.cls = cls
        self.is_aoi = cls is UeClass.AOI
        self.lam = 0
        self.aged = 0  # last slot whose age is in aoi_sum
        self.reset_window()
        self.arrived = ()  # arrival slots not yet folded, ascending
        self.dg = array("q")  # arrival slot of each delivered packet not yet folded
        self.dt = array("q")  # and its delivery slot
        # what latency_now has read since the last fold: the logged arrivals
        # it counted, then the deliveries' count, sum of delivery slots and
        # sum of arrival slots
        self._counted = self._seen = self._tail_t = self._tail_g = 0

    def log_arrivals(self, slots) -> None:
        """Take a block's arrival slots (an ascending int64 buffer), to be
        folded by ``fold`` and counted by ``latency_now``."""
        self.arrived = memoryview(slots) if len(slots) else ()

    def fold(self, end: int) -> None:
        """Fold the logged arrivals before slot ``end`` and every logged
        delivery, and, for an AoI UE, sum the age through slot end - 1."""
        arrived = self.arrived
        if arrived and arrived[0] < end:
            k = bisect_left(arrived, end)
            self.on_arrival(arrived[:k])
            self.arrived = arrived[k:] if k < len(arrived) else ()
        if self.dt:
            self.on_delivery(np.frombuffer(self.dg, np.int64), np.frombuffer(self.dt, np.int64))
            del self.dg[:], self.dt[:]
        self._counted = self._seen = self._tail_t = self._tail_g = 0
        if self.is_aoi:
            self.accrue_age(end - 1)

    def on_arrival(self, slots: Sequence[int]) -> None:
        """Fold a batch of arrivals, given their arrival slots."""
        self.arrivals += len(slots)

    def accrue_age(self, t: int) -> None:
        """Add the age of slots (aged, t] to ``aoi_sum``.

        The age at slot s is s - lam, and lam only moves at a delivery,
        which lowers the age from the next slot on; so accruing up to each
        delivery's slot before the delivery is folded, and once at the end,
        sums the age of every slot exactly.
        """
        last = self.aged
        self.aoi_sum += (t - last) * (t + last + 1 - 2 * self.lam) // 2
        self.aged = t

    def on_delivery(self, g, t) -> None:
        """Fold a batch of deliveries in delivery order: the packet that
        arrived in slot ``g[k]`` was delivered in slot ``t[k]``, and ``t``
        ascends."""
        g = np.asarray(g, dtype=np.int64)
        t = np.asarray(t, dtype=np.int64)
        n = len(g)
        if n == 0:
            return
        wait = t - g
        if wait.min() < 0:
            k = int(wait.argmin())
            raise ValueError(f"delivery before arrival: g={g[k]} > t={t[k]}")
        g0, g_last = int(g[0]), int(g[-1])
        if self.is_aoi:
            # lam before each delivery is the newest arrival slot delivered
            # so far; the age of slots (t[k-1], t[k]] sums s - lam over them
            lam = np.maximum(np.maximum.accumulate(g), self.lam)
            self.accrue_age(int(t[0]))
            first, last = self.aged, int(t[-1])
            self.aoi_sum += ((last * (last + 1) - first * (first + 1)) // 2
                             - int((t[1:] - t[:-1]) @ lam[:-1]))
            self.aged = last
            self.lam = int(lam[-1])
        else:
            self.lam = max(self.lam, int(g.max()))
        self.deliveries += n
        self.latency_sum_delivered += int(wait.sum()) + n
        # a spacing sample per delivery after the window's first, whose d is 0
        first = self.g_prev is None
        prev = g0 if first else self.g_prev
        d = g - np.concatenate(([prev], g[:-1]))
        self.n_samples += n - first
        self.sample_sum += g_last - prev
        self.sample_sumsq += int(d @ d)
        if self.is_aoi:
            self.sum_spacing_wait += int(d @ wait)
        self.g_prev = g_last

    def latency_now(self, t: int, pending: Sequence[int]) -> float | None:
        """Running average latency at slot t, the packets still queued
        (``pending``, their arrival slots) counted as delivered in slot t.

        Counts the logged arrivals before t and adds the deliveries logged
        since the last fold, without folding either.  What an earlier call
        read (t does not fall between folds) is kept as running sums, so
        each call costs plain-Python work in the number of new events and
        queued packets.
        """
        arrived, k = self.arrived, self._counted
        if k < len(arrived) and arrived[k] < t:
            k = self._counted = bisect_left(arrived, t, k)
        arrivals = self.arrivals + k
        if arrivals == 0:
            return None
        seen, n = self._seen, len(self.dt)
        if seen < n:
            self._tail_t += sum(self.dt[seen:])
            self._tail_g += sum(self.dg[seen:])
            self._seen = n
        latency = (self.latency_sum_delivered + self._tail_t - self._tail_g + n
                   + len(pending) * (t + 1) - sum(pending))
        return latency / arrivals

    def reset_window(self) -> None:
        """Drop accumulated sums (warm-up): lam and the aged-through slot
        survive, so fold up to the boundary first."""
        self.aoi_sum = 0
        self.arrivals = 0
        self.deliveries = 0
        self.attempts = 0
        self.latency_sum_delivered = 0
        self.n_samples = 0
        self.sample_sum = 0.0
        self.sample_sumsq = 0.0
        self.g_prev = None
        self.sum_spacing_wait = 0.0  # sum over delivered packets of T_i * (L_i - 1)

    def finalize(self, t: int, pending: tuple[int, int]) -> "PerUeStats":
        """Close the books at horizon t.  ``pending`` is the count and sum of
        arrival slots of the packets the policy still holds, which count as
        delivered in slot t."""
        count, g_sum = pending
        backlog = count * (t + 1) - g_sum
        arrivals = self.arrivals
        avg_aoi = self.aoi_sum / t if self.is_aoi else None
        if self.cls is UeClass.THROUGHPUT:
            arrivals = t  # synthetic backlog: one fresh packet per slot
            avg_latency = None
        elif arrivals > 0:
            avg_latency = (self.latency_sum_delivered + backlog) / arrivals
        else:
            avg_latency = None
        if self.n_samples > 0:
            t_bar = self.sample_sum / self.n_samples
            delta_sq = max(0.0, self.sample_sumsq / self.n_samples - t_bar * t_bar)
        else:
            t_bar = delta_sq = None
        return PerUeStats(
            ue_id=self.ue_id,
            ue_class=self.cls,
            avg_aoi=avg_aoi,
            avg_latency=avg_latency,
            throughput=self.deliveries / t,
            t_bar=t_bar,
            delta_sq=delta_sq,
            attempts_share=self.attempts / t,
            arrivals=arrivals,
            deliveries=self.deliveries,
            attempts=self.attempts,
            latency_total=self.latency_sum_delivered + backlog,
            sum_spacing_wait=self.sum_spacing_wait,
        )


def add_sums(metrics: Sequence[UeMetrics], sums: np.ndarray) -> None:
    """Add each UE's row of ``sums``, ``rd``'s or ``cmu``'s (as
    ``_kernel.c``'s enum lays it out), to its metrics, and zero the rows:
    the integers ``on_delivery`` adds, so floats round alike, and an AoI
    UE's age.  The kernels add to the rows over a whole window, so a
    column's sum reaches up to horizon**2 (the age of every slot, the
    latency of every delivery, the squares of spacings that add up to less
    than the horizon), which int64 holds exactly below 3 * 10**9 slots, as
    a single spacing's square needs anyway."""
    for m, (arrivals, attempts, deliveries, latency, samples, spacing, spacing_sq,
            spacing_wait, age) in zip(metrics, sums.tolist()):
        m.arrivals += arrivals
        m.attempts += attempts
        m.deliveries += deliveries
        m.latency_sum_delivered += latency
        m.n_samples += samples
        m.sample_sum += spacing
        m.sample_sumsq += spacing_sq
        m.sum_spacing_wait += spacing_wait
        m.aoi_sum += age
    sums.fill(0)


@dataclass(frozen=True, slots=True)
class PerUeStats:
    ue_id: int
    ue_class: UeClass
    avg_aoi: float | None
    avg_latency: float | None
    throughput: float
    t_bar: float | None
    delta_sq: float | None
    attempts_share: float
    arrivals: int
    deliveries: int
    attempts: int
    latency_total: float          # delivered plus end-of-run backlog latency
    sum_spacing_wait: float       # sum of T_i * (L_i - 1) over delivered packets


@dataclass(frozen=True, slots=True)
class RunReport:
    policy: str
    seed: int
    horizon: int
    per_ue: dict[int, PerUeStats]
    cost_objective: float
    f1: float
    f2: float
    audit: dict[int, float] = field(default_factory=dict)
    extras: dict = field(default_factory=dict)


def aoi_decomposition_audit(stats: PerUeStats, horizon: int) -> float | None:
    """Residual of the age decomposition for one AoI UE.

    The long-run average age splits into a spacing term,
    (t_bar + delta_sq/t_bar + 1) / 2, plus the spacing-weighted waiting term
    sum T_i (L_i - 1) / horizon.  Needs at least two deliveries.
    """
    if stats.avg_aoi is None or stats.deliveries < 2 or not stats.t_bar:
        return None
    spacing = 0.5 * (stats.t_bar + stats.delta_sq / stats.t_bar + 1.0)
    waiting = stats.sum_spacing_wait / horizon
    return abs(stats.avg_aoi - (spacing + waiting))


def assemble_cost(per_ue: dict[int, PerUeStats], scenario: Scenario,
                  horizon: int) -> tuple[float, float, float]:
    """Build (cost_objective, f1, f2) from finalized per-UE stats.

    f1 is the spacing form of the age cost; f2 collects the waiting costs
    (spacing-weighted for AoI UEs, rate-normalised for weighted latency
    UEs).  In latency-constrained scenarios the latency UEs carry no weight,
    so only the AoI part of f2 is defined.  cost_objective is the weighted
    sum of measured averages for the scenario's objective.
    """
    cost = 0.0
    f1 = 0.0
    f2 = 0.0
    for u in scenario.aoi_ues:
        s = per_ue[u.id]
        if s.avg_aoi is not None:
            cost += u.rho * s.avg_aoi
        if s.t_bar:
            f1 += 0.5 * u.rho * (s.t_bar + s.delta_sq / s.t_bar + 1.0)
        f2 += u.rho * s.sum_spacing_wait / horizon
    for u in scenario.latency_ues:
        s = per_ue[u.id]
        if u.rho is not None:
            f2 += (u.rho / u.q) * s.latency_total / horizon
            if scenario.variant is Variant.LATENCY_WEIGHTED and s.avg_latency is not None:
                cost += u.rho * s.avg_latency
    return cost, f1, f2


# ---------------------------------------------------------------------------
# CSV serialisation.  One row per UE plus one summary row; the column order
# below is normative for downstream tooling.

CSV_COLUMNS = [
    "run_id", "policy", "seed", "horizon", "row_type", "ue_id", "class",
    "avg_aoi", "avg_latency", "throughput", "t_bar", "delta_sq",
    "attempts_share", "cost_objective", "f1", "f2", "lb",
]


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def ue_cells(s: PerUeStats) -> list[str]:
    """The per-UE cells, ``ue_id`` through ``attempts_share``, that both the
    run and the sweep CSV write."""
    return [str(s.ue_id), s.ue_class.value, _fmt(s.avg_aoi), _fmt(s.avg_latency),
            _fmt(s.throughput), _fmt(s.t_bar), _fmt(s.delta_sq), _fmt(s.attempts_share)]


def report_rows(report: RunReport, run_id: str) -> list[list[str]]:
    """The run CSV's rows: one per UE, then the summary, whose ``lb`` cell
    stays empty (the ``lb`` command computes the bound)."""
    rows = []
    base = [run_id, report.policy, str(report.seed), str(report.horizon)]
    for ue_id in sorted(report.per_ue):
        rows.append(base + ["ue", *ue_cells(report.per_ue[ue_id]), "", "", "", ""])
    rows.append(base + ["summary", "", "", "", "", "", "", "", "",
                        _fmt(report.cost_objective), _fmt(report.f1),
                        _fmt(report.f2), ""])
    return rows
