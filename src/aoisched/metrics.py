"""Per-UE statistics tracked online during a run, and the cost assembly.

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

from dataclasses import dataclass, field
from typing import Iterable

from .model import Scenario, UeClass, Variant


class UeMetrics:
    """Online accumulators for one UE.  One instance per UE per run."""

    __slots__ = (
        "ue_id", "cls", "is_aoi", "track_pending",
        "lam", "aoi_sum", "aged", "arrivals", "deliveries", "attempts",
        "latency_sum_delivered", "pending_count", "pending_g_sum",
        "n_samples", "sample_sum", "sample_sumsq", "g_prev",
        "sum_spacing_wait",
    )

    def __init__(self, ue_id: int, cls: UeClass):
        self.ue_id = ue_id
        self.cls = cls
        self.is_aoi = cls is UeClass.AOI
        self.track_pending = cls is UeClass.LATENCY  # the queue's own backlog
        self.lam = 0
        self.aoi_sum = 0
        self.aged = 0  # last slot whose age is in aoi_sum
        self.arrivals = 0
        self.deliveries = 0
        self.attempts = 0
        self.latency_sum_delivered = 0
        self.pending_count = 0
        self.pending_g_sum = 0
        self.n_samples = 0
        self.sample_sum = 0.0
        self.sample_sumsq = 0.0
        self.g_prev = None
        self.sum_spacing_wait = 0.0  # sum over delivered packets of T_i * (L_i - 1)

    def on_arrival(self, t: int) -> None:
        self.arrivals += 1
        if self.track_pending:
            self.pending_count += 1
            self.pending_g_sum += t

    def accrue_age(self, t: int) -> None:
        """Add the age of slots (aged, t] to ``aoi_sum``.

        The age at slot s is s - lam, and lam only moves at a delivery,
        which lowers the age from the next slot on; so calling this before
        each delivery is recorded, and once at the end, sums the age of
        every slot exactly.
        """
        last = self.aged
        self.aoi_sum += (t - last) * (t + last + 1 - 2 * self.lam) // 2
        self.aged = t

    def on_delivery(self, g: int, t: int) -> None:
        if g > t:
            raise ValueError(f"delivery before arrival: g={g} > t={t}")
        self.deliveries += 1
        self.latency_sum_delivered += t - g + 1
        if self.track_pending:
            self.pending_count -= 1
            self.pending_g_sum -= g
        if self.lam < g:
            self.lam = g
        if self.g_prev is not None:
            d = g - self.g_prev
            self.n_samples += 1
            self.sample_sum += d
            self.sample_sumsq += d * d
            if self.is_aoi:
                self.sum_spacing_wait += d * (t - g)
        self.g_prev = g

    def backlog_age_sum(self, t: int) -> int:
        """Total latency the currently pending packets would log at time t."""
        return self.pending_count * (t + 1) - self.pending_g_sum

    def latency_now(self, t: int) -> float | None:
        """Running average latency including the pending backlog."""
        if self.arrivals == 0:
            return None
        return (self.latency_sum_delivered + self.backlog_age_sum(t)) / self.arrivals

    def reset_window(self) -> None:
        """Drop accumulated sums (warm-up): pending backlog, lam and the
        aged-through slot survive, so accrue age up to the boundary first."""
        self.aoi_sum = 0
        self.arrivals = 0
        self.deliveries = 0
        self.attempts = 0
        self.latency_sum_delivered = 0
        self.n_samples = 0
        self.sample_sum = 0.0
        self.sample_sumsq = 0.0
        self.g_prev = None
        self.sum_spacing_wait = 0.0

    def finalize(self, t: int, extra_pending: Iterable[int] = ()) -> "PerUeStats":
        """Close the books at horizon t.

        ``extra_pending`` carries arrival slots of undelivered packets the
        metrics object was not tracking itself (an AoI scheduler's retained
        packet).
        """
        backlog = self.backlog_age_sum(t) if self.track_pending else 0
        arrivals = self.arrivals
        for g in extra_pending:
            backlog += t - g + 1
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


def report_rows(report: RunReport, run_id: str, lb: float | None = None) -> list[list[str]]:
    rows = []
    base = [run_id, report.policy, str(report.seed), str(report.horizon)]
    for ue_id in sorted(report.per_ue):
        rows.append(base + ["ue", *ue_cells(report.per_ue[ue_id]), "", "", "", ""])
    rows.append(base + ["summary", "", "", "", "", "", "", "", "",
                        _fmt(report.cost_objective), _fmt(report.f1),
                        _fmt(report.f2), _fmt(lb)])
    return rows
