import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aoisched.metrics import (UeMetrics, aoi_decomposition_audit, assemble_cost,
                              report_rows, RunReport)
from aoisched.model import Scenario, UeClass, UeConfig, Variant


def make(cls=UeClass.AOI):
    return UeMetrics(1, cls)


# -- age accounting ------------------------------------------------------------

def test_age_counts_from_virtual_origin():
    m = make()
    m.accrue_age(5)
    # no delivery yet: age at slot t is t, so the sum is 1+2+3+4+5
    assert m.aoi_sum == 15


def test_age_resets_to_arrival_slot():
    m = make()
    m.on_delivery(g=[3], t=[4])  # accrues ages 1, 2, 3, 4 first
    m.accrue_age(5)              # age 5 - 3 = 2
    assert m.aoi_sum == 1 + 2 + 3 + 4 + 2


def test_age_recurrence_on_random_trace():
    # age(t+1) = age(t) + 1 without a delivery, else t + 1 - g
    rng = np.random.default_rng(5)
    m = make()
    ages = []
    lam = 0
    for t in range(1, 200):
        ages.append(t - lam)
        if rng.random() < 0.3:
            g = int(rng.integers(max(1, t - 3), t + 1))
            if g >= lam:
                m.on_delivery(g=[g], t=[t])
                lam = max(lam, g)
    m.accrue_age(199)
    assert m.aoi_sum == sum(ages)
    for prev, nxt, t in zip(ages, ages[1:], range(1, 200)):
        assert nxt == prev + 1 or nxt <= t + 1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(1, 8)), max_size=30),
       st.integers(0, 10))
def test_closed_form_age_equals_per_slot_sum(steps, tail):
    # each step: a delivery `wait` slots after the previous one, of a packet
    # `lag` slots old (clamped so g stays in [lam, t]); ages are summed
    # slot by slot next to the closed form, folded as one batch
    m = make()
    per_slot = 0
    lam = t = 0
    gs, ts = [], []
    for lag, wait in steps:
        for s in range(t + 1, t + wait + 1):
            per_slot += s - lam
        t += wait
        g = max(lam, t - lag)
        gs.append(g)
        ts.append(t)
        lam = g
    m.on_delivery(g=gs, t=ts)
    for s in range(t + 1, t + tail + 1):
        per_slot += s - lam
    m.accrue_age(t + tail)
    assert m.aoi_sum == per_slot


# -- delivery accounting ---------------------------------------------------------

def test_latency_floor_is_one_slot():
    m = make()
    m.on_delivery(g=[3], t=[3])
    assert m.latency_sum_delivered == 1


def test_latency_direct():
    m = make()
    m.on_delivery(g=[3], t=[6])
    assert m.latency_sum_delivered == 4


def test_delivery_before_arrival_rejected():
    for cls in UeClass:
        m = make(cls)
        with pytest.raises(ValueError, match="g=7 > t=6"):
            m.on_delivery(g=[7], t=[6])
        with pytest.raises(ValueError, match="g=7 > t=6"):
            m.on_delivery(g=[2, 7, 8], t=[3, 6, 9])  # one bad pair in a batch


def test_spacing_samples_between_consecutive_deliveries():
    m = make()
    m.on_delivery(g=[10, 17], t=[10, 18])
    assert m.n_samples == 1
    assert m.sample_sum == 7


def test_spacing_sum_telescopes():
    m = make()
    for g in (4, 9, 11, 20):
        m.on_delivery(g=[g], t=[g + 1])
    assert m.sample_sum == 20 - 4
    assert m.n_samples == 3


def test_lambda_nondecreasing_under_out_of_order_deliveries():
    m = make(UeClass.LATENCY)
    m.on_arrival([3, 5])
    m.on_delivery(g=[5, 3], t=[6, 7])   # newest served first
    assert m.lam == 5


# -- batch folds ------------------------------------------------------------------

class OneByOne:
    """The per-event arithmetic that folding a batch must reproduce bit for
    bit: Python ints, float accumulators, one event at a time."""

    def __init__(self, cls):
        self.is_aoi = cls is UeClass.AOI
        self.lam = self.aoi_sum = self.aged = 0
        self.arrivals = self.deliveries = self.latency_sum_delivered = self.n_samples = 0
        self.sample_sum = self.sample_sumsq = self.sum_spacing_wait = 0.0
        self.g_prev = None

    def on_arrival(self, t):
        self.arrivals += 1

    def accrue_age(self, t):
        for s in range(self.aged + 1, t + 1):
            self.aoi_sum += s - self.lam
        self.aged = t

    def on_delivery(self, g, t):
        if self.is_aoi:
            self.accrue_age(t)
        self.deliveries += 1
        self.latency_sum_delivered += t - g + 1
        self.lam = max(self.lam, g)
        if self.g_prev is not None:
            d = g - self.g_prev
            self.n_samples += 1
            self.sample_sum += d
            self.sample_sumsq += d * d
            if self.is_aoi:
                self.sum_spacing_wait += d * (t - g)
        self.g_prev = g

    def latency_now(self, t, pending):
        if self.arrivals == 0:
            return None
        backlog = sum(t + 1 - g for g in pending)
        return (self.latency_sum_delivered + backlog) / self.arrivals

    def reset_window(self):
        self.aoi_sum = self.arrivals = self.deliveries = self.latency_sum_delivered = 0
        self.n_samples = 0
        self.sample_sum = self.sample_sumsq = self.sum_spacing_wait = 0.0
        self.g_prev = None


FOLDED = ("aoi_sum", "lam", "aged", "g_prev", "sample_sum", "sample_sumsq",
          "sum_spacing_wait", "arrivals", "deliveries", "latency_sum_delivered", "n_samples")


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(UeClass)),
       st.lists(st.tuples(st.booleans(), st.booleans(), st.integers(0, 4), st.booleans()),
                min_size=1, max_size=60),
       st.sets(st.integers(1, 60)), st.none() | st.integers(1, 60))
@example(UeClass.AOI, [(True, False, 0, False), (True, True, 0, False),
                       (False, True, 0, False), (True, True, 0, False)], set(), None)
def test_batch_folds_equal_one_event_at_a_time(cls, slots, cuts, warm_end):
    # each slot: (a packet arrives, one is delivered, which pending packet,
    # a weight step reads latency_now at the start of the slot); the
    # example delivers an AoI packet older than the one before it; the engine
    # logs a block's events and folds them at the block's end (``cuts``)
    # and after the warm-up's last slot, each fold closing an AoI UE's age,
    # which the one-event-at-a-time sides close by hand
    horizon = len(slots)
    queue, events = [], []
    for t, (arrives, serve, pick, _) in enumerate(slots, start=1):
        arrives = arrives and cls is not UeClass.THROUGHPUT
        if arrives:
            queue.append(t)
        g = None
        if serve and cls is UeClass.THROUGHPUT:
            g = t
        elif serve and queue:
            g = queue.pop(-1 - pick % len(queue))  # pick 0: the newest
        events.append((t, arrives, g))
    warm_end = warm_end if warm_end is not None and warm_end < horizon else None
    ends = sorted({c for c in cuts if c <= horizon} | {horizon + 1})

    def drive(m, log):
        # the queue a policy would hold: the packets arrived, not yet delivered
        latencies, start, pending = [], 1, []
        for end in ends:
            if log:
                m.log_arrivals(np.array([t for t, a, _ in events[start - 1:end - 1] if a],
                                        dtype=np.int64))
            for t, arrived, g in events[start - 1:end - 1]:
                if slots[t - 1][3]:
                    latencies.append(m.latency_now(t, pending))
                if arrived:
                    pending.append(t)
                if arrived and not log:
                    m.on_arrival([t] if isinstance(m, UeMetrics) else t)
                if g is not None and g in pending:
                    pending.remove(g)
                if g is not None:
                    if log:
                        m.dg.append(g)
                        m.dt.append(t)
                    elif isinstance(m, UeMetrics):
                        m.on_delivery([g], [t])
                    else:
                        m.on_delivery(g, t)
                if t == warm_end:
                    if log:
                        m.fold(t + 1)
                    elif m.is_aoi:
                        m.accrue_age(t)
                    m.reset_window()
            if log:
                m.fold(end)
            start = end
        if m.is_aoi and not log:
            m.accrue_age(horizon)
        return latencies, [repr(getattr(m, name)) for name in FOLDED]

    reference = drive(OneByOne(cls), log=False)
    assert drive(UeMetrics(1, cls), log=False) == reference
    assert drive(UeMetrics(1, cls), log=True) == reference


def test_latency_now_only_reads(monkeypatch):
    # a weight step reads the running latency: the logged arrivals before
    # its slot count, but stay unfolded, and no folded statistic moves
    calls = []

    def counted(self, slots, _fold=UeMetrics.on_arrival):
        calls.append(list(slots))
        return _fold(self, slots)
    monkeypatch.setattr(UeMetrics, "on_arrival", counted)
    m = make(UeClass.LATENCY)
    m.on_arrival([2])
    m.on_delivery(g=[2], t=[3])                  # latency 2
    m.log_arrivals(np.array([4, 6, 9], dtype=np.int64))
    m.dg.append(4)
    m.dt.append(5)                               # latency 2, not folded yet
    calls.clear()
    folded = [repr(getattr(m, name)) for name in FOLDED]
    # arrivals 2, 4 and 6 precede slot 7; the queued packet from slot 6
    # counts as delivered in slot 7 (latency 2)
    assert m.latency_now(7, [6]) == (2 + 2 + 2) / 3
    assert [repr(getattr(m, name)) for name in FOLDED] == folded
    assert list(m.arrived) == [4, 6, 9] and calls == []
    m.fold(10)
    assert m.arrivals == 4 and calls == [[4, 6, 9]]


# -- finalisation -----------------------------------------------------------------

def test_finalize_throughput_ratio():
    m = make()
    slots = [5 * k + 1 for k in range(200)]
    m.on_delivery(g=slots, t=slots)
    stats = m.finalize(10 ** 3, (0, 0))
    assert stats.throughput == 200 / 10 ** 3
    assert stats.deliveries == 200


def test_finalize_constant_spacing_has_zero_variance():
    m = make()
    slots = [5 * k + 3 for k in range(100)]
    m.on_delivery(g=slots, t=slots)
    stats = m.finalize(600, (0, 0))
    assert stats.t_bar == pytest.approx(5.0)
    assert stats.delta_sq == pytest.approx(0.0, abs=1e-12)


def test_finalize_threshold_gated_arrival_spacing_statistics():
    # feed deliveries at threshold-gated geometric arrival epochs (gap 2,
    # arrival rate 0.9, delivery in the arrival slot): the spacing law is
    # gap + geometric, with variance (1-q)/q^2
    q, gap = 0.9, 2
    rng = np.random.default_rng(11)
    m = make()
    t = 0
    last = 0
    horizon = 2 * 10 ** 6
    arrivals = rng.random(horizon) < q
    delivered = []
    for t in range(1, horizon):
        if arrivals[t] and t - last > gap:
            delivered.append(t)
            last = t
    m.on_delivery(g=delivered, t=delivered)
    stats = m.finalize(horizon, (0, 0))
    predicted_mean = gap + 1 / q
    predicted_var = (1 - q) / q ** 2
    assert stats.t_bar == pytest.approx(predicted_mean, rel=0.02)
    assert stats.delta_sq == pytest.approx(predicted_var, rel=0.10)
    assert stats.delta_sq == pytest.approx(0.12346, rel=0.10)


def test_finalize_no_arrivals_reports_absent_latency():
    m = make(UeClass.LATENCY)
    stats = m.finalize(100, (0, 0))
    assert stats.avg_latency is None
    assert stats.throughput == 0.0


def test_finalize_backlog_counts_as_delivered_at_horizon():
    m = make(UeClass.LATENCY)
    m.on_arrival([4, 8])
    m.on_delivery(g=[4], t=[5])      # latency 2
    stats = m.finalize(10, (1, 8))   # the policy's backlog, as sim.run passes it
    # pending packet from slot 8 counts as delivered in slot 10: latency 3
    assert stats.avg_latency == pytest.approx((2 + 3) / 2)


def test_backlog_zero_when_queue_empty():
    m = make(UeClass.LATENCY)
    m.on_arrival([4])
    m.on_delivery(g=[4], t=[5])
    # an empty queue, as sim.run passes it, adds no latency
    assert m.finalize(9, (0, 0)).latency_total == m.latency_sum_delivered
    with_backlog = m.latency_now(9, [])
    m2 = make(UeClass.LATENCY)
    m2.on_arrival([4])
    m2.on_delivery(g=[4], t=[5])
    m2.on_arrival([7])
    assert m2.latency_now(9, [7]) >= with_backlog  # backlog can only raise it


def test_finalize_extra_pending_for_retained_packet():
    m = make()
    m.on_arrival([2])
    m.on_delivery(g=[2], t=[2])
    m.on_arrival([6])
    stats = m.finalize(9, (1, 6))   # the retained packet, as sim.run passes it
    # delivered latency 1 plus retained packet counted to the horizon (4)
    assert stats.avg_latency == pytest.approx((1 + 4) / 2)


def test_throughput_class_reports_no_latency():
    m = make(UeClass.THROUGHPUT)
    m.on_delivery(g=[5], t=[5])
    stats = m.finalize(10, (0, 0))
    assert stats.avg_latency is None
    assert stats.arrivals == 10  # synthetic backlog: one packet per slot


# -- decomposition audit -----------------------------------------------------------

def test_audit_exact_on_deterministic_trace():
    # arrivals at slots 3, 6, 9, each delivered in its arrival slot, horizon 9:
    # age runs 1,2,3 | 1,2,3 | 1,2,3 so the average is exactly 2, and the
    # spacing form gives (3 + 0/3 + 1)/2 = 2 with no waiting term
    m = make()
    m.on_delivery(g=[3, 6, 9], t=[3, 6, 9])
    stats = m.finalize(9, (0, 0))
    assert stats.avg_aoi == pytest.approx(2.0)
    assert stats.t_bar == pytest.approx(3.0)
    assert stats.delta_sq == pytest.approx(0.0, abs=1e-12)
    residual = aoi_decomposition_audit(stats, 9)
    assert residual == pytest.approx(0.0, abs=1e-12)


def test_audit_exact_with_waiting_term():
    # same arrivals but delivery lags: arrival 3 delivered at 4, arrival 6 at 8
    m = make()
    m.on_delivery(g=[3, 6, 9], t=[4, 8, 9])
    stats = m.finalize(9, (0, 0))
    # direct ages: 1,2,3,4,2,3,4,5,3 -> 27/9 (the slot-9 delivery only
    # lowers the age from slot 10 onward)
    assert stats.avg_aoi == pytest.approx(3.0)
    residual = aoi_decomposition_audit(stats, 9)
    # the identity is asymptotic; on this short trace the boundary cycles
    # (before the first and after the last delivery) leave a small residual
    assert residual < 0.2 * stats.avg_aoi


def test_audit_skipped_with_single_delivery():
    m = make()
    m.on_delivery(g=[1], t=[1])
    stats = m.finalize(1, (0, 0))
    assert aoi_decomposition_audit(stats, 1) is None


# -- cost assembly -----------------------------------------------------------------

def _stats(ue_id, cls, **kw):
    from aoisched.metrics import PerUeStats
    defaults = dict(avg_aoi=None, avg_latency=None, throughput=0.0, t_bar=None,
                    delta_sq=None, attempts_share=0.0, arrivals=0, deliveries=0,
                    attempts=0, latency_total=0.0, sum_spacing_wait=0.0)
    defaults.update(kw)
    return PerUeStats(ue_id=ue_id, ue_class=cls, **defaults)


def test_assemble_cost_no_aoi_ues():
    scn = Scenario(ues=(UeConfig(id=2, cls=UeClass.LATENCY, q=0.2, p=0.8, rho=1.0),),
                   variant=Variant.LATENCY_WEIGHTED)
    per_ue = {2: _stats(2, UeClass.LATENCY, avg_latency=2.0, arrivals=100,
                        latency_total=200.0)}
    cost, f1, f2 = assemble_cost(per_ue, scn, horizon=1000)
    assert f1 == 0.0
    assert f2 == pytest.approx((1.0 / 0.2) * 200.0 / 1000)
    assert cost == pytest.approx(2.0)


def test_assemble_cost_immediate_delivery_kills_waiting_term():
    scn = Scenario(ues=(UeConfig(id=1, cls=UeClass.AOI, q=0.9, p=0.7, rho=1.0),),
                   variant=Variant.LATENCY_WEIGHTED)
    per_ue = {1: _stats(1, UeClass.AOI, avg_aoi=2.0, t_bar=3.0, delta_sq=0.0,
                        sum_spacing_wait=0.0)}
    cost, f1, f2 = assemble_cost(per_ue, scn, horizon=1000)
    assert f2 == 0.0
    assert f1 == pytest.approx(0.5 * (3.0 + 0.0 + 1.0))
    assert cost == pytest.approx(2.0)


def test_assemble_cost_constrained_variant_has_aoi_objective_only():
    scn = Scenario(ues=(
        UeConfig(id=1, cls=UeClass.AOI, q=0.9, p=0.7, rho=2.0),
        UeConfig(id=2, cls=UeClass.LATENCY, q=0.2, p=0.8, beta=2.0),
    ), variant=Variant.LATENCY_CONSTRAINED)
    per_ue = {
        1: _stats(1, UeClass.AOI, avg_aoi=3.0, t_bar=3.0, delta_sq=0.1,
                  sum_spacing_wait=10.0),
        2: _stats(2, UeClass.LATENCY, avg_latency=1.9, arrivals=10, latency_total=19.0),
    }
    cost, f1, f2 = assemble_cost(per_ue, scn, horizon=100)
    assert cost == pytest.approx(2.0 * 3.0)      # latency enters the constraint, not the cost
    assert f2 == pytest.approx(2.0 * 10.0 / 100)  # no weight on the latency ue


# -- csv ----------------------------------------------------------------------------

def test_report_rows_schema_and_summary():
    scn_stats = {
        1: _stats(1, UeClass.AOI, avg_aoi=2.5, throughput=0.3),
        3: _stats(3, UeClass.THROUGHPUT, throughput=0.25, attempts_share=0.28),
    }
    report = RunReport(policy="hier", seed=7, horizon=100, per_ue=scn_stats,
                       cost_objective=4.0, f1=2.0, f2=1.0)
    rows = report_rows(report, "run-1", lb=3.5)
    assert len(rows) == 3
    assert rows[0][4] == "ue" and rows[-1][4] == "summary"
    assert rows[0][5] == "1" and rows[1][5] == "3"
    assert rows[-1][13] == "4.0"
    assert rows[-1][16] == "3.5"
    # absent values serialise as empty strings
    assert rows[1][7] == ""
