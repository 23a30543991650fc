"""Reporting conventions, checked on random feasible scenarios.

For every policy a drawn scenario's variant allows, at a random warm-up:
latency UEs report latency >= 1, AoI UEs report age >= 1, no UE delivers
more often than it is attempted, attempt shares sum to at most 1, and the
age decomposition holds within 1% for AoI UEs with enough deliveries.

Two known defects break the latency floor and are pinned by strict xfails
below (ROADMAP item 4): AoI UEs' latency, and any latency after a warm-up.
"""

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from aoisched.model import Scenario, UeClass, UeConfig, Variant
from aoisched.presets import AOI_UE, LATENCY_UE, reference_weighted
from aoisched.sim import PolicySpec, RunConfig, run

HORIZON = 2 * 10 ** 4
AUDIT_DELIVERIES = 100   # the audit is asymptotic: skip UEs with fewer deliveries
AUDIT_TOL = 0.01         # relative to avg_aoi

unit = st.floats(0.3, 1.0)
# Each latency or throughput UE takes a load share q/p or alpha/p of at most
# 0.2, so with at most four of them zeta >= 0.2: every draw is feasible.
share = st.floats(0.02, 0.2)


@st.composite
def scenarios(draw):
    variant = draw(st.sampled_from(Variant))
    counts = draw(st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 2))
                  .filter(lambda c: sum(c) > 0))
    ues = []
    for _ in range(counts[0]):
        ues.append(dict(cls=UeClass.AOI, p=draw(unit), q=draw(st.floats(0.05, 1.0)),
                        rho=draw(st.floats(0.2, 3.0))))
    for _ in range(counts[1]):
        p = draw(unit)
        weight = ({"rho": draw(st.floats(0.2, 3.0))} if variant is Variant.LATENCY_WEIGHTED
                  else {"beta": draw(st.floats(1.0, 5.0))})
        ues.append(dict(cls=UeClass.LATENCY, p=p, q=draw(share) * p, **weight))
    for _ in range(counts[2]):
        p = draw(unit)
        ues.append(dict(cls=UeClass.THROUGHPUT, p=p, alpha=draw(share) * p))
    return Scenario(ues=tuple(UeConfig(id=i + 1, **u) for i, u in enumerate(ues)),
                    variant=variant)


def allowed_policies(scenario: Scenario) -> list[str]:
    if scenario.variant is Variant.LATENCY_CONSTRAINED:
        return ["vw", "rd"] + ([] if scenario.latency_ues else ["hier"])
    latency_only = len(scenario.latency_ues) == len(scenario.ues)
    return ["hier"] + (["cmu"] if latency_only else [])


def convention_failures(report, warmup: int) -> list[str]:
    out = []
    for ue_id, s in report.per_ue.items():
        # after a warm-up the floor is broken: see the warm-up xfail below
        if (s.ue_class is UeClass.LATENCY and not warmup and s.avg_latency is not None
                and s.avg_latency < 1):
            out.append(f"ue {ue_id}: latency {s.avg_latency} < 1")
        if s.ue_class is UeClass.AOI and s.avg_aoi < 1:
            out.append(f"ue {ue_id}: age {s.avg_aoi} < 1")
        if s.throughput > s.attempts_share:
            out.append(f"ue {ue_id}: throughput {s.throughput} > attempts {s.attempts_share}")
        if (s.ue_class is UeClass.AOI and s.deliveries >= AUDIT_DELIVERIES
                and report.audit[ue_id] >= AUDIT_TOL * s.avg_aoi):
            out.append(f"ue {ue_id}: audit residual {report.audit[ue_id]} of age {s.avg_aoi}")
    total = sum(s.attempts_share for s in report.per_ue.values())
    if total > 1 + 1e-9:
        out.append(f"attempt shares sum to {total}")
    return out


# No shrinking: each example is up to three runs, and shrinking a failure
# takes minutes; the unshrunk falsifying example is still printed.
@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          phases=[Phase.explicit, Phase.generate])
@given(scenario=scenarios(), warmup=st.integers(0, HORIZON // 2), seed=st.integers(0, 2 ** 31))
def test_reports_follow_the_conventions(scenario, warmup, seed):
    for policy in allowed_policies(scenario):
        report = run(RunConfig(scenario=scenario, policy=PolicySpec(policy),
                               horizon=HORIZON, seed=seed, warmup=warmup))
        assert convention_failures(report, warmup) == [], policy


@pytest.mark.xfail(strict=True, reason="AoI avg_latency divides delivered latency by all "
                   "arrivals, superseded ones included (ROADMAP item 4)")
def test_aoi_latency_is_at_least_one_slot():
    report = run(RunConfig(scenario=reference_weighted(), policy=PolicySpec("hier"),
                           horizon=HORIZON, seed=1))
    assert report.per_ue[AOI_UE].avg_latency >= 1


@pytest.mark.xfail(strict=True, reason="finalize closes packets pending at the horizon at "
                   "slot horizon - warmup, so after a warm-up they count negative latency "
                   "(ROADMAP item 4)")
def test_latency_after_warmup_is_at_least_one_slot():
    report = run(RunConfig(scenario=reference_weighted(), policy=PolicySpec("hier"),
                           horizon=HORIZON, seed=38, warmup=HORIZON // 2))
    assert report.per_ue[LATENCY_UE].avg_latency >= 1
