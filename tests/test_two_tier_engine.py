"""The two-tier engine against its list-based reference.

``sim.run`` walks each block's draws in place, through memoryviews of
their numpy buffers, and shares one tuple among the slots that see the
same arrivals (``hier``, ``vw``), or serves them in compiled code
(``rd``); ``two_tier_oracle.run_blocks`` runs the block loop over
``.tolist()`` copies, with a list per multi-arrival slot, and ``rd``
through its slot-by-slot class.  The two
must write the same CSV cells and the same ``vw`` weight log for
``hier``, ``rd`` (with at least two latency queues) and ``vw`` at weight
periods 1, 7 and 1000, with warm-ups ending on either side of the first
block edge or anywhere else.  The reference itself must reproduce every
pinned two-tier digest.
"""

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from aoisched.metrics import report_rows
from aoisched.model import Scenario, UeClass, UeConfig, Variant
from aoisched.sim import CHUNK, PolicySpec, RunConfig, run
from test_engine_golden import GOLDEN, SYSTEMS, VW_GOLDEN, VW_PERIOD, run_digest
from two_tier_oracle import run_blocks

unit = st.floats(0.3, 1.0)
weight = st.floats(0.2, 3.0)
# Each latency or throughput UE takes a load share q/p or alpha/p of at most
# 0.15, so with at most five of them every draw leaves AoI traffic a budget.
share = st.floats(0.02, 0.15)


@st.composite
def two_tier_systems(draw, policy: str):
    """1-3 AoI UEs at arrival rates up to 1 and 0-3 latency UEs (at least 2
    under ``rd``), so many slots see several arrivals; 0-2 throughput UEs;
    ids in a random order."""
    constrained = policy != "hier"
    ues = [dict(cls=UeClass.AOI, q=draw(st.floats(0.05, 1.0)), p=draw(unit), rho=draw(weight))
           for _ in range(draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(2 if policy == "rd" else 0, 3))):
        p = draw(unit)
        cost = {"beta": draw(st.floats(1.0, 5.0))} if constrained else {"rho": draw(weight)}
        ues.append(dict(cls=UeClass.LATENCY, p=p, q=draw(share) * p, **cost))
    for _ in range(draw(st.integers(0, 2))):
        p = draw(unit)
        ues.append(dict(cls=UeClass.THROUGHPUT, p=p, alpha=draw(share) * p))
    ids = draw(st.permutations(range(1, len(ues) + 1)))
    variant = Variant.LATENCY_CONSTRAINED if constrained else Variant.LATENCY_WEIGHTED
    return Scenario(ues=tuple(UeConfig(id=i, **u) for i, u in zip(ids, ues)), variant=variant)


POLICIES = [PolicySpec("hier"), PolicySpec("rd"), PolicySpec("vw", f=1), PolicySpec("vw", f=7),
            PolicySpec("vw", f=1000)]


# Both engines walk every slot in Python, so examples stay few and short.
@pytest.mark.parametrize("warmup", [CHUNK - 1, CHUNK, None], ids=["chunk-1", "chunk", "any"])
@pytest.mark.parametrize("spec", POLICIES, ids=lambda s: f"{s.name}-f{s.f}")
@settings(max_examples=8, deadline=None, derandomize=True, database=None,
          phases=[Phase.explicit, Phase.generate])
@given(data=st.data(), horizon=st.integers(CHUNK + 1, 2 * CHUNK + 3),
       seed=st.integers(0, 2 ** 31))
def test_engine_matches_list_reference(spec, warmup, data, horizon, seed):
    scenario = data.draw(two_tier_systems(spec.name), label="scenario")
    if warmup is None:
        warmup = data.draw(st.integers(0, horizon - 1), label="warmup")
    config = RunConfig(scenario=scenario, policy=spec, horizon=horizon, seed=seed,
                       warmup=warmup)
    ours, reference = run(config), run_blocks(config)
    assert report_rows(ours, "x") == report_rows(reference, "x")
    assert ours.extras.get("weight_log") == reference.extras.get("weight_log")


TWO_TIER_CASES = sorted(
    [(SYSTEMS[s][p], PolicySpec(p, f=VW_PERIOD) if p == "vw" else PolicySpec(p), seed, w, d)
     for (s, p, seed, w), d in GOLDEN.items() if p != "cmu"]
    + [(SYSTEMS[s]["vw"], PolicySpec("vw", f=f), seed, w, d)
       for (s, f, seed, w), d in VW_GOLDEN.items()],
    key=lambda case: case[4])


@pytest.mark.parametrize("scenario,spec,seed,warmup,digest", TWO_TIER_CASES,
                         ids=[case[4][:12] for case in TWO_TIER_CASES])
def test_list_reference_reproduces_the_pinned_digests(scenario, spec, seed, warmup, digest):
    assert run_digest(scenario, spec, seed, warmup, run_blocks) == digest
