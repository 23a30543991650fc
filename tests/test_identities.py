"""Exact identities between the engines, at any size.

Some pairs of policies must report the same statistics on some systems,
because they attempt the same UE in every slot:

* ``rd``, ``hier`` and ``vw`` on systems without latency UEs.  ``rd``'s
  latency partition is empty, so each slot goes to the candidate that
  ``hier`` serves too, and ``vw`` has no latency weight to step.  This
  pits ``rd_serve`` in compiled code, drawing success in ``draw_block``'s
  row, against the Python slot loop, drawing it with ``kernel.uniforms``.
* ``hier`` and ``cmu`` on latency-only weighted systems, at warm-up 0.
  ``hier`` ranks a queued latency UE by its fixed rho*p/q, as ``cmu``
  orders its queues, both breaking ties toward the lower position, and
  both read the same arrival and success streams (``rng``'s layout).  So
  they attempt the same UE in each slot; only which packet leaves
  differs: ``hier`` sends the newest, ``cmu`` the oldest.  By sample-path
  Little's law the latency total does not depend on that, but the spacing
  of delivered packets does, so ``t_bar`` and ``delta_sq`` are left out.

Each example is one run of each policy, a few blocks long, so the
identities hold every ``PerUeStats`` field to equality where the
slot-by-slot oracles would take seconds per case.
"""

from dataclasses import asdict

from hypothesis import given, settings
from hypothesis import strategies as st

from aoisched.model import Scenario, UeClass, UeConfig, Variant
from aoisched.sim import CHUNK, PolicySpec, RunConfig, run

unit = st.floats(0.05, 1.0)


def _copies(draw, count: int, fresh):
    """``count`` draws of ``fresh``, each possibly a copy of an earlier one,
    so indices tie."""
    picks: list = []
    for _ in range(count):
        picks.append(draw(st.sampled_from(picks)) if picks and draw(st.booleans())
                     else draw(fresh))
    return picks


def _shuffled(draw, ues: list[dict], variant: Variant) -> Scenario:
    ids = draw(st.permutations(range(1, len(ues) + 1)))
    return Scenario(ues=tuple(UeConfig(id=i, **u) for i, u in zip(ids, ues)), variant=variant)


@st.composite
def without_latency(draw):
    """0-5 AoI and 0-4 throughput UEs, at least one UE; the throughput UEs
    share a load of 0.02-0.9, so the AoI UEs keep a slot budget."""
    aoi = _copies(draw, draw(st.integers(0, 5)),
                  st.tuples(st.floats(0.01, 1.0), unit, st.floats(0.2, 3.0)))
    thr = _copies(draw, draw(st.integers(0 if aoi else 1, 4)), st.tuples(unit, unit))
    load = draw(st.floats(0.02, 0.9))
    total = sum(share for share, _ in thr)
    ues = [dict(cls=UeClass.AOI, q=q, p=p, rho=rho) for q, p, rho in aoi]
    ues += [dict(cls=UeClass.THROUGHPUT, alpha=load * share / total * p, p=p)
            for share, p in thr]
    return _shuffled(draw, ues, draw(st.sampled_from(Variant)))


@st.composite
def latency_only(draw):
    """1-8 weighted latency UEs sharing a load of 0.05-0.95."""
    lat = _copies(draw, draw(st.integers(1, 8)),
                  st.tuples(unit, unit, st.floats(0.2, 3.0)))
    load = draw(st.floats(0.05, 0.95))
    total = sum(share for share, _, _ in lat)
    ues = [dict(cls=UeClass.LATENCY, q=load * share / total * p, p=p, rho=rho)
           for share, p, rho in lat]
    return _shuffled(draw, ues, Variant.LATENCY_WEIGHTED)


def stats(scenario, policy, horizon, seed, warmup=0, **spec):
    config = RunConfig(scenario=scenario, policy=PolicySpec(policy, **spec), horizon=horizon,
                       seed=seed, warmup=warmup)
    return {ue: asdict(s) for ue, s in run(config).per_ue.items()}


# one to four blocks, whole or cut anywhere past the warm-up
horizons = st.integers(1, 4).map(lambda blocks: blocks * CHUNK) | st.integers(1001, 4 * CHUNK)
seeds = st.integers(0, 2 ** 64 - 1)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(scenario=without_latency(), horizon=horizons, seed=seeds,
       warmup=st.sampled_from([0, 1000]), f=st.integers(1, 3 * CHUNK))
def test_rd_hier_and_vw_agree_without_latency_ues(scenario, horizon, seed, warmup, f):
    hier = stats(scenario, "hier", horizon, seed, warmup)
    assert stats(scenario, "rd", horizon, seed, warmup) == hier
    assert stats(scenario, "vw", horizon, seed, warmup, f=f) == hier


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(scenario=latency_only(), horizon=horizons, seed=seeds)
def test_hier_and_cmu_attempt_alike_on_latency_only_systems(scenario, horizon, seed):
    def order_free(per_ue):
        return {ue: {k: v for k, v in s.items() if k not in ("t_bar", "delta_sq")}
                for ue, s in per_ue.items()}
    assert order_free(stats(scenario, "cmu", horizon, seed)) == \
        order_free(stats(scenario, "hier", horizon, seed))
