"""The compiled ``rd`` engine against its slot-by-slot reference.

``sim.run`` serves ``rd`` a segment per call of ``kernel.rd_serve``, which
walks the block's arrival slots and reads the success and policy uniforms
in place, and sums each UE's statistics itself;
``two_tier_oracle.run_blocks`` walks the same draws one slot at a time
through ``SlotRandomizedPolicy``, the per-slot class the engine ran before,
and folds every delivery into ``UeMetrics``.  The two must write the same
CSV cells on systems of up to 16 UEs per class, at least one of them a
latency UE: theta sums on either side of 1 (above it the partition is scaled to fill the slot), throughput UEs that
share ``(alpha, p)`` (one group, ranked by fewest attempts), AoI UEs whose
indices tie, latency queues that empty and refill across block edges,
horizons over up to four blocks and warm-ups ending at ``CHUNK - 1`` or
anywhere else.
"""

from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from aoisched.metrics import report_rows
from aoisched.model import Scenario, UeClass, UeConfig, Variant
from aoisched.sim import CHUNK, PolicySpec, RunConfig, run
from two_tier_oracle import run_blocks


def _copies(draw, count: int, fresh):
    """``count`` draws of ``fresh``, each possibly a copy of an earlier one."""
    picks: list = []
    for _ in range(count):
        picks.append(draw(st.sampled_from(picks)) if picks and draw(st.booleans())
                     else draw(fresh))
    return picks


@st.composite
def rd_systems(draw):
    """0-16 AoI, 1-16 latency and 0-16 throughput UEs, ids in a random
    order.  The latency and throughput UEs share a load of 0.02-0.9, so the
    AoI UEs keep a slot budget; ceilings near 1 push theta toward 1/p, so
    the theta sum often exceeds 1.  A UE may copy an earlier one of its
    class: tied AoI indices, one throughput group of several members."""
    unit = st.floats(0.3, 1.0)
    aoi = _copies(draw, draw(st.integers(0, 16)),
                  st.tuples(st.floats(0.01, 1.0), unit, st.floats(0.2, 3.0)))
    lat = _copies(draw, draw(st.integers(1, 16)),
                  st.tuples(st.floats(0.05, 1.0), unit,
                            st.floats(1.0, 1.5) | st.floats(1.5, 50.0)))
    thr = _copies(draw, draw(st.integers(0, 16)), st.tuples(st.floats(0.05, 1.0), unit))
    load = draw(st.floats(0.02, 0.9))
    total = sum(share for share, *_ in lat + thr)
    ues = [dict(cls=UeClass.AOI, q=q, p=p, rho=rho) for q, p, rho in aoi]
    ues += [dict(cls=UeClass.LATENCY, q=load * share / total * p, p=p, beta=beta)
            for share, p, beta in lat]
    ues += [dict(cls=UeClass.THROUGHPUT, alpha=load * share / total * p, p=p)
            for share, p in thr]
    ids = draw(st.permutations(range(1, len(ues) + 1)))
    return Scenario(ues=tuple(UeConfig(id=i, **u) for i, u in zip(ids, ues)),
                    variant=Variant.LATENCY_CONSTRAINED)


@st.composite
def runs(draw):
    """A system, a horizon within 3 slots of 1-4 whole blocks, and a
    warm-up ending at the first block's last slot, or anywhere."""
    scenario = draw(rd_systems())
    horizon = draw(st.integers(1, 4)) * CHUNK + draw(st.integers(-3, 3))
    warmup = draw(st.sampled_from([CHUNK - 1, 0]) | st.integers(0, horizon - 1))
    return scenario, horizon, min(warmup, horizon - 1)


# The benchmark's 48-UE constrained system: identical AoI UEs, whose indices
# tie, and one throughput group of 16, over two blocks with a warm-up
# ending at the first block's last slot.
WIDE48 = Scenario(ues=tuple(
    [UeConfig(id=i, cls=UeClass.AOI, q=0.3 / 16, p=0.7, rho=1.0) for i in range(1, 17)]
    + [UeConfig(id=i, cls=UeClass.LATENCY, q=0.01, p=0.8, beta=30.0) for i in range(17, 33)]
    + [UeConfig(id=i, cls=UeClass.THROUGHPUT, p=0.9, alpha=0.15 / 16) for i in range(33, 49)]),
    variant=Variant.LATENCY_CONSTRAINED)


# The reference walks every slot in Python, so examples stay few.
@settings(max_examples=80, deadline=None, derandomize=True, database=None,
          phases=[Phase.explicit, Phase.generate])
@given(case=runs(), seed=st.integers(0, 2 ** 31))
@example(case=(WIDE48, 2 * CHUNK, CHUNK - 1), seed=1)
def test_kernel_matches_slot_reference(case, seed):
    scenario, horizon, warmup = case
    config = RunConfig(scenario=scenario, policy=PolicySpec("rd"), horizon=horizon,
                       seed=seed, warmup=warmup)
    assert report_rows(run(config), "x") == report_rows(run_blocks(config), "x")
