"""The compiled ``rd`` engine against its slot-by-slot reference.

``sim.run`` serves ``rd`` a segment per call of ``kernel.rd_serve``, which
takes each slot's arrivals from a timing wheel over the streams' queues, reads
the success and policy uniforms in place and sums each UE's statistics
itself; ``two_tier_oracle.run_blocks`` walks the same draws one slot at a time
through ``SlotRandomizedPolicy``, the per-slot class the engine ran before,
and folds every delivery into ``UeMetrics``.  The two must write the same
CSV cells on systems of up to 16 UEs per class, at least one of them a
latency UE: theta sums on either side of 1 (above it the partition is scaled to fill the slot), throughput UEs that
share ``(alpha, p)`` (one group, ranked by fewest attempts), AoI UEs whose
indices tie, latency queues that empty and refill across block edges,
horizons over up to four blocks and warm-ups ending at ``CHUNK - 1`` or
anywhere else; and systems where most streams have an arrival in every
slot, so that each slot takes several.  A last test runs ``rd`` on tens of
thousands of UEs under a small stack, which only works while the kernel
keeps its per-UE scratch off the stack.
"""

import csv
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import aoisched
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


# Up to eight AoI and latency UEs, ids interleaving the classes, in a run
# across a block edge.  Most streams have an arrival in every slot (q = 1),
# so each slot takes several; while AoI UEs need a slot budget, the
# latency UEs share a load of 0.8 instead.
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(streams=st.lists(st.tuples(st.sampled_from([UeClass.AOI, UeClass.LATENCY]),
                                  st.sampled_from([1.0, 1.0, 0.5])), min_size=1, max_size=8),
       horizon=st.integers(1, 64) | st.integers(CHUNK - 2, CHUNK + 2),
       seed=st.integers(0, 2 ** 31))
def test_streams_arriving_in_one_slot_match_slot_reference(streams, horizon, seed):
    classes = [c for c, _ in streams]
    nlat = classes.count(UeClass.LATENCY)
    ues = [UeConfig(id=i, cls=c, q=q, p=0.9, rho=1.0) if c is UeClass.AOI else
           UeConfig(id=i, cls=c, q=q if UeClass.AOI not in classes else 0.8 * 0.9 / nlat,
                    p=0.9, beta=30.0) for i, (c, q) in enumerate(streams, 1)]
    ues.append(UeConfig(id=len(ues) + 1, cls=UeClass.THROUGHPUT, p=0.9, alpha=0.01))
    config = RunConfig(scenario=Scenario(ues=tuple(ues), variant=Variant.LATENCY_CONSTRAINED),
                       policy=PolicySpec("rd"), horizon=horizon, seed=seed)
    assert report_rows(run(config), "x") == report_rows(run_blocks(config), "x")


# Two UEs per class, one throughput group, at a load that keeps the latency
# stacks and AoI packets often held at a block edge or where the warm-up ends.
EDGE_SYSTEM = Scenario(ues=(
    UeConfig(id=1, cls=UeClass.AOI, q=0.5, p=0.7, rho=1.0),
    UeConfig(id=2, cls=UeClass.LATENCY, q=0.15, p=0.8, beta=3.0),
    UeConfig(id=3, cls=UeClass.THROUGHPUT, p=0.9, alpha=0.1),
    UeConfig(id=4, cls=UeClass.AOI, q=0.2, p=0.6, rho=2.0),
    UeConfig(id=5, cls=UeClass.LATENCY, q=0.1, p=0.9, beta=5.0),
    UeConfig(id=6, cls=UeClass.THROUGHPUT, p=0.9, alpha=0.1),
), variant=Variant.LATENCY_CONSTRAINED)
WINDOW_EDGES = {"none": lambda h: 0, "1": lambda h: 1, "chunk-1": lambda h: CHUNK - 1,
                "chunk": lambda h: CHUNK, "horizon-1": lambda h: h - 1}


@pytest.mark.parametrize("horizon", [2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 1])
@pytest.mark.parametrize("warmup", WINDOW_EDGES.values(), ids=WINDOW_EDGES.keys())
def test_window_edges_match_slot_reference(horizon, warmup):
    """The block is cut only where the warm-up ends, in its last slot
    ``warmup``, and the sums are added at the end of each window: a
    warm-up ending in slot 1, on either side of the first block edge or in
    the second-last slot; horizons ending a block, one slot into the next
    and two."""
    config = RunConfig(scenario=EDGE_SYSTEM, policy=PolicySpec("rd"), horizon=horizon,
                       seed=3, warmup=warmup(horizon))
    assert report_rows(run(config), "x") == report_rows(run_blocks(config), "x")


# The reference system plus IDLE latency UEs that almost never see a packet.
MANY_UES = """
import csv, sys
from aoisched.metrics import CSV_COLUMNS, report_rows
from aoisched.model import Scenario, UeClass, UeConfig, Variant
from aoisched.sim import PolicySpec, RunConfig, run
ues = [UeConfig(id=1, cls=UeClass.AOI, q=0.9, p=0.7, rho=1.0),
       UeConfig(id=2, cls=UeClass.LATENCY, q=0.2, p=0.8, beta=30.0),
       UeConfig(id=3, cls=UeClass.THROUGHPUT, p=0.9, alpha=0.2)]
ues += [UeConfig(id=i, cls=UeClass.LATENCY, q=1e-9, p=0.9, beta=30.0)
        for i in range(4, 4 + IDLE)]
scenario = Scenario(ues=tuple(ues), variant=Variant.LATENCY_CONSTRAINED)
report = run(RunConfig(scenario=scenario, policy=PolicySpec("rd"), horizon=1000, seed=1))
writer = csv.writer(sys.stdout, lineterminator="\\n")
writer.writerow(CSV_COLUMNS)
writer.writerows(report_rows(report, "many"))
"""


def test_many_latency_ues_run_on_a_small_stack():
    # rd_serve's state and scratch are 32 B per latency UE, 24 per AoI
    # UE, 8 per throughput group and a 64 KiB timing wheel: 706 KB here,
    # more than the 256 KiB stack
    idle, stack = 20_000, 256 * 1024
    env = {**os.environ, "PYTHONPATH": str(Path(aoisched.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", MANY_UES.replace("IDLE", str(idle))], env=env,
        capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_STACK, (stack, stack)))
    assert proc.returncode == 0, (proc.returncode, proc.stderr[-2000:])
    rows = list(csv.DictReader(proc.stdout.splitlines()))
    ue_rows = [r for r in rows if r["row_type"] == "ue"]
    assert [int(r["ue_id"]) for r in ue_rows] == list(range(1, 4 + idle))

    def cell(row, name):
        return float(row[name]) if row[name] else None

    # the README's conventions: age and latency >= 1 (an AoI UE's latency
    # is ROADMAP item 4's known defect, xfailed in test_properties),
    # delivery rate <= attempt share, and attempt shares summing to at most 1
    assert cell(ue_rows[0], "avg_aoi") >= 1.0
    assert cell(ue_rows[1], "avg_latency") >= 1.0
    assert all(cell(r, "avg_latency") is None or cell(r, "avg_latency") >= 1.0
               for r in ue_rows if r["class"] == "latency")
    assert all(cell(r, "throughput") <= cell(r, "attempts_share") for r in ue_rows)
    assert sum(cell(r, "attempts_share") for r in ue_rows) <= 1.0
    assert all(cell(r, "throughput") > 0 for r in ue_rows[:3])
