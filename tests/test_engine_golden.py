"""Byte-level pin of the slot engine.

Each case runs ``sim.run`` once and pins the SHA-256 of the CSV bytes that
``aoisched run`` would write for it, followed by the ``repr`` of the solver
and weight-step extras (``t_star``, ``mu``, ``thresholds``,
``weight_log``).  The matrix covers all four policies, three seeds, the
three-UE reference system and a 12-UE system (4 UEs per class), with and
without a warm-up.  The horizon, ``3 * 2**14 + 123`` slots, and the warm-up
end, ``2**14 + 777``, are not multiples of a power of two, so an engine that
takes its draws in blocks of up to 2**14 slots crosses several block
boundaries and ends, and resets its window, part-way through a block.
``vw`` runs with a weight period of 1000 slots, so its weights step 49
times per run.

Re-record only when output changes on purpose:
``python tests/test_engine_golden.py`` prints the current table.
"""

import csv
import hashlib
import io

import pytest

from aoisched import presets
from aoisched.metrics import CSV_COLUMNS, report_rows
from aoisched.model import Scenario, UeClass, UeConfig, Variant
from aoisched.sim import PolicySpec, RunConfig, run

HORIZON = 3 * 2 ** 14 + 123
WARMUPS = (0, 2 ** 14 + 777)
SEEDS = (1, 7, 42)
POLICIES = ("hier", "vw", "rd", "cmu")
VW_PERIOD = 1000
EXTRAS = ("t_star", "mu", "thresholds", "weight_log")


def twelve_ue(variant: Variant) -> Scenario:
    lat = {"rho": 1.0} if variant is Variant.LATENCY_WEIGHTED else {"beta": 10.0}
    ues = [UeConfig(id=i, cls=UeClass.AOI, q=0.05 * i, p=0.6 + 0.05 * i, rho=1.0)
           for i in range(1, 5)]
    ues += [UeConfig(id=i, cls=UeClass.LATENCY, q=0.02 + 0.005 * i, p=0.8, **lat)
            for i in range(5, 9)]
    ues += [UeConfig(id=i, cls=UeClass.THROUGHPUT, p=0.9, alpha=0.01 * (i - 8))
            for i in range(9, 13)]
    return Scenario(ues=tuple(ues), variant=variant)


def _systems(weighted: Scenario, constrained: Scenario) -> dict[str, Scenario]:
    latency_only = Scenario(ues=weighted.latency_ues, variant=Variant.LATENCY_WEIGHTED)
    return {"hier": weighted, "vw": constrained, "rd": constrained, "cmu": latency_only}


SYSTEMS = {
    "ref": _systems(presets.reference_weighted(), presets.reference_constrained()),
    "ue12": _systems(twelve_ue(Variant.LATENCY_WEIGHTED),
                     twelve_ue(Variant.LATENCY_CONSTRAINED)),
}


def engine_digest(system: str, policy: str, seed: int, warmup: int) -> str:
    spec = PolicySpec(policy, f=VW_PERIOD) if policy == "vw" else PolicySpec(policy)
    report = run(RunConfig(scenario=SYSTEMS[system][policy], policy=spec,
                           horizon=HORIZON, seed=seed, warmup=warmup))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(report_rows(report, f"{report.policy}-h{HORIZON}-s{seed}"))
    buf.write(repr({k: report.extras.get(k) for k in EXTRAS}))
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


# (system, policy, seed, warmup): sha256
GOLDEN = {
    ('ref', 'hier', 1, 0): '957f66da6b82013c2bad0ee337cf2be0febfd0c5d48526c3067c5da141d8aa33',
    ('ref', 'hier', 1, 17161): '065a6b602ec8503d238298906b9dea8071530f4ff6972d932e7c6485a173035d',
    ('ref', 'hier', 7, 0): '67352ab9186e917dfaef8ba78127f99077b7d1c0cbb95b40ff941a3c3ef2b2da',
    ('ref', 'hier', 7, 17161): '194a4b934f82e2c7dd349b06183f60938724eec675eb06969f9e037c65f0d54e',
    ('ref', 'hier', 42, 0): 'c6c8debecd63765c2656f9d8e68df1bd087afbeb4ce3864d2c478a0c344ec639',
    ('ref', 'hier', 42, 17161): '9323bcbc7d925fabc9f743d3de74b72493cfd2f7934770bea8e1f636f7b474bc',
    ('ref', 'vw', 1, 0): 'b77d565b31882efa37344acf3cfcd04b1bad0ece5f2376a3ad9427f757e60436',
    ('ref', 'vw', 1, 17161): '29052e94a67376053bb7383312e60abca52d83771e04554cd0e10e3f25eff801',
    ('ref', 'vw', 7, 0): '0dbe5945f543f50704047b9cd4eb9c5ea5adf4c5894aec955ee32e687afb6b54',
    ('ref', 'vw', 7, 17161): '4e538f794314cf337169f6e10b102eaab289bb0b8766fe105898c5da853ff885',
    ('ref', 'vw', 42, 0): '68c886bfa3263dfb2fc2e52c19fdf7c977c1644a29ed6e7da70972bd1cc2bd71',
    ('ref', 'vw', 42, 17161): 'de1d2716fc6a3195e1d39d6cb719aa3e72e4a74dcd93112ca7154cfead212260',
    ('ref', 'rd', 1, 0): '9bfa18de2b71561fb1e79cf93d0eb60e9aaea7f16883887bce9e4e2336475398',
    ('ref', 'rd', 1, 17161): '17aad3c16ef1c5084cf010943388f93bd9b79022b35384defb96d5f57c46dec3',
    ('ref', 'rd', 7, 0): '078b418cfadd8bd3685715704cff48651b3c7272cb97b53d3025c8b799ec6f2b',
    ('ref', 'rd', 7, 17161): 'c50de30029811a956bd100b2c3d7dd44b9150098d1d6636d3366906f2be40c4b',
    ('ref', 'rd', 42, 0): 'b873254ee9cc9d5d3557b96f99a1435fc36a39d8073bae00a1be8218cb25f495',
    ('ref', 'rd', 42, 17161): '4bf8b859f6798919058fa1bdc52b69b253fd21df1d2c07e17056cbd6b83d1c69',
    ('ref', 'cmu', 1, 0): 'bded7dece601e04aa334a1dc02a60f9c579a8332598c98a4ffa27d63140cbde3',
    ('ref', 'cmu', 1, 17161): '0582081f1ff25949b18020c0a044d41148e58e06b8baacc8371f775e637898c6',
    ('ref', 'cmu', 7, 0): '80bcf7b4770bcf0262a15353183083702716e022bff5e6a4c0eb3426d2753751',
    ('ref', 'cmu', 7, 17161): 'a620840fcc7cd918aa9e9abda05ebe1a7dbde9b1101924a628fb0d48de13068a',
    ('ref', 'cmu', 42, 0): '51025c72de55e13b5b13e7d723878fb7f7f52a92bb6f19ecd45f45dd51642fc0',
    ('ref', 'cmu', 42, 17161): 'a89e25340b2dc65a558a1b016c87568d75e950f2c970093b286aeac2ca70e47a',
    ('ue12', 'hier', 1, 0): 'b909c3e45c499ecd9ebd8727e293bb1e11e3a5d79681d9a7664c37aa13137837',
    ('ue12', 'hier', 1, 17161): '658088364a312f45be3d28ea5e578a592cdd802cff72689c5541cfb7b3719afd',
    ('ue12', 'hier', 7, 0): 'fdb7a1610d3e2fd3c5eb8086b7c3a58f1f1a198665300d59a9bcc7004736d544',
    ('ue12', 'hier', 7, 17161): 'a1ae7c03ac184449d4c42d0ce4f8f16890d4ae55e73c24f6e4926cb7ea264f87',
    ('ue12', 'hier', 42, 0): '5672500e887702f18600bfa18e3c6708ac5ca7d2d10f6f08b36ae466e891306e',
    ('ue12', 'hier', 42, 17161): '7d3fcb6084a6453dcdae53a9642be4aea6f5074ed661c122c46cec9e0c80a277',
    ('ue12', 'vw', 1, 0): 'fa7832c1decfc3441ae63eaa361228a88e6025e6ec642068dcb080de0b5867c2',
    ('ue12', 'vw', 1, 17161): '6fc358f951c2b97d550bcf22fbd216f5794359d01b5cc07c055a28315226e535',
    ('ue12', 'vw', 7, 0): '1efcc678ef4248155235837307ebc5bb8271c62f647e2dffd3165f681e1d820e',
    ('ue12', 'vw', 7, 17161): 'dbb2eb45f29625fdc178697aa59e7b738e97b5c556a233b9403e575af629a895',
    ('ue12', 'vw', 42, 0): '0e43e23c1bd210ecaea8360ac23efcdef20ef0d93f7289cc1e0a166d073762e0',
    ('ue12', 'vw', 42, 17161): '485ac86432f6cf2309a432edb446b0342862b48e4664d99430c82644e977ad4c',
    ('ue12', 'rd', 1, 0): '7c7d6aefafbb13b839fc56cb6877b35a26fb5fa12b55f1e3922e6b3fff01e49a',
    ('ue12', 'rd', 1, 17161): '7f9260446a6da925be8ac4766ac8476cc5286c80227da4b9ba4753ee8cbf3b2f',
    ('ue12', 'rd', 7, 0): '00815fe58669cf866f139f04c423b75c4c663f834b2a59ba7e5a89608fa1bde3',
    ('ue12', 'rd', 7, 17161): 'b8a8c245d108ff0fbdf77819b3c9179ffbbdc1c4711e90519118daa35da0a138',
    ('ue12', 'rd', 42, 0): '05dd419adb3500e64838fca0d1b8ea4de6fdb7f26a6b65f3b49856283a0cea1e',
    ('ue12', 'rd', 42, 17161): 'bbba5099efafcc58e3cb0cb86d76aa46291424f0ca7628c408873f42727cea1f',
    ('ue12', 'cmu', 1, 0): 'b815711dcbbcbe2fbef93609bb7994cabb9c9d2e4d5fd2f4544c0a57c0e71610',
    ('ue12', 'cmu', 1, 17161): 'f09e4b40c4e7db728506d47dbb06e63f2afe8b601817aefb8373abf7bb1d24fe',
    ('ue12', 'cmu', 7, 0): '0a1935a22a0e4f9977a0634dc09b7f0ffa9348d8da42b009c0c4efa58e05595e',
    ('ue12', 'cmu', 7, 17161): 'ca6724d16b8569cb02505b9c46904caa12be1e5cfddec8347b39936e5905174a',
    ('ue12', 'cmu', 42, 0): '4fff488d06a059cc73e44a8b29bd4dd69e521cf03cc36ffbb9827cf1b17f3601',
    ('ue12', 'cmu', 42, 17161): '1ac791c3a56a32b85bd0cb2115f5fa4e648e33a57b3efb396f530c687221405d',
}


@pytest.mark.parametrize("system,policy,seed,warmup", sorted(GOLDEN))
def test_engine_output_is_pinned(system, policy, seed, warmup):
    assert engine_digest(system, policy, seed, warmup) == GOLDEN[system, policy, seed, warmup]


def test_matrix_is_complete():
    assert set(GOLDEN) == {(s, p, seed, w) for s in SYSTEMS for p in POLICIES
                           for seed in SEEDS for w in WARMUPS}


if __name__ == "__main__":
    for system in SYSTEMS:
        for policy in POLICIES:
            for seed in SEEDS:
                for warmup in WARMUPS:
                    key = (system, policy, seed, warmup)
                    print(f"    {key!r}: {engine_digest(*key)!r},")
