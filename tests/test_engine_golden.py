"""Byte-level pin of the slot engine.

Each case runs ``sim.run`` once and pins the SHA-256 of the CSV bytes that
``aoisched run`` would write for it, followed by the ``repr`` of the solver
and weight-step extras (``t_star``, ``mu``, ``thresholds``,
``weight_log``, as one ``{ue_id: weight}`` dict per weight step).  The matrix covers all four policies, three seeds, the
three-UE reference system and a 12-UE system (4 UEs per class), with and
without a warm-up.  The horizon, ``3 * 2**14 + 123`` slots, and the warm-up
end, ``2**14 + 777``, are not multiples of a power of two, so an engine that
takes its draws in blocks of up to 2**14 slots crosses several block
boundaries and ends, and resets its window, part-way through a block.
``vw`` runs with a weight period of 1000 slots, so its weights step 49
times per run.  ``VW_GOLDEN`` adds ``vw`` at other weight periods: a step
every slot (``f=1``), every 7th slot, and warm-ups whose last slot is a
weight-step slot, one of them also the first slot of a block (16384 with
``f=4096``), one the last slot of the block before it (16383).
``CMU_GOLDEN`` adds ``cmu`` on latency-only systems that stress a queue
engine: tied ``rho*p/q`` (the tie breaks toward the lower position) with a
UE whose ``p`` is 1, a total load of 0.97 (queues carry across blocks), an
overloaded system (load 1.10, which ``validate`` flags and ``run`` still
runs), and warm-ups ending on the last slot of the first block of draws
(``CHUNK - 1``) and on the first slot of the next (``CHUNK``).

Re-record only when output changes on purpose:
``python tests/test_engine_golden.py`` prints the current table.
"""

import csv
import hashlib
import io

import pytest

from aoisched import presets
from aoisched.metrics import CSV_COLUMNS, report_rows
from aoisched.model import Scenario, UeClass, UeConfig, Variant, validate
from aoisched.sim import CHUNK, PolicySpec, RunConfig, run

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


def latency_only(*ues: tuple[float, float, float]) -> Scenario:
    """Weighted latency UEs with ids 1, 2, ... from (q, p, rho) triples."""
    return Scenario(ues=tuple(UeConfig(id=i, cls=UeClass.LATENCY, q=q, p=p, rho=rho)
                              for i, (q, p, rho) in enumerate(ues, 1)),
                    variant=Variant.LATENCY_WEIGHTED)


CMU_SYSTEMS = {
    # rho*p/q is 5.0 for ids 1-3 (id 2 has p = 1) and 9.0 for id 4
    "tie": latency_only((0.1, 0.5, 1.0), (0.2, 1.0, 1.0), (0.1, 0.5, 1.0),
                        (0.05, 0.9, 0.5)),
    "heavy": latency_only((0.3, 0.8, 1.0), (0.2, 0.5, 2.0), (0.13, 0.67, 0.5)),
    "over": latency_only((0.4, 0.6, 1.0), (0.3, 0.7, 3.0)),
}
CMU_WARMUPS = (0, CHUNK - 1, CHUNK)
CMU_SEEDS = (1, 42)


def run_digest(scenario: Scenario, spec: PolicySpec, seed: int, warmup: int,
               engine=run) -> str:
    report = engine(RunConfig(scenario=scenario, policy=spec,
                              horizon=HORIZON, seed=seed, warmup=warmup))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(report_rows(report, f"{report.policy}-h{HORIZON}-s{seed}"))
    extras = {k: report.extras.get(k) for k in EXTRAS}
    if extras["weight_log"] is not None:
        # the digests were recorded from a list of one {ue_id: weight} dict per step
        log = extras["weight_log"]
        extras["weight_log"] = [dict(zip(log, step)) for step in zip(*log.values())]
    buf.write(repr(extras))
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def engine_digest(system: str, policy: str, seed: int, warmup: int,
                  f: int = VW_PERIOD) -> str:
    spec = PolicySpec(policy, f=f) if policy == "vw" else PolicySpec(policy)
    return run_digest(SYSTEMS[system][policy], spec, seed, warmup)


def cmu_digest(system: str, seed: int, warmup: int) -> str:
    return run_digest(CMU_SYSTEMS[system], PolicySpec("cmu"), seed, warmup)


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


# (weight period f, warmup) of each extra vw case; every one runs on both
# systems at seeds 1 and 42
VW_RUNS = ((1, 0), (1, 17161), (7, 0), (7, 7 * 2452), (1000, 17000),
           (4096, 2 ** 14), (4096, 2 ** 14 - 1))
VW_SEEDS = (1, 42)

# (system, f, seed, warmup): sha256
VW_GOLDEN = {
    ('ref', 1, 1, 0): '7903089bfdee0c7a46605a6d54797c5345019d054ce2ff962f5e4b041f3d0b62',
    ('ref', 1, 1, 17161): '450eabf255cf68fff434d07a0e19fce37a553dbc412488b3c68a9ccb2c2111a2',
    ('ref', 1, 42, 0): 'cf3cb4508cef4af5d937be4e2e29c8b67b0452fd779425ad7abf2ca3f09818de',
    ('ref', 1, 42, 17161): '1874f21974c89ea53a3e2c3db87acb2d5841357cd65ddd12e3fb621a0fa338f7',
    ('ref', 7, 1, 0): '88c4f387357c4d71e47d974756301608adf2df9ea74f9a7fb50510136822f4e9',
    ('ref', 7, 1, 17164): '75dcb56eec0f0b4e63d41321e9bf26a4577e818c24f7454408e967fd01dd0fab',
    ('ref', 7, 42, 0): '95bab4dedd0d8e5d8551a6be412339995ad77d9e89bab5774069ac34b1e2760b',
    ('ref', 7, 42, 17164): 'cb6996463cb48de77fa435bef79cb58bfb7614afc11aa46060422dfc5c0789d1',
    ('ref', 1000, 1, 17000): 'b9615a5ee025ea742ddc54a8862fe4478cc64e9311c9bf2728ccc211d4ac07c5',
    ('ref', 1000, 42, 17000): '76a7e4523600b92be57016f23cd61e96df43a1181c5ecc43dafa911265b09484',
    ('ref', 4096, 1, 16383): '2c7b444c7d41cf8f815957fd62625d25ed69d00fb0c3e52213aa14d19cd02dae',
    ('ref', 4096, 1, 16384): '3ae3c22b758394d5f37e8077ea54c803525745fface630def73354a031e93e35',
    ('ref', 4096, 42, 16383): '225ab23ae9d441acb6aa5993629b3827467a2687e785f1c287ab37f98bc2508d',
    ('ref', 4096, 42, 16384): '0a06f5472e83cc4bc161449609d290dea266af389e921499c0ecb8e122f3ba2b',
    ('ue12', 1, 1, 0): 'de95f28c321b37830ec8c507814f24b7321a4051dd29facff165595894ceae6e',
    ('ue12', 1, 1, 17161): '745ec52daa1405e06a9372325968f4a900575f1723e5057919f077f5dcf5d0c2',
    ('ue12', 1, 42, 0): '566cbf1d014dacbf78bada231d8dd0216730538f92869276a36207040300d4ed',
    ('ue12', 1, 42, 17161): '7c754e2569bb5db4d2444fd75faa8af1f14f2bd14beb3666a48a8c88cb78af54',
    ('ue12', 7, 1, 0): '11eb0e4feb5164da9804e21e7324665c8d8395cd918c04bf703316b2f2bd79a9',
    ('ue12', 7, 1, 17164): '8cff4a1e6556f0fa3d8f60253eea3848db78da8da57aec8ec4f0e7bae69e932d',
    ('ue12', 7, 42, 0): '0e3f5a384392b8ac70e11559bf2046d5557c44e51a52a3c809477c34802ecf05',
    ('ue12', 7, 42, 17164): 'f40d91eef771619e03d37be6f1fcb287759f72e3bb7ee83aa4d1ec935a1d7a1d',
    ('ue12', 1000, 1, 17000): 'cbc0b81d916fadf9ecd58df2be88e89f6cc63c13da37a26ad2a771dce32ea1bf',
    ('ue12', 1000, 42, 17000): '1656df52519b8d5f39dcfc4601d919d335e45b528c90f76842d676e9641e86b1',
    ('ue12', 4096, 1, 16383): '848b208941a17d86537c7a2656954547359e9435bdc38dd13c08975b660d4f11',
    ('ue12', 4096, 1, 16384): '0f2ee3dd2b774862a11a6738688a614f1a8f2ec5ea28e28c48d72e3b58f9d2a5',
    ('ue12', 4096, 42, 16383): '48b8ab35b595ba49ff58d34c8d12eb2992889d59271b6f980be0741e1cf7689f',
    ('ue12', 4096, 42, 16384): '9709d7f24dbb838c23309ffc129704f9ad34183e3b186267174512a2a31b1a70',
}


# (system, seed, warmup): sha256
CMU_GOLDEN = {
    ('tie', 1, 0): '185fd92f651b718f0bef41ea174dfcd10e07df1ccf2f0e40b8bdd5ba95a3a182',
    ('tie', 1, 8191): '25d3dbbdbe5ae3e11e0b57bf8ceedc37c435202984e678dde3f5522b313c839b',
    ('tie', 1, 8192): '13a144f1a1271097c3336e6683c552adf3cbed3565620bb53cec4f452c3cd4a7',
    ('tie', 42, 0): '4311a7be488b1e4d17f663cbcc7857dbe4fc9cb074cb47ba9f44b6f9e8b9b60f',
    ('tie', 42, 8191): 'd6b0f6a22bc5b23a5428c8af2b14d9482dd54c560f7e30189f2c73c2670d7211',
    ('tie', 42, 8192): 'cbc77e2db0a8df005895ec478256d775a31e1eac4e8a6eed9a2f8d0111d109aa',
    ('heavy', 1, 0): '5f59ef76f43e4e3dcc8202285c137125883a764331e9f6ba66bb9973ba99d055',
    ('heavy', 1, 8191): '7a871b72d74a12e2ac2e598b653d71d016edb692228e1a533f4240385034a267',
    ('heavy', 1, 8192): '0affd26478ea305b82643ca14a41177d9c8613e500dfb002ddcc46d637d63e17',
    ('heavy', 42, 0): '7a6fc12b1562e654be0c0649d068796b156c952af21c89191e2239a6e7c1c76f',
    ('heavy', 42, 8191): 'fd56aa66fcfb4beb41d591882ce2224a4daae73ca0d57078ed0ca94511d3f3c7',
    ('heavy', 42, 8192): '667692ea019f0ea4f93cd46c3ada43e970d1c4b787bcfc2cea8d7001958c3882',
    ('over', 1, 0): '74c1e80ff276ac9726291cf4d0c566452ee4612ee8ebfe54fe45ea470d23b69d',
    ('over', 1, 8191): '6811b962771c8b77db6559c25aa13b7d0907b227a29aca60171678bce255ae51',
    ('over', 1, 8192): '47bd27ab744540bcf9d7cbb66ba6c72149dccfad35b81e55d325603e4185749d',
    ('over', 42, 0): '1a610bc1d8009b2a0f2e902d43aca51aa5a5547239c09995d09153f748f0c94f',
    ('over', 42, 8191): '330afffb20e359174eb6bba9a0f1f5630b0e91542f7975d537bc84d339790ad9',
    ('over', 42, 8192): 'e69b3f2c49750a402e5b2f7bcc013ff8447252e2c99b5288b984175d963e6a52',
}


@pytest.mark.parametrize("system,policy,seed,warmup", sorted(GOLDEN))
def test_engine_output_is_pinned(system, policy, seed, warmup):
    assert engine_digest(system, policy, seed, warmup) == GOLDEN[system, policy, seed, warmup]


@pytest.mark.parametrize("system,f,seed,warmup", sorted(VW_GOLDEN))
def test_vw_weight_periods_are_pinned(system, f, seed, warmup):
    assert engine_digest(system, "vw", seed, warmup, f) == VW_GOLDEN[system, f, seed, warmup]


@pytest.mark.parametrize("system,seed,warmup", sorted(CMU_GOLDEN))
def test_cmu_queue_systems_are_pinned(system, seed, warmup):
    assert cmu_digest(system, seed, warmup) == CMU_GOLDEN[system, seed, warmup]


def test_cmu_systems_have_the_stated_shape():
    index = [u.rho * u.p / u.q for u in CMU_SYSTEMS["tie"].ues]
    assert index[0] == index[1] == index[2] < index[3]
    assert CMU_SYSTEMS["tie"].ues[1].p == 1.0
    assert 0.96 < validate(CMU_SYSTEMS["heavy"]).load < 0.98
    over = validate(CMU_SYSTEMS["over"])
    assert over.load > 1 and not over.feasible


def test_matrix_is_complete():
    assert set(GOLDEN) == {(s, p, seed, w) for s in SYSTEMS for p in POLICIES
                           for seed in SEEDS for w in WARMUPS}
    assert set(VW_GOLDEN) == {(s, f, seed, w) for s in SYSTEMS for f, w in VW_RUNS
                              for seed in VW_SEEDS}
    assert set(CMU_GOLDEN) == {(s, seed, w) for s in CMU_SYSTEMS for seed in CMU_SEEDS
                               for w in CMU_WARMUPS}


if __name__ == "__main__":
    for system in SYSTEMS:
        for policy in POLICIES:
            for seed in SEEDS:
                for warmup in WARMUPS:
                    key = (system, policy, seed, warmup)
                    print(f"    {key!r}: {engine_digest(*key)!r},")
    print()
    for system in SYSTEMS:
        for f, warmup in VW_RUNS:
            for seed in VW_SEEDS:
                key = (system, f, seed, warmup)
                print(f"    {key!r}: {engine_digest(system, 'vw', seed, warmup, f)!r},")
    print()
    for system in CMU_SYSTEMS:
        for seed in CMU_SEEDS:
            for warmup in CMU_WARMUPS:
                print(f"    {(system, seed, warmup)!r}: {cmu_digest(system, seed, warmup)!r},")
