"""Byte-level pin of every ``reproduce`` preset.

Each case runs one preset at a short horizon and pins the SHA-256 of the
CSV it writes, the SHA-256 of its stdout (with the output path masked, so
the digest does not depend on the temporary directory) and its exit code.
A change to the sweep, the averaging, the CSV formatting or any verdict
line shows up here.  At this horizon ``fig5_weights`` logs too few weight
updates for its checks and exits 2; the other presets exit 0.

Re-record only when output changes on purpose:
``python tests/test_reproduce_golden.py`` prints the current table.
"""

import hashlib
import io
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from aoisched.cli import main

HORIZON = 20000
SEEDS = 2

# (preset, seed): (csv sha256, masked stdout sha256, exit code)
GOLDEN = {
    ("fig4", 1): ("0f0a8f4d20e38bf5e1b83a6da9ea80c7a83cb343e80c30a77e32095bed974ba4", "f3bdb7bfa37290cc85a0e2124ae59315ad1576a4122d97e8ca9a1d04fe4fa4b7", 0),
    ("fig4", 7): ("224c7795b2bc0fd51ccfe571226ec9cc1b8da395b2e5a47a9fcf4d304209331b", "f540d6d78fbd5a7d8529a67709f04579b4ac76b9a5a46c8aaeafb1da6741a1c7", 0),
    ("fig5_cost", 1): ("0f0a8f4d20e38bf5e1b83a6da9ea80c7a83cb343e80c30a77e32095bed974ba4", "7c8672d7eae8d433287172dbe22630ae16faa8c249a166daa45457495f435f1b", 0),
    ("fig5_cost", 7): ("224c7795b2bc0fd51ccfe571226ec9cc1b8da395b2e5a47a9fcf4d304209331b", "c9c7b84ee6bc003ec621693c0e6694c453371faa785bbb5c709a451903f990c3", 0),
    ("fig5_weights", 1): ("5cd0a10c19ffa9ea367aa8c99d4b5a0ee06428df533535902c93c8792f2fbfe6", "8bb6ba9b22e4daa16c869741dced00cf4011bf9409f81c041505fa3970c20962", 2),
    ("fig5_weights", 7): ("6aa930e6077344f65268cf8deb0af76c515a1a1e6958fce6821cdb8441aa9c93", "f867e2e59c9f9b4788ffd1634b69794af1b9d375984f9d8aa7f6bd44af020109", 2),
    ("fig6", 1): ("fcc72de92786516d470a2b3f6632ae960dc54ade9ccfe5dd2f690bfdf9686f76", "db1fb7ccbc17a8d4f54644f335195fcb91b584f8f34a7944501ce07d00bbeeaa", 0),
    ("fig6", 7): ("b182cff69185550fb7ba437a389c54112196444603748f430921c454e7d09430", "a4f4d387f4b37747b9a613ca5e99074461cd4c8caaca57e9d62cb819ae4e34ff", 0),
    ("fig8", 1): ("fcc72de92786516d470a2b3f6632ae960dc54ade9ccfe5dd2f690bfdf9686f76", "c346a17df545c3493a2d34bde90f1c0a2ff0f7592318ec996708bb3a0c636ca7", 0),
    ("fig8", 7): ("b182cff69185550fb7ba437a389c54112196444603748f430921c454e7d09430", "c14f022d1dd785bfef7f07e12f6c4af0c5a61e003d913ca277516867c4357b8f", 0),
}


def reproduce_digests(preset: str, seed: int, tmp: Path) -> tuple[str, str, int]:
    out = tmp / f"{preset}-{seed}.csv"
    log = io.StringIO()
    with redirect_stdout(log):
        code = main(["reproduce", preset, "--horizon", str(HORIZON),
                     "--seeds", str(SEEDS), "--seed", str(seed), "--out", str(out)])
    stdout = log.getvalue().replace(str(out), "<OUT>")
    return (hashlib.sha256(out.read_bytes()).hexdigest(),
            hashlib.sha256(stdout.encode()).hexdigest(), code)


@pytest.mark.parametrize("preset,seed", sorted(GOLDEN))
def test_reproduce_output_is_pinned(preset, seed, tmp_path):
    assert reproduce_digests(preset, seed, tmp_path) == GOLDEN[preset, seed]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for preset in ("fig4", "fig5_cost", "fig5_weights", "fig6", "fig8"):
            for seed in (1, 7):
                print(f"    ({preset!r}, {seed}): {reproduce_digests(preset, seed, Path(tmp))!r},")
