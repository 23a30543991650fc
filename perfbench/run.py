#!/usr/bin/env python3
"""aoisched benchmark.  Run from the repository root:

    python3 perfbench/run.py --workload ref_long --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
split; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Result files,
spans and the per-layer table go to ``.perfbench/``.

Other modes:

    --tiny             run the check sizes once (the benchmark's own tests)
    --record-digests   rewrite perfbench/digests.json from this checkout
    --setup-probe      time set-up in this fresh process; print host and scaled s

The benchmark imports ``aoisched`` from ``src/`` of the checkout it sits
in and exits with code 2 when that source is missing.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _bootstrap() -> bool:
    if not (ROOT / "src" / "aoisched" / "__init__.py").is_file():
        print(f"error: no aoisched source under {ROOT / 'src'}", file=sys.stderr)
        return False
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    return True


def setup_probe(argv: list[str]) -> int:
    """Import aoisched, build the workload's configs and validate them."""
    from perfbench import speed
    name = argv[argv.index("--workload") + 1]
    seed = int(argv[argv.index("--seed") + 1])

    def set_up():
        from perfbench import workloads
        workload = workloads.WORKLOADS[name]
        workloads.set_up(workload, workload.timed, seed)

    _, wall, _, scale = speed.timed(set_up)
    print(wall, wall * scale)
    return 0


def main(argv: list[str]) -> int:
    if not _bootstrap():
        return 2
    if "--setup-probe" in argv:
        return setup_probe(argv)
    import json

    from perfbench import bench
    if "--record-digests" in argv:
        bench.OUT.mkdir(exist_ok=True)
        table = bench.record_digests()
        bench.checks.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"wrote {bench.checks.DIGESTS}")
        return 0
    tiny = "--tiny" in argv
    return bench.main([a for a in argv if a != "--tiny"], tiny=tiny)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
