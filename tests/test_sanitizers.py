"""The compiled kernels under the sanitizers.

Each pass copies the package to a temporary directory, adds sanitizer
flags to the copy's ``kernel.FLAGS``, and runs tests that call the kernels
and compare them with an oracle against that copy, in a subprocess.
UndefinedBehaviorSanitizer ends the run at the first undefined operation,
AddressSanitizer at the first access outside an allocation (a write into
``kernel.grown``'s power-of-two slack stays inside one, so it cannot see
that).  The interpreter is not instrumented, so the ASan runtime is
preloaded, and its leak check is off: CPython keeps memory until exit.

Both passes run the arrival-list tests (the kernel's stream seeding
against numpy's, a seed of over a thousand words included, its draws
against ``Generator.random``, bit for bit, and its queues' compaction and
growth, the overflow and redraw of a lane group included), an overloaded
``cmu`` case, the window-edge cases of ``rd`` and ``cmu`` against their oracles,
``rd``'s latency stack growing with the queue that holds it, below the
arrivals not yet taken, and a block of each served in many calls, whose
serving state carries from call to call, so every kernel entry point and
return runs under each sanitizer.
The slow property tests, whose Python oracle walks every slot, are shared
out: ``cmu``'s to the UBSan pass, which also runs ``rd`` on a small stack,
and ``rd``'s to the ASan pass.  The two passes run at once.
"""

import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "aoisched"
TESTS = Path(__file__).resolve().parent
COMPILER = (sysconfig.get_config_var("CC") or "cc").split()[0]
BOTH = ("test_arrival_lists.py",
        "test_cmu_engine.py::test_lower_queues_starve_behind_an_overloaded_top_queue",
        "test_cmu_engine.py::test_window_edges_match_slot_reference",
        "test_rd_engine.py::test_window_edges_match_slot_reference",
        "test_policies.py::test_rd_latency_stack_grows_across_blocks",
        "test_policies.py::test_a_block_served_in_many_calls_is_served_as_in_one")


def _start(root: Path, flags: tuple[str, ...], env: dict[str, str],
           tests: tuple[str, ...]) -> subprocess.Popen:
    shutil.copytree(PACKAGE, root / "aoisched", ignore=shutil.ignore_patterns("__pycache__"))
    kernel = root / "aoisched" / "kernel.py"
    text = kernel.read_text()
    assert text.count("\nFLAGS = (") == 1
    kernel.write_text(text.replace("\nFLAGS = (", f"\nFLAGS = ({', '.join(map(repr, flags))}, "))
    return subprocess.Popen(
        # --capture=sys leaves the file descriptors, where a sanitizer reports, to the pipe
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--capture=sys",
         *(str(TESTS / t) for t in BOTH + tests)],
        cwd=root, env={**os.environ, "PYTHONPATH": str(root), **env},
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)


def test_kernel_oracle_tests_pass_under_the_sanitizers(tmp_path):
    libasan = subprocess.run([COMPILER, "-print-file-name=libasan.so"], capture_output=True,
                             text=True, check=True).stdout.strip()
    # per pass: the flags, the environment, the tests besides BOTH, and a
    # symbol every instrumented library holds
    passes = {
        "undefined": (("-fsanitize=undefined", "-fno-sanitize-recover=all"), {},
                      ("test_cmu_engine.py::test_segment_engine_matches_slot_reference",
                       "test_rd_engine.py::test_many_latency_ues_run_on_a_small_stack"),
                      b"__ubsan_handle_"),
        "address": (("-fsanitize=address",),
                    {"LD_PRELOAD": libasan, "ASAN_OPTIONS": "detect_leaks=0"},
                    ("test_rd_engine.py::test_kernel_matches_slot_reference",),
                    b"__asan_report_"),
    }
    procs = {name: _start(tmp_path / name, flags, env, tests)
             for name, (flags, env, tests, _) in passes.items()}
    try:
        for name, proc in procs.items():
            out, _ = proc.communicate(timeout=300)
            assert proc.returncode == 0, f"{name} sanitizer:\n{out[-4000:]}"
            # the tests loaded the instrumented copy, not the package under test
            (library,) = (tmp_path / name / "aoisched" / "__pycache__").glob("_kernel.*.so")
            assert passes[name][3] in library.read_bytes()
    finally:
        for proc in procs.values():
            proc.kill()
