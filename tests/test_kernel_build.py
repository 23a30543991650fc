"""``aoisched.kernel`` compiles ``_kernel.c`` on first import, once per key.

Each case imports a copy of the package in a fresh interpreter, so the
library cached next to the package under test is never touched.
"""

import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "aoisched"
COMPILER = (sysconfig.get_config_var("CC") or "cc").split()[0]


@pytest.fixture
def root(tmp_path):
    shutil.copytree(PACKAGE, tmp_path / "aoisched",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def _import(root: Path, path: str | None = None) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(root)}
    if path is not None:
        env["PATH"] = path
    return subprocess.run([sys.executable, "-c", "import aoisched"], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)


def _built(root: Path) -> dict[str, int]:
    """Name and mtime of each built library."""
    return {p.name: p.stat().st_mtime_ns
            for p in (root / "aoisched" / "__pycache__").glob("_kernel.*.so")}


def test_import_without_a_compiler_names_it(root):
    empty = root / "bin"
    empty.mkdir()
    proc = _import(root, path=str(empty))
    assert proc.returncode != 0
    assert "ImportError" in proc.stderr and "needs a C compiler" in proc.stderr
    assert repr(COMPILER) in proc.stderr
    assert _built(root) == {}


def test_builds_once_and_reuses_the_library(root):
    assert _import(root).returncode == 0
    first = _built(root)
    assert len(first) == 1
    assert _import(root).returncode == 0
    assert _built(root) == first


def test_edited_source_gets_a_new_key(root):
    assert _import(root).returncode == 0
    (old,) = _built(root)
    source = root / "aoisched" / "_kernel.c"
    source.write_text(source.read_text() + "\n/* edited */\n")
    assert _import(root).returncode == 0
    (new,) = _built(root)  # the old key's library is deleted
    assert new != old


def test_a_build_keeps_other_interpreters_libraries(root):
    # only libraries with this interpreter's cache tag are deleted
    cache = root / "aoisched" / "__pycache__"
    cache.mkdir()
    other = cache / "_kernel.other-311-00000000.so"
    other.write_bytes(b"")
    assert _import(root).returncode == 0
    assert other.name in _built(root) and len(_built(root)) == 2
