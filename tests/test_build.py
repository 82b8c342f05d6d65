"""The in-place build: optional extension plus the package's bytecode."""
import json
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Between them these import every module of the package.
IMPORTS = ("ekdom.cli", "ekdom._kernel.pure", "ekdom.bounds", "ekdom.reductions",
           "ekdom.mary", "ekdom.closed_forms")

SPY = f"""
import json
from importlib.machinery import SourceFileLoader

compiled = []
source_to_code = SourceFileLoader.source_to_code

def spy(self, data, path, *args, **kwargs):
    compiled.append(path)
    return source_to_code(self, data, path, *args, **kwargs)

SourceFileLoader.source_to_code = spy
import {", ".join(IMPORTS)}
print(json.dumps(compiled))
"""


def compiled_ekdom_modules(tree: Path, env: dict) -> list[str]:
    done = subprocess.run([sys.executable, "-c", SPY], cwd=tree, env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    package = tree / "src" / "ekdom"
    return sorted(Path(p).relative_to(package).as_posix()
                  for p in json.loads(done.stdout) if Path(p).is_relative_to(package))


def test_inplace_build_writes_bytecode_that_tracks_its_source(tmp_path):
    shutil.copy(ROOT / "setup.py", tmp_path)
    shutil.copytree(ROOT / "src" / "ekdom", tmp_path / "src" / "ekdom",
                    ignore=shutil.ignore_patterns("__pycache__", "*.pyc", "*.so"))
    assert not list(tmp_path.rglob("*.pyc"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPYCACHEPREFIX"}
    env.update(PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(tmp_path / "src"))
    # A compiler that always fails: the optional extension only warns, and
    # the bytecode is written all the same.
    done = subprocess.run([sys.executable, "setup.py", "build_ext", "--inplace"],
                          cwd=tmp_path, env=dict(env, CC="/bin/false"),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert compiled_ekdom_modules(tmp_path, env) == []
    with open(tmp_path / "src" / "ekdom" / "graph.py", "a", encoding="utf-8") as f:
        f.write("# edited after the build\n")
    assert compiled_ekdom_modules(tmp_path, env) == ["graph.py"]


def test_compiled_kernel_builds_without_warnings(tmp_path):
    # -Wall flags a static function nothing calls, such as a second matcher
    # left behind, besides the usual slips.
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if not cc or shutil.which(cc[0]) is None:
        pytest.skip("no C compiler configured")
    done = subprocess.run([*cc, "-O2", "-Wall", "-Werror", "-shared", "-fPIC",
                           f"-I{sysconfig.get_paths()['include']}",
                           str(ROOT / "src" / "ekdom" / "_kernel" / "_ckernel.c"),
                           "-o", str(tmp_path / "_ckernel.so")],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
