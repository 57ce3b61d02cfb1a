"""Every exported name resolves: a name deleted from a module but left in
its ``__all__`` (or in the package's) fails here, not at a user's import.
Importing the command line pulls in nothing beyond the standard library,
numpy and qrotor itself, which keeps every run's start-up cost fixed."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import qrotor

MODULES = ["qrotor"] + [
    f"qrotor.{info.name}" for info in pkgutil.iter_modules(qrotor.__path__) if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [attr for attr in exported if not hasattr(module, attr)] == []


@pytest.fixture(scope="module")
def cli_import_adds():
    """The modules ``import qrotor.cli`` loads in a fresh interpreter."""
    script = (
        "import json, sys; before = set(sys.modules); import qrotor.cli; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    src = str(Path(qrotor.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    return json.loads(run.stdout)


def test_cli_imports_only_stdlib_and_numpy(cli_import_adds):
    assert "qrotor.cli" in cli_import_adds
    allowed = set(sys.stdlib_module_names) | {"numpy", "qrotor"}
    assert sorted({name for name in cli_import_adds if name.split(".")[0] not in allowed}) == []


@pytest.mark.parametrize("heavy", ["concurrent.futures", "logging", "multiprocessing"])
def test_cli_import_skips_heavy_stdlib(cli_import_adds, heavy):
    # concurrent.futures imports logging, which alone adds about 12 ms and
    # 0.6 MiB to every run, ``--version`` included
    assert heavy not in cli_import_adds
