"""Every exported name resolves: a name deleted from a module but left in
its ``__all__`` (or in the package's) fails here, not at a user's import.
Importing the command line pulls in nothing beyond the standard library
and qrotor itself: numpy loads only in a subcommand that computes, so
``--version``, ``--help`` and a usage error do not pay its import.
The package itself loads no numpy, so ``python -m qrotor`` runs OpenBLAS
on one thread unless ``OPENBLAS_NUM_THREADS`` says otherwise."""

import ast
import dataclasses
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
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


SRC = Path(qrotor.__file__).resolve().parent.parent


def test_cli_is_the_only_runner():
    """No module but ``__main__.py`` runs as a script: ``python -m qrotor`` and
    the ``qrotor`` command both set the one-thread OpenBLAS default first."""
    guards = []
    for path in sorted((SRC / "qrotor").glob("*.py")):
        if path.name != "__main__.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.If):
                    names = {getattr(leaf, "id", getattr(leaf, "value", None)) for leaf in ast.walk(node.test)}
                    if {"__name__", "__main__"} <= names:
                        guards.append(f"{path.name}:{node.lineno}")
    assert guards == []


def fresh_env(**changes):
    """The environment for a child interpreter that imports qrotor from
    ``SRC``; a ``changes`` value of None removes that variable."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    for key, value in changes.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    return env


def run_fresh(script, **env_changes):
    """Run ``script`` in a fresh interpreter with ``fresh_env(**env_changes)``."""
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=fresh_env(**env_changes), check=True
    )


def import_adds(module):
    """The modules ``import <module>`` loads in a fresh interpreter."""
    script = (
        f"import json, sys; before = set(sys.modules); import {module}; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    return json.loads(run_fresh(script).stdout)


@pytest.fixture(scope="module")
def cli_import_adds():
    return import_adds("qrotor.cli")


@pytest.mark.parametrize("module", ["qrotor.cli", "qrotor.qnum", "qrotor.reader"])
def test_import_loads_only_stdlib(module):
    """numpy loads at a subcommand's first computation, not with the parser."""
    adds = import_adds(module)
    assert module in adds
    allowed = set(sys.stdlib_module_names) | {"qrotor"}
    assert sorted({name for name in adds if name.split(".")[0] not in allowed}) == []


@pytest.mark.parametrize("heavy", ["concurrent.futures", "logging", "multiprocessing"])
def test_cli_import_skips_heavy_stdlib(cli_import_adds, heavy):
    # concurrent.futures imports logging, which alone adds about 12 ms and
    # 0.6 MiB to every run, ``--version`` included
    assert heavy not in cli_import_adds


class TestLazyNames:
    """The package resolves its exported names on first use, and behaves as
    a package that imported them all up front.  The first two tests run in a
    fresh interpreter, where no name has been resolved yet."""

    def test_star_import_binds_every_name(self):
        script = "from qrotor import *; import qrotor; print([n for n in qrotor.__all__ if n not in globals()])"
        assert run_fresh(script).stdout == "[]\n"

    def test_dir_lists_every_name(self):
        script = "import qrotor; print(sorted(set(qrotor.__all__) - set(dir(qrotor))))"
        assert run_fresh(script).stdout == "[]\n"

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError, match=r"^module 'qrotor' has no attribute 'x'$"):
            qrotor.x

    def test_from_import_reaches_submodule(self):
        from qrotor import cli

        assert cli is sys.modules["qrotor.cli"]


class TestStartUp:
    """``import qrotor`` loads no numpy, and ``python -m qrotor`` runs OpenBLAS
    on one thread unless the user set ``OPENBLAS_NUM_THREADS``.  With its
    default pool OpenBLAS starts a worker per extra core, which spins about
    0.13 s of CPU after start-up."""

    def test_package_import_loads_no_numpy(self):
        assert run_fresh("import qrotor, sys; print('numpy' in sys.modules)").stdout == "False\n"

    def test_main_defaults_to_one_blas_thread(self):
        script = (
            "import json, os, qrotor.__main__, numpy\n"
            "tasks = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None\n"
            "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), tasks]))\n"
        )
        blas_threads, tasks = json.loads(run_fresh(script, OPENBLAS_NUM_THREADS=None).stdout)
        assert blas_threads == "1"
        if tasks is None:
            pytest.skip("no /proc/self/task to count threads in")
        assert tasks == 1

    def test_main_keeps_user_setting(self):
        script = "import os, qrotor.__main__; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert run_fresh(script, OPENBLAS_NUM_THREADS="2").stdout == "2\n"

    def test_version_run_spends_no_cpu_beyond_its_wall_time(self):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "qrotor", "--version"],
                                env=fresh_env(OPENBLAS_NUM_THREADS=None),
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        assert proc.returncode == 0
        assert usage.ru_utime + usage.ru_stime <= wall + 0.01


def test_console_script_is_cli_main_through_dunder_main(monkeypatch):
    """The installed ``qrotor`` command gets ``python -m qrotor``'s default."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = SRC.parent / "pyproject.toml"
    if not pyproject.is_file():
        pytest.skip("no pyproject.toml beside src/")
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8")).get("project", {}).get("scripts", {})
    if "qrotor" not in scripts:
        pytest.skip("no qrotor console script declared")
    module_name, _, attr = scripts["qrotor"].partition(":")
    assert module_name == "qrotor.__main__"
    # Importing qrotor.__main__ sets OPENBLAS_NUM_THREADS; a throwaway copy of
    # the environment keeps it from the children later tests spawn.
    monkeypatch.setattr(os, "environ", dict(os.environ))
    from qrotor import cli

    assert getattr(importlib.import_module(module_name), attr) is cli.main


def test_version_is_stored_once():
    """pyproject.toml reads the version from ``qrotor.__version__``."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = SRC.parent / "pyproject.toml"
    if not pyproject.is_file():
        pytest.skip("no pyproject.toml beside src/")
    config = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "qrotor.__version__"}


def test_sources_parse_at_the_declared_python_floor():
    """Every ``.py`` file under ``src/``, ``tests/`` and ``bench/`` parses with
    the grammar of the oldest Python that ``requires-python`` admits.  This
    checks syntax alone, such as ``except*`` before 3.11: a standard-library
    name or parameter newer than the floor still passes."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = SRC.parent / "pyproject.toml"
    if not pyproject.is_file():
        pytest.skip("no pyproject.toml beside src/")
    requires = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["requires-python"]
    floor = tuple(map(int, re.fullmatch(r">=\s*(\d+)\.(\d+)", requires.strip()).groups()))
    paths = sorted(path for folder in ("src", "tests", "bench") for path in (SRC.parent / folder).rglob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=floor)


def test_test_imports_are_declared():
    """Every third-party module the tests import is a dependency or in the
    ``test`` extra, so that ``pip install .[test]`` can collect every test;
    a module is taken to share its distribution's name."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = SRC.parent / "pyproject.toml"
    if not pyproject.is_file():
        pytest.skip("no pyproject.toml beside src/")
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = {re.match(r"[\w.-]+", requirement)[0].lower().replace("-", "_") for requirement in requirements}
    # the tests' own helpers, and the benchmark modules they put on the path
    local = {path.stem for folder in ("tests", "bench") for path in (SRC.parent / folder).glob("*.py")}
    imported = set()
    for path in (SRC.parent / "tests").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.partition(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - local - {"qrotor"}
    assert third_party, "no third-party import found"
    assert sorted(third_party - declared) == []


def _module_imports(node):
    """The import statements of a module outside its functions and classes."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            yield from _module_imports(child)


@pytest.mark.parametrize("path", sorted((SRC / "qrotor").glob("*.py")), ids=lambda path: path.name)
def test_every_module_import_is_used_or_exported(path):
    """A name a module imports at its top is read in the module or listed in
    its ``__all__``, so that an import a move left behind fails here."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name.partition(".")[0] for node in _module_imports(tree)
                if getattr(node, "module", None) != "__future__" for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {node.value for assign in tree.body if isinstance(assign, ast.Assign)
                and any(getattr(target, "id", None) == "__all__" for target in assign.targets)
                for node in ast.walk(assign.value) if isinstance(node, ast.Constant)}
    assert sorted(imported - used - exported) == []


BAND_TEXT = b"# nucleus: testium\n2 100.0\n4 330.0\n6 690.0\n"
# Each exported dataclass, built by a call that returns an equal twin when
# called again; a dataclass exported later and missing here fails below.
BUILT = {
    "QParameter": lambda: qrotor.QParameter.from_dim(21),
    "BPSpace": lambda: qrotor.build_space(10, 0.6),
    "IrrepMatrices": lambda: qrotor.build_irrep(2, qrotor.QParameter.from_dim(21)),
    "BandData": lambda: qrotor.parse_band(BAND_TEXT),
    "FitResult": lambda: qrotor.fit_A(qrotor.parse_band(BAND_TEXT), qrotor.QParameter.from_dim(21)),
    "BandFile": lambda: qrotor.parse_band_file(BAND_TEXT),
}


@pytest.mark.parametrize("name", sorted(name for name in qrotor.__all__ if dataclasses.is_dataclass(getattr(qrotor, name))))
def test_built_value_equals_and_hashes_as_its_twin(name):
    value, twin = BUILT[name](), BUILT[name]()
    assert type(value) is getattr(qrotor, name)
    assert value == twin
    assert hash(value) == hash(twin)


def test_space_compares_hashes_and_copies_without_building_an_array():
    space = qrotor.build_space(10, 0.6)
    assert space == qrotor.build_space(10, 0.6)
    hash(space)
    dataclasses.replace(space, theta0=0.0)
    assert not any(isinstance(value, np.ndarray) for value in vars(space).values())


def test_readme_examples_run():
    """README's ``python`` blocks run as written, from the repository root."""
    readme = SRC.parent / "README.md"
    if not readme.is_file():
        pytest.skip("no README.md beside src/")
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(encoding="utf-8"), re.DOTALL | re.MULTILINE)
    assert blocks
    for block in blocks:
        proc = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True, env=fresh_env(),
                              cwd=SRC.parent)
        assert proc.returncode == 0, proc.stderr
