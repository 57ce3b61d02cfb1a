"""The benchmark's traced path (``bench/run.py --trace 1``) swaps names in
``qrotor.cli`` for span-recording wrappers; a name it swaps that ``cli.py``
no longer has breaks that path, and only this test would notice."""

import pytest

from conftest import REPO_ROOT
from qrotor.cli import main


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "bench"))
    import spans

    return spans


@pytest.mark.parametrize("argv", [["table", str(REPO_ROOT / "data" / "bands")], ["verify", "--max-dim", "21"]],
                         ids=["table", "verify"])
def test_traced_main_matches_plain_run(spans, tmp_path, argv):
    traced, plain = tmp_path / "traced", tmp_path / "plain"
    tracer = spans.Tracer()
    assert spans.traced_main(tracer, [*argv, "-o", str(traced)]) == 0
    assert len(tracer.name) > 1
    assert main([*argv, "-o", str(plain)]) == 0
    assert traced.read_bytes() == plain.read_bytes()
