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


BANDS = REPO_ROOT / "data" / "bands"
# Spans every band subcommand records through the names it calls in cli.py.
# The band path reads all its files with one batch reader, so it records no
# per-file ingest.read_band_file span; cli.py still imports that name.
BAND_SPANS = {"cli.emit"}


def test_instrumented_names_resolve(spans):
    """Every name in the list ``spans.instrumented`` swaps resolves in
    qrotor.cli, and each is put back when the pass ends."""
    from qrotor import cli

    code = spans.instrumented.__wrapped__.__code__
    names = next(const for const in code.co_consts if isinstance(const, tuple) and "_emit" in const)
    assert [name for name in names if not hasattr(cli, name)] == []
    before = {name: getattr(cli, name) for name in names}
    with spans.instrumented(spans.Tracer()):
        assert [name for name in names if getattr(cli, name) is before[name]] == []
    assert [name for name in names if getattr(cli, name) is not before[name]] == []


@pytest.mark.parametrize("argv,recorded", [
    (["table", str(BANDS)], BAND_SPANS | {"ingest.write_report"}),
    (["verify", "--max-dim", "21"], {"bp_space.build_space", "suq2.build_irrep", "cli.emit"}),
    (["fit", str(BANDS / "dy162.band")], BAND_SPANS | {"ingest.write_report"}),
    (["plotdata", str(BANDS)], BAND_SPANS),
], ids=["table", "verify", "fit", "plotdata"])
def test_traced_main_matches_plain_run(spans, tmp_path, argv, recorded):
    traced, plain = tmp_path / "traced", tmp_path / "plain"
    tracer = spans.Tracer()
    assert spans.traced_main(tracer, [*argv, "-o", str(traced)]) == 0
    assert recorded <= {tracer.names[nid] for nid in tracer.name}
    assert main([*argv, "-o", str(plain)]) == 0
    assert traced.read_bytes() == plain.read_bytes()
