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
BAND_SPANS = {"ingest.read_band_file", "cli.emit"}


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
