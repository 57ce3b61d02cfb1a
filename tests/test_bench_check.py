"""The benchmark checks every report it times with ``bench/check.py`` and
counts a report that fails as failed operations.  These tests run the same
checkers over the command line's reports on small corpora from
``bench/corpus.py``, so a change the benchmark would refuse as incorrect
output fails here too."""

import pytest

from conftest import REPO_ROOT
from qrotor import BP_CHECKS, IRREP_CHECKS
from qrotor.cli import VERIFY_SPINS, main


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "bench"))
    import check
    import corpus

    return check, corpus


@pytest.mark.parametrize("n_bands,min_levels,max_levels", [(300, 3, 12), (30, 40, 80)], ids=["short", "long"])
def test_table_reports_pass_the_benchmark_checks(bench, tmp_path, n_bands, min_levels, max_levels):
    check, corpus = bench
    bands, _ = corpus.write_corpus(tmp_path / "bands", 1, n_bands, min_levels, max_levels)
    for flags, checker in (([], check.check_table), (["--json"], check.check_json)):
        report = tmp_path / "report"
        assert main(["table", *flags, str(tmp_path / "bands"), "-o", str(report)]) == 0
        assert checker(report.read_bytes(), bands) == (n_bands, 0)


def test_verify_passes_the_benchmark_checks(bench, tmp_path):
    check, _ = bench
    expected = check.expected_verify_lines(
        1001, [name for name, _ in BP_CHECKS], [name for name, _ in IRREP_CHECKS], VERIFY_SPINS)
    report = tmp_path / "verify"
    assert main(["verify", "--max-dim", "1001", "-o", str(report)]) == 0
    assert check.check_verify(report.read_bytes(), expected) == (len(expected), 0)
