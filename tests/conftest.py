"""Suite-wide fixtures."""

import pytest


@pytest.fixture(autouse=True)
def results_dir_is_tmp(tmp_path, monkeypatch):
    """No test may write into the tracked ``benchmarks/results/``: whatever
    goes through :func:`repro.benchhelpers.report` lands in *tmp_path*."""
    import repro.benchhelpers as bh
    monkeypatch.setattr(bh, "RESULTS_DIR", str(tmp_path))
