"""Smoke test of ``scripts/profile_stack.py --sim``: the sim-time table of
every ledger workload, at the ledger's smoke scale, built from spans alone.
It is the ledger's per-layer ``sim_excl_s`` fold, so it pins what the
ledger's traced rows rely on: no span dropped, no negative critical-path
time, and the rows summing to the roots.
"""

import importlib.util
import os

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The FTL / host ``(layer, name)`` rows each workload's table must show.
ROWS = {
    "oxblock_fill_read": {("ftl", "write"), ("ftl", "read")},
    "oxblock_gc_zipf": {("ftl", "write"), ("ftl", "read"),
                        ("ftl", "checkpoint"), ("ftl.gc", "collect")},
    "wlfc_zipf_overwrite": {("ftl", "write"), ("ftl", "read"),
                            ("ftl", "checkpoint"), ("ftl.gc", "collect")},
    "lightlsm_dbbench": {("lsm", "flush")},
    "zns_dbbench_scan": {("lsm", "flush"), ("zns", "append")},
    "eleos_llama": {("llama", "flush"), ("llama", "read"),
                    ("llama", "clean"), ("ftl", "append"), ("ftl", "read"),
                    ("ftl", "free")},
}


@pytest.fixture
def profile_stack(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(REPO_ROOT, "benchmarks",
                                             "ledger"))
    spec = importlib.util.spec_from_file_location(
        "profile_stack", os.path.join(REPO_ROOT, "scripts",
                                      "profile_stack.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rows_cover_every_ledger_workload(profile_stack):
    from workloads import WORKLOADS
    assert set(ROWS) == set(WORKLOADS)


@pytest.mark.parametrize("name", list(ROWS))
def test_sim_table_is_the_span_fold(profile_stack, name):
    metrics, table = profile_stack.sim_table(name, "smoke")
    assert metrics["attempted"] > 0
    assert metrics["raised"] == metrics["mismatched"] == 0
    assert metrics["spans_dropped"] == 0
    assert table.consistent and table.root_spans
    assert min(row.exclusive for row in [*table.layers.values(),
                                         *table.names.values()]) >= 0
    assert ROWS[name] <= set(table.names)
    text = profile_stack.format_sim_report(f"ledger_{name}", REPO_ROOT,
                                           metrics, table)
    # One line per (layer, name), last in the report.
    listed = [line.split()[-1]
              for line in text.splitlines()[-len(table.names):]]
    assert sorted(listed) == sorted(f"{layer}/{span}"
                                    for layer, span in table.names)


def test_another_tree_is_named_by_its_commit_not_its_path(profile_stack,
                                                         tmp_path):
    """The header of a ``--tree`` section goes into a tracked results
    file: it reads "parent clone", never the checkout's local path."""
    from repro.obs.report import attribute
    tree = str(tmp_path / "elsewhere" / "parent")
    os.makedirs(tree)
    text = profile_stack.format_sim_report(
        "ledger_lightlsm_dbbench", tree, {"attempted": 1}, attribute([]))
    assert text.splitlines()[0].startswith(
        "Sim-time split: ledger_lightlsm_dbbench (parent clone, ")
    assert tree not in text and "elsewhere" not in text
    mine = profile_stack.format_sim_report(
        "ledger_lightlsm_dbbench", REPO_ROOT, {"attempted": 1},
        attribute([]))
    assert "(this tree, " in mine.splitlines()[0]


@pytest.mark.parametrize("text, names", [
    (None, "No such file"),
    ('{"ftl": ', "Expecting value"),
])
def test_a_bad_spec_file_exits_2_naming_it(profile_stack, tmp_path, capsys,
                                            text, names):
    """The same ``invalid spec`` line ``python -m repro.stack`` prints,
    not a traceback."""
    path = tmp_path / "spec.json"
    if text is not None:
        path.write_text(text)
    assert profile_stack.main([str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invalid spec {path}: ") and names in err, err


def test_an_unknown_ledger_workload_exits_2_listing_them(profile_stack,
                                                        capsys):
    """It used to be a bare ``KeyError`` traceback."""
    from workloads import WORKLOADS
    with pytest.raises(SystemExit) as exit_:
        profile_stack.main(["--ledger", "nosuch"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "'nosuch'" in err and str(sorted(WORKLOADS)) in err
