"""Smoke test of the ledger benchmark (``--scale smoke``, a few seconds).

    PYTHONPATH=src python -m pytest benchmarks/ledger -q

Every workload runs at smoke size, emits exactly the metric names
``BENCHMARK.json`` lists, repeats its sim-clock metrics exactly, and
changes its inputs when the seed changes.  Stacks are assembled by
``build_stack`` only (``scripts/stack_guard.py`` scans this directory).
"""

from __future__ import annotations

import copy
import json
import os
import re
import subprocess
import sys

import pytest

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
if LEDGER_DIR not in sys.path:
    sys.path.insert(0, LEDGER_DIR)

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CONTRACT = run.load_contract()
CLOCK = layers.BoxClock()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_contract_names_the_workloads_and_well_formed_metrics():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    assert CONTRACT["paths"] == ["benchmarks/ledger"]
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in CONTRACT[section]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert any(entry["name"] == "setup_s" and entry["unit"] == "s"
               for entry in CONTRACT["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_smoke(name, capsys):
    record = run.measure(name, 1, "smoke", repeats=2, trace=True,
                         kernel_rate=1e6, clock=CLOCK,
                         runner=run.run_child)
    # Two same-seed repeats plus the two traced passes agree exactly,
    # and no operation raised or read back the wrong bytes.
    assert record["problems"] == []
    assert record["failed"] == 0 and record["attempted"] > 0
    exact = record["exact"]
    assert exact["sim.read_samples"] > 0 and exact["sim.write_samples"] > 0

    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        line = run.report(name, record, CONTRACT, trace)
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
        assert line["correct"] is True
        assert list(line["metrics"]) == [entry["name"]
                                         for entry in CONTRACT[section]]
    layer = record["per_layer"]
    assert layer["trace.sim_identical"] == 1
    assert layer["obs.identity_ok"] == 1
    shares = [value for key, value in layer.items()
              if key.endswith(".host_share")]
    assert abs(sum(shares) - 1.0) < 1e-9
    assert all(record["reported"][entry["name"]] > 0
               for entry in CONTRACT["end_to_end"])

    other = run.run_child(name, 2, "smoke", "plain")["exact"]
    assert other["inputs_sha256"] != exact["inputs_sha256"]
    capsys.readouterr()


def test_command_line_and_compare(tmp_path):
    """The contract's command line end to end, then compare.py on it."""
    out = tmp_path / "a.json"
    done = subprocess.run(
        [sys.executable, os.path.join(LEDGER_DIR, "run.py"),
         "--workload", "wlfc_zipf_overwrite", "--seed", "3",
         "--seconds", "0", "--trace", "0", "--scale", "smoke",
         "--repeats", "2",
         "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] and line["failed"] == 0
    assert "unvalidated against hardware" in done.stdout

    results = json.loads(out.read_text())
    origin = results["provenance"]
    assert origin["seed"] == 3 and "git_sha" in origin
    assert origin["host"]["sim.kernel_events_per_s"] > 0
    assert len(results["workloads"]["wlfc_zipf_overwrite"]
               ["spec_sha256"]) == 64

    assert compare.main([str(out), str(out)]) == 0
    slower = copy.deepcopy(results)
    record = slower["workloads"]["wlfc_zipf_overwrite"]
    record["end_to_end"]["host_ops_per_s"] = [
        value / 2 for value in record["end_to_end"]["host_ops_per_s"]]
    worse = tmp_path / "b.json"
    worse.write_text(json.dumps(slower))
    assert compare.main([str(out), str(worse)]) == 1
    # One simulated microsecond of drift is a verdict under the exact rule.
    record["end_to_end"]["host_ops_per_s"] = (
        results["workloads"]["wlfc_zipf_overwrite"]["end_to_end"]
        ["host_ops_per_s"])
    record["end_to_end"]["sim_read_mean_us"] = [
        record["end_to_end"]["sim_read_mean_us"][0] + 1.0]
    worse.write_text(json.dumps(slower))
    assert compare.main([str(out), str(worse)]) == 1
