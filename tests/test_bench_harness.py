"""Guard rails for the benchmark harness itself.

A misconfigured collection pattern once made ``pytest benchmarks/
--benchmark-only`` silently collect nothing; these tests pin the harness
shape so that regression stays caught.
"""

import importlib.util
import os
import subprocess
import sys

import pytest

from repro.stack.__main__ import main as stack_main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(REPO_ROOT, "benchmarks")

EXPECTED_BENCHES = {
    "bench_fig1_landscape.py",
    "bench_unit_of_write.py",
    "bench_fig3_recovery.py",
    "bench_fig5_dbbench.py",
    "bench_fig6_timeline.py",
    "bench_fig7_copies.py",
    "bench_gc_locality.py",
    "bench_ablations.py",
    "bench_abstraction_spectrum.py",
}


def test_every_figure_has_a_bench_file():
    present = {name for name in os.listdir(BENCH_DIR)
               if name.startswith("bench_")}
    assert EXPECTED_BENCHES <= present


def test_benchmark_directory_collects():
    """`pytest benchmarks/` must actually find the bench functions."""
    result = subprocess.run(
        [sys.executable, "-m", "pytest", BENCH_DIR, "--collect-only", "-q"],
        capture_output=True, text=True, timeout=120,
        cwd=os.path.dirname(BENCH_DIR))
    assert result.returncode == 0, result.stderr
    # At least one collected test per bench group.
    assert "no tests ran" not in result.stdout
    total_line = [line for line in result.stdout.splitlines()
                  if "bench_" in line]
    assert len(total_line) >= len(EXPECTED_BENCHES)


def load_bench(name: str):
    spec = importlib.util.spec_from_file_location(
        name[:-3], os.path.join(BENCH_DIR, name))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_modules_import_cleanly():
    for name in sorted(EXPECTED_BENCHES):
        load_bench(name)


#: Each smoke run, as its command line runs it.
SMOKES = {
    "lightlsm_smoke": lambda: stack_main([os.path.join(
        REPO_ROOT, "examples", "specs", "lightlsm_smoke.json")]),
    "bench_isolation_smoke": lambda: load_bench(
        "bench_isolation.py").main(["--smoke"]),
    "policy_ablation_smoke": lambda: load_bench(
        "bench_policy_ablation.py").main(["--smoke"]),
}


@pytest.mark.parametrize("name", sorted(SMOKES))
def test_a_smoke_rewrites_its_committed_results_byte_for_byte(name,
                                                              tmp_path):
    """A smoke's results files hold its numbers and nothing else (no
    date, no sha), so a change that moves one shows here."""
    assert SMOKES[name]() == 0
    for suffix in (".txt", ".json"):
        with open(os.path.join(BENCH_DIR, "results", name + suffix),
                  "rb") as handle:
            assert (tmp_path / (name + suffix)).read_bytes() \
                == handle.read(), name + suffix


def test_result_names_are_sanitized_to_safe_slugs(tmp_path, monkeypatch):
    """Regression: a spec name with ``/`` escaped (or crashed out of)
    benchmarks/results/; an empty name wrote ``.txt``."""
    import pytest

    import repro.benchhelpers as bh
    from repro.errors import ReproError

    monkeypatch.setattr(bh, "RESULTS_DIR", str(tmp_path))
    path = bh.report("../evil/name", ["line"], metrics={"x": 1})
    assert os.path.dirname(path) == str(tmp_path)
    assert os.path.basename(path) == "evil-name.txt"
    assert os.path.exists(os.path.join(str(tmp_path), "evil-name.json"))
    assert bh.result_slug("perf_smoke") == "perf_smoke"
    assert bh.result_slug("a b/c") == "a-b-c"
    for empty in ("", "///", "..", None):
        with pytest.raises(ReproError, match="non-empty"):
            bh.result_slug(empty)


def test_report_pads_to_the_longest_metric_key(tmp_path, monkeypatch):
    """Regression: ``{key:>18s}`` misaligned keys longer than 18
    characters (a ``wlfc`` run's ``wlfc_absorbed_rewrites``)."""
    import repro.benchhelpers as bh
    from repro.stack.runner import run_and_report
    from repro.stack.spec import StackSpec

    monkeypatch.setattr(bh, "RESULTS_DIR", str(tmp_path))
    run_and_report(StackSpec(
        name="pad-stack-test",
        geometry={"num_groups": 2, "pus_per_group": 2,
                  "chunks_per_pu": 16, "pages_per_block": 6},
        ftl="oxblock", host="wlfc",
        ftl_config={"wal_chunk_count": 4, "ckpt_chunks_per_slot": 2},
        workload={"kind": "raw_fill_read", "fill_ops": 4, "read_ops": 8}))
    lines = open(os.path.join(
        str(tmp_path), "pad-stack-test.txt")).read().splitlines()[1:]
    assert any("wlfc_absorbed_rewrites =" in line for line in lines)
    widths = {len(line.partition("=")[0]) for line in lines}
    assert len(widths) == 1
