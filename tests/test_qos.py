"""Tests for repro.qos: tenant placement, per-tenant stream seeds, and
the pin that keeps isolation a matter of placement."""

import pathlib
import re
from dataclasses import fields, is_dataclass

import pytest

from repro.ocssd import commands
from repro.qos import PARTITIONED, SHARED, plan_placement
from repro.workloads import derive_stream_seed


def test_placement_partitioned_is_disjoint():
    plan = plan_placement(4, 2, ["a", "b"], policy=PARTITIONED)
    assert list(plan) == ["a", "b"]
    assert len(plan["a"]) == len(plan["b"]) == 4
    assert not set(plan["a"]) & set(plan["b"])
    groups_a = {group for group, __ in plan["a"]}
    groups_b = {group for group, __ in plan["b"]}
    assert not groups_a & groups_b          # whole groups, no sharing
    assert groups_a | groups_b == {0, 1, 2, 3}


def test_placement_shared_and_errors():
    plan = plan_placement(2, 2, ["a", "b"], policy=SHARED)
    assert plan["a"] == plan["b"]
    assert len(plan["a"]) == 4
    with pytest.raises(ValueError):
        plan_placement(1, 2, ["a", "b"], policy=PARTITIONED)
    with pytest.raises(ValueError):
        plan_placement(4, 2, ["a", "a"], policy=PARTITIONED)
    with pytest.raises(ValueError):
        plan_placement(4, 2, ["a", "b"], policy="bogus")


def test_stream_seed_derivation():
    assert derive_stream_seed(7, "") == 7
    assert derive_stream_seed(7, "a") == derive_stream_seed(7, "a")
    assert derive_stream_seed(7, "a") != derive_stream_seed(7, "b")
    assert derive_stream_seed(7, "a") != derive_stream_seed(8, "a")


def test_isolation_is_placement_grep_pin():
    """Isolation comes from placement alone: nothing under ``src/repro``
    names a controller-side scheduler, its sidecar slot or its
    background gate, and no device command carries a tenant tag."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
    paths = list(src.rglob("*.py"))
    assert len(paths) > 80
    banned = re.compile(
        r"QosScheduler|QOS_SLOT|background_gate_proc|(?<!repro)\.qos\b")
    hits = [f"{path.relative_to(src)}:{number}: {line.strip()}"
            for path in paths
            for number, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1)
            if banned.search(line)]
    assert not hits, "\n".join(hits)
    tagged = [name for name, cls in vars(commands).items()
              if isinstance(cls, type) and is_dataclass(cls)
              and "tenant" in {f.name for f in fields(cls)}]
    assert not tagged
