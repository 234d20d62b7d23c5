"""repro.policies: the FTL policy lab.

The paper's core claim is that host-side FTLs let each application pick
its own policies (§2.3).  This package makes the two policy axes of
the OX-Block FTL — GC victim selection and allocation placement —
first-class, pluggable objects, and adds a WLFC-style write-less cache
host that reduces flash writes *above* the FTL:

* :class:`VictimPolicy` (greedy / cost_benefit / age_partitioned) —
  see :mod:`repro.policies.victim`;
* :class:`PlacementPolicy` (striped / stream_partitioned / hotcold) —
  see :mod:`repro.policies.placement`;
* :class:`WriteLessCache` — see :mod:`repro.policies.wlfc`.

Policies are declared on a :class:`~repro.stack.StackSpec`
(``gc_policy``, ``placement_policy``, ``host="wlfc"``) or directly in
``ftl_config``; :func:`resolve_victim_policy` /
:func:`resolve_placement_policy` turn names into fresh instances (every
stack gets its own — some policies carry per-stream state).  The
defaults, greedy victim order and striped placement, are bit-identical
to the pre-policy collector (the ``perf_macro`` row of
``tests/test_sim_identity.py`` and ``tests/test_policies.py::
test_default_matches_legacy_stable_sort`` enforce this).
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.policies.placement import (
    HotColdPlacement,
    PlacementPolicy,
    StreamPartitionedPlacement,
    StripedPlacement,
)
from repro.policies.victim import (
    AgePartitionedVictimPolicy,
    CostBenefitVictimPolicy,
    GreedyVictimPolicy,
    TimedVictimPolicy,
    VictimPolicy,
)
from repro.policies.wlfc import WlfcConfig, WlfcStats, WriteLessCache

#: name -> factory.
VICTIM_POLICIES = {
    "greedy": GreedyVictimPolicy,
    "cost_benefit": CostBenefitVictimPolicy,
    "age_partitioned": AgePartitionedVictimPolicy,
}

PLACEMENT_POLICIES = {
    "striped": StripedPlacement,
    "stream_partitioned": StreamPartitionedPlacement,
    "hotcold": HotColdPlacement,
}


def resolve_victim_policy(name: str) -> VictimPolicy:
    """A fresh :class:`VictimPolicy` for *name*; :class:`ReproError`
    (listing the valid options) on an unknown name."""
    try:
        factory = VICTIM_POLICIES[name]
    except KeyError:
        raise ReproError(
            f"unknown gc_policy {name!r}; expected one of "
            f"{tuple(VICTIM_POLICIES)}") from None
    return factory()


def resolve_placement_policy(name: str) -> PlacementPolicy:
    """A fresh :class:`PlacementPolicy` for *name*; :class:`ReproError`
    (listing the valid options) on an unknown name."""
    try:
        factory = PLACEMENT_POLICIES[name]
    except KeyError:
        raise ReproError(
            f"unknown placement_policy {name!r}; expected one of "
            f"{tuple(PLACEMENT_POLICIES)}") from None
    return factory()


__all__ = [
    "AgePartitionedVictimPolicy",
    "CostBenefitVictimPolicy",
    "GreedyVictimPolicy",
    "HotColdPlacement",
    "PLACEMENT_POLICIES",
    "PlacementPolicy",
    "StreamPartitionedPlacement",
    "StripedPlacement",
    "TimedVictimPolicy",
    "VICTIM_POLICIES",
    "VictimPolicy",
    "WlfcConfig",
    "WlfcStats",
    "WriteLessCache",
    "resolve_placement_policy",
    "resolve_victim_policy",
]
