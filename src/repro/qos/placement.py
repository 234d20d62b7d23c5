"""Tenant-to-parallel-unit placement: partitioned vs. shared striping.

The paper's isolation mechanism is physical: give each tenant its own
channels/LUNs and their traffic never meets inside the device.  The
alternative — stripe every tenant across all units for peak bandwidth —
is what a conventional SSD's FTL does implicitly, and is where
noisy-neighbor tail latency comes from.  This module computes the
tenant → parallel-unit assignment for either policy, as a plain list
of ``(group, pu)`` pairs per tenant name (no device-layer imports here,
so ``repro.qos`` stays below ``repro.ocssd``).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

PuAddress = Tuple[int, int]

#: Tenants get disjoint channel (group) sets; no shared buses or chips.
PARTITIONED = "partitioned"
#: Every tenant stripes over every parallel unit (conventional-SSD-like).
SHARED = "shared"

POLICIES = (PARTITIONED, SHARED)


def plan_placement(num_groups: int, pus_per_group: int,
                   tenants: Sequence[str],
                   policy: str = PARTITIONED,
                   ) -> Dict[str, List[PuAddress]]:
    """Assign parallel units to the tenants named *tenants* under *policy*.

    ``partitioned`` deals whole groups (channels) round-robin: isolation
    comes from disjoint hardware.  The channel is the contended bus, so
    splitting at group granularity removes both chip and bus
    interference.  Requires ``len(tenants) <= num_groups``.

    ``shared`` gives every tenant every unit, so their traffic meets on
    every chip and bus.
    """
    if not tenants:
        raise ValueError("plan_placement needs at least one tenant")
    if len(set(tenants)) != len(tenants):
        raise ValueError("duplicate tenant in placement request")
    if policy == SHARED:
        every = [(group, pu) for group in range(num_groups)
                 for pu in range(pus_per_group)]
        return {tenant: list(every) for tenant in tenants}
    if policy != PARTITIONED:
        raise ValueError(f"unknown placement policy {policy!r}; "
                         f"expected one of {POLICIES}")
    if len(tenants) > num_groups:
        raise ValueError(
            f"partitioned placement needs >= 1 group per tenant: "
            f"{len(tenants)} tenants > {num_groups} groups")
    plan: Dict[str, List[PuAddress]] = {t: [] for t in tenants}
    for group in range(num_groups):
        tenant = tenants[group % len(tenants)]
        plan[tenant].extend((group, pu) for pu in range(pus_per_group))
    return plan
