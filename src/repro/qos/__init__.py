"""repro.qos — isolation by placement.

The paper's isolation mechanism is physical (§2.2): the host gives each
tenant its own parallel units, so their traffic never meets inside the
device.  :func:`plan_placement` computes that tenant → parallel-unit
assignment; no controller-side scheduler is involved.
"""

from repro.qos.placement import (
    PARTITIONED,
    POLICIES,
    SHARED,
    plan_placement,
)

__all__ = [
    "PARTITIONED",
    "POLICIES",
    "SHARED",
    "plan_placement",
]
