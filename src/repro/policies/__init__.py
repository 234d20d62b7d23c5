"""repro.policies: a host that brings application knowledge above the FTL.

The paper's core claim is that host-side FTLs let each application
bring its own knowledge to the FTL (§2.3).  On the workloads measured
here, victim order and placement *inside* OX-Block land within a few
percent of greedy/striped (EXPERIMENTS "Sweeping FTL policies"), while
a host above the FTL that absorbs re-writes moves WAF:

* :class:`WriteLessCache` — see :mod:`repro.policies.wlfc`, declared on
  a :class:`~repro.stack.StackSpec` as ``host="wlfc"``.
"""

from __future__ import annotations

from repro.policies.wlfc import WlfcConfig, WlfcStats, WriteLessCache

__all__ = ["WlfcConfig", "WlfcStats", "WriteLessCache"]
