"""ClusterSpec: N device shards behind a router, one declaration.

The paper's Figure-1 landscape is "one host, many device
personalities"; the cluster layer extends the same argument sideways —
one router, many device *shards*.  A :class:`ClusterSpec` names a fleet
of fully message-isolated :class:`~repro.stack.StackSpec` stacks (each
shard gets its own simulator kernel, OCSSD device and FTL — nothing is
shared between shards but the spec values themselves), a routing policy
(consistent-hash ring or contiguous ranges), and an R-way replication
factor.  :func:`repro.cluster.run_cluster` executes the shards
in-process and merges them to bit-identical metrics run after run,
which is the cluster's reproducibility contract.

Shards come from a ``template`` stamped per shard (name suffixed,
per-shard seed derived from the cluster seed via
:func:`repro.workloads.derive_stream_seed`) or from an explicit
``shards`` list when individual shards need distinct personalities —
e.g. a fault plan on one shard for failover experiments.

Specs round-trip through plain dicts exactly like ``StackSpec``:
``python -m repro.cluster cluster.json`` runs one.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import List

from repro.stack import personality
from repro.stack.spec import (
    StackSpec, _check, _check_bounds, _check_types, _sub_spec, from_dict)
from repro.workloads import derive_stream_seed

ROUTERS = ("hash", "range")


@dataclass
class ClusterWorkloadSpec:
    """The cluster-level workload the runner routes over the shards.

    ``num_keys`` distinct keys are written once each (to every one of
    their R replicas, in key order), then ``read_ops`` random point
    reads are drawn over the key space (seeded by the cluster seed) and
    routed to each key's primary replica, failing over to the next
    replica on error.  Values are ``value_units`` write units
    (``ws_min`` sectors each) of per-key deterministic bytes, so every
    read verifies content end to end.
    """

    num_keys: int = 64
    read_ops: int = 256
    value_units: int = 1
    #: Replay a recorded cluster trace (``repro.trace`` format) instead
    #: of generating the keyed workload; ``num_keys``/``read_ops`` are
    #: then taken from the trace.
    trace: str = ""

    def validate(self) -> None:
        _check_types(self, "workload.")
        _check_bounds(self, "workload.", num_keys=1, read_ops=0,
                      value_units=1)


@dataclass
class ClusterSpec:
    """The whole fleet, one declaration."""

    name: str = "cluster"
    seed: int = 0
    num_shards: int = 2
    #: Each key lives on this many distinct shards.
    replication: int = 1
    #: Routing policy: ``hash`` (consistent-hash ring with virtual
    #: nodes) or ``range`` (contiguous hash ranges, split on add).
    router: str = "hash"
    #: Virtual nodes per shard on the hash ring.
    vnodes: int = 64
    #: Per-shard stack template; name/seed are stamped per shard.  The
    #: default is a bare OX-Block: the cluster drives ``Stack.block``.
    template: StackSpec = field(
        default_factory=lambda: StackSpec(ftl="oxblock", host="none"))
    #: Explicit per-shard specs (overrides ``template``/``num_shards``).
    shards: List[StackSpec] = field(default_factory=list)
    workload: ClusterWorkloadSpec = field(
        default_factory=ClusterWorkloadSpec)

    def __post_init__(self) -> None:
        self.template = _sub_spec(StackSpec, self.template)
        if isinstance(self.shards, list):   # else _check_types names it
            self.shards = [_sub_spec(StackSpec, s) for s in self.shards]
            self.num_shards = len(self.shards) or self.num_shards
        self.workload = _sub_spec(ClusterWorkloadSpec, self.workload)

    # -- validation ---------------------------------------------------------

    def validate(self) -> "ClusterSpec":
        _check_types(self, "")
        _check_bounds(self, "", num_shards=1, vnodes=1)
        _check(1 <= self.replication <= self.num_shards,
               f"replication must be in [1, num_shards={self.num_shards}], "
               f"got {self.replication}")
        _check(self.router in ROUTERS,
               f"unknown router {self.router!r}; expected one of {ROUTERS}")
        self.workload.validate()
        for index, shard in enumerate(self.shard_specs()):
            shard.validate()
            personality.require(
                shard, ("block",),
                f"shard {index} (the cluster drives the raw block API)")
        return self

    def shard_specs(self) -> List[StackSpec]:
        """The per-shard stack specs, stamped with shard names.

        Template mode derives each shard's seed from the cluster seed
        (``derive_stream_seed(seed, "shard:<i>")``), so shards are
        deterministic yet mutually independent; explicit shards keep
        their declared seeds (failover experiments pin fault plans to a
        particular shard this way).
        """
        if self.shards:
            return [shard.replace(name=f"{self.name}.shard{index}")
                    for index, shard in enumerate(self.shards)]
        return [self.template.replace(
                    name=f"{self.name}.shard{index}",
                    seed=derive_stream_seed(self.seed, f"shard:{index}"))
                for index in range(self.num_shards)]

    # -- dict round-trip ----------------------------------------------------

    def to_dict(self) -> dict:
        data = asdict(self)
        if not data["shards"]:
            del data["shards"]
        return data

    from_dict = classmethod(from_dict)
