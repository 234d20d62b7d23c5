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

from dataclasses import asdict, dataclass, field, fields
from typing import List

from repro.errors import ReproError
from repro.stack.spec import StackSpec, _sub_spec
from repro.workloads import derive_stream_seed

ROUTERS = ("hash", "range")


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise ReproError(message)


def _default_template() -> StackSpec:
    """A bare OX-Block stack: the cluster drives the raw block API."""
    return StackSpec(ftl="oxblock", host="none")


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
        _check(self.num_keys >= 1,
               f"workload.num_keys must be >= 1, got {self.num_keys}")
        _check(self.read_ops >= 0,
               f"workload.read_ops must be >= 0, got {self.read_ops}")
        _check(self.value_units >= 1,
               f"workload.value_units must be >= 1, got {self.value_units}")


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
    #: Per-shard stack template; name/seed are stamped per shard.
    template: StackSpec = field(default_factory=_default_template)
    #: Explicit per-shard specs (overrides ``template``/``num_shards``).
    shards: List[StackSpec] = field(default_factory=list)
    workload: ClusterWorkloadSpec = field(
        default_factory=ClusterWorkloadSpec)

    def __post_init__(self) -> None:
        self.template = _sub_spec(StackSpec, self.template)
        self.shards = [s if isinstance(s, StackSpec)
                       else _sub_spec(StackSpec, s)
                       for s in self.shards]
        if self.shards:
            self.num_shards = len(self.shards)
        self.workload = _sub_spec(ClusterWorkloadSpec, self.workload)

    # -- validation ---------------------------------------------------------

    def validate(self) -> "ClusterSpec":
        _check(self.num_shards >= 1,
               f"num_shards must be >= 1, got {self.num_shards}")
        _check(1 <= self.replication <= self.num_shards,
               f"replication must be in [1, num_shards={self.num_shards}], "
               f"got {self.replication}")
        _check(self.router in ROUTERS,
               f"unknown router {self.router!r}; expected one of {ROUTERS}")
        _check(self.vnodes >= 1, f"vnodes must be >= 1, got {self.vnodes}")
        self.workload.validate()
        for index, shard in enumerate(self.shard_specs()):
            shard.validate()
            _check(shard.ftl == "oxblock" and shard.resolved_host == "none",
                   f"shard {index}: the cluster drives the raw block API, "
                   f"so shards need ftl='oxblock' with no host "
                   f"(got ftl={shard.ftl!r}, host={shard.resolved_host!r})")
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

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        _check(not unknown,
               f"ClusterSpec: unknown field(s) {sorted(unknown)}")
        return cls(**data).validate()
