"""StackSpec: one declarative description of a full storage stack.

The paper's FTLs are a menu, not a monolith — OX-Block, OX-ELEOS,
OX-ZNS and LightLSM are different compositions over the same media.  A
:class:`StackSpec` names one composition: geometry and cell type, the
FTL flavor, the host above it, the sidecars riding along (faults, obs,
qos tenants), the workload to drive it with, and the seed that makes
the whole run deterministic.  :func:`repro.stack.build_stack` turns the
spec into live objects; ``python -m repro.stack spec.json`` runs it.

Specs round-trip through plain dicts (:meth:`StackSpec.to_dict` /
:meth:`StackSpec.from_dict`), so JSON and TOML files are first-class
inputs and results files can embed the exact spec they measured.
Validation raises :class:`~repro.errors.ReproError` with the offending
field named; structural invariants the lower layers already enforce
(geometry bounds, fault probabilities) stay enforced there.
"""

from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Dict, List, Optional

from repro.errors import ReproError
from repro.nand import CellType

FTL_FLAVORS = ("oxblock", "eleos", "zns", "lightlsm", "none")
HOSTS = ("auto", "db", "llama", "wlfc", "none")
PLACEMENTS = ("horizontal", "vertical")
QOS_POLICIES = ("partitioned", "shared")
WORKLOADS = ("fill_sequential", "fill_then_read_random",
             "fill_then_read_sequential", "raw_fill_read", "trace", "none")
PACINGS = ("afap", "recorded")

#: host="auto" resolves per FTL flavor: the LSM engine for the three
#: table-native environments, LLAMA for ELEOS, nothing for a raw device
#: or a bare OX-Block FTL (the quickstart shape).
AUTO_HOST = {"oxblock": "none", "eleos": "llama", "zns": "db",
             "lightlsm": "db", "none": "none"}


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise ReproError(message)


def _sub_spec(cls, value):
    """Accept an instance, a mapping, or None (-> defaults)."""
    if value is None:
        return cls()
    if isinstance(value, cls):
        return value
    if isinstance(value, dict):
        known = {f.name for f in fields(cls)}
        unknown = set(value) - known
        _check(not unknown,
               f"{cls.__name__}: unknown field(s) {sorted(unknown)}")
        missing = [f.name for f in fields(cls) if f.name not in value
                   and f.default is MISSING and f.default_factory is MISSING]
        _check(not missing, f"{cls.__name__}: missing field(s) {missing}")
        return cls(**value)
    raise ReproError(f"{cls.__name__}: cannot build from {type(value)}")


#: What a field annotated so may hold (a float field takes an int; no
#: int field takes a bool).  Sub-spec fields are checked as specs.
_FIELD_TYPES = {"int": int, "float": (int, float), "str": str, "bool": bool,
                "Dict": dict, "List": list}


def _check_types(spec, label: str) -> None:
    """Every field of *spec* holds what its annotation says, or a
    :class:`ReproError` names it — before any check compares values."""
    for f in fields(spec):
        annotation = f.type
        value = getattr(spec, f.name)
        if annotation.startswith("Optional["):
            if value is None:
                continue
            annotation = annotation[len("Optional["):-1]
        expected = _FIELD_TYPES.get(annotation.partition("[")[0])
        if expected is None:
            continue
        _check(isinstance(value, expected)
               and (expected is bool or not isinstance(value, bool)),
               f"{label}{f.name} must be {f.type}, got {value!r}")


def _layer_configs(spec: "StackSpec"):
    """``(field, why it is read, config class or None)`` per keyword
    dict of *spec*: the class is None when this stack builds no layer
    that would read the dict.  Imported here, not at module level: the
    config classes live beside the layers they tune."""
    from repro.llama import LlamaConfig
    from repro.lsm import DBConfig, LightLSMConfig
    from repro.ox import BlockConfig, EleosConfig
    from repro.policies import WlfcConfig
    from repro.zns import ZnsConfig
    host = spec.resolved_host
    ftls = {"oxblock": BlockConfig, "eleos": EleosConfig, "zns": ZnsConfig,
            "lightlsm": LightLSMConfig}
    return [("ftl_config", f"an FTL, not ftl {spec.ftl!r}",
             ftls.get(spec.ftl)),
            ("db", f"the 'db' host, not {host!r}",
             DBConfig if host == "db" else None),
            ("llama", f"the 'llama' host, not {host!r}",
             LlamaConfig if host == "llama" else None),
            ("wlfc", f"the 'wlfc' host, not {host!r}",
             WlfcConfig if host == "wlfc" else None)]


@dataclass
class GeometrySpec:
    """The device shape (defaults: the scaled Figure 4 drive)."""

    num_groups: int = 8
    pus_per_group: int = 4
    cell: str = "tlc"             # slc | mlc | tlc | qlc
    planes: int = 2
    chunks_per_pu: int = 64       # blocks per plane
    pages_per_block: int = 96
    sectors_per_page: int = 4
    sector_size: int = 4096

    def validate(self) -> None:
        _check_types(self, "geometry.")
        _check(self.cell.upper() in CellType.__members__,
               f"geometry.cell must be one of "
               f"{sorted(n.lower() for n in CellType.__members__)}, "
               f"got {self.cell!r}")

    @property
    def cell_type(self) -> CellType:
        return CellType[self.cell.upper()]


@dataclass
class TenantSpec:
    """One tenant's identity and QoS parameters."""

    name: str
    weight: float = 1.0
    rate_bytes_per_sec: Optional[float] = None
    burst_bytes: Optional[float] = None

    def validate(self) -> None:
        _check_types(self, f"tenant {self.name!r}: ")
        _check(bool(self.name), "tenant name must be non-empty")
        _check(self.weight > 0,
               f"tenant {self.name!r}: weight must be > 0, "
               f"got {self.weight}")


@dataclass
class FaultSpec:
    """A serializable mirror of :class:`repro.faults.FaultPlan`.

    ``grown_bad`` is a list of ``[group, pu, block, erase_cycle]`` rows
    (JSON has no tuple-keyed dicts); probabilities are re-validated by
    ``FaultPlan.validate`` at build time.
    """

    seed: int = 0
    program_fail_prob: float = 0.0
    read_fail_prob: float = 0.0
    erase_fail_prob: float = 0.0
    grown_bad: List[List[int]] = field(default_factory=list)
    power_cut_at_op: Optional[int] = None
    power_cut_at_time: Optional[float] = None
    torn_unit_prob: float = 0.0
    protect_groups: List[int] = field(default_factory=list)

    def validate(self) -> None:
        _check_types(self, "faults.")
        for row in self.grown_bad:
            _check(len(row) == 4,
                   f"faults.grown_bad rows are [group, pu, block, "
                   f"erase_cycle]; got {row}")


@dataclass
class WorkloadSpec:
    """What the runner drives the stack with."""

    kind: str = "fill_sequential"
    clients: int = 1
    ops_per_client: int = 200
    read_ops_per_client: int = 0   # 0 = same as ops_per_client
    key_size: int = 16
    value_size: int = 1024
    # raw_fill_read only: single-sector reads over the filled span.
    fill_ops: int = 40
    read_ops: int = 300
    # kind="trace" only: the recorded trace to replay, and whether to
    # run it closed-loop (afap) or at the captured issue times.
    trace: str = ""
    pacing: str = "afap"

    def validate(self) -> None:
        _check_types(self, "workload.")
        _check(self.kind in WORKLOADS,
               f"workload.kind must be one of {WORKLOADS}, "
               f"got {self.kind!r}")
        _check(self.clients >= 1,
               f"workload.clients must be >= 1, got {self.clients}")
        _check(self.pacing in PACINGS,
               f"workload.pacing must be one of {PACINGS}, "
               f"got {self.pacing!r}")
        if self.kind == "trace":
            _check(bool(self.trace),
                   "workload.trace must name a trace file when "
                   "workload.kind is 'trace'")


@dataclass
class TimingSpec:
    """The device timing model, declaratively.

    Resolution order (each stage overrides the previous): the cell
    preset, a calibrated *profile* (a builtin name or a
    ``repro.timing_profile`` JSON path — see
    :mod:`repro.trace.calibrate`), then the explicit ``*_us`` /
    bandwidth overrides.  A positive ``jitter_sigma`` turns the result
    into a seeded :class:`repro.nand.SampledNandTiming` whose per-op
    latencies vary log-normally around the base values.
    """

    profile: str = ""
    read_latency_us: float = 0.0      # 0 = keep preset/profile value
    program_latency_us: float = 0.0
    erase_latency_us: float = 0.0
    channel_mib_per_sec: float = 0.0
    jitter_sigma: float = 0.0
    #: With a profile: also adopt its fitted per-op sigmas.
    fit_jitter: bool = False
    seed: int = 0

    def validate(self) -> None:
        _check_types(self, "timing.")
        for name in ("read_latency_us", "program_latency_us",
                     "erase_latency_us", "channel_mib_per_sec",
                     "jitter_sigma"):
            _check(getattr(self, name) >= 0,
                   f"timing.{name} must be >= 0, "
                   f"got {getattr(self, name)}")


@dataclass
class StackSpec:
    """The whole composition, one declaration."""

    name: str = "stack"
    seed: int = 0
    geometry: GeometrySpec = field(default_factory=GeometrySpec)
    #: FTL flavor: oxblock | eleos | zns | lightlsm | none (raw device).
    ftl: str = "lightlsm"
    #: Kwargs for the flavor's config dataclass (BlockConfig /
    #: EleosConfig / ZnsConfig / LightLSMConfig).
    ftl_config: Dict[str, object] = field(default_factory=dict)
    #: LightLSM data placement (Figures 5/6): horizontal | vertical.
    placement: str = "horizontal"
    #: GC victim selection for ftl="oxblock" (repro.policies):
    #: greedy | cost_benefit | age_partitioned.
    gc_policy: str = "greedy"
    #: PU allocation order for ftl="oxblock" (repro.policies):
    #: striped | stream_partitioned | hotcold.
    placement_policy: str = "striped"
    #: Host above the FTL: auto | db | llama | wlfc | none.  "wlfc"
    #: layers the write-less cache over a bare oxblock LBA API.
    host: str = "auto"
    #: Kwargs for :class:`repro.policies.WlfcConfig` (host="wlfc").
    wlfc: Dict[str, object] = field(default_factory=dict)
    #: Kwargs for :class:`repro.lsm.DBConfig` (host="db").  The LSM
    #: concurrency plane lives here: ``flush_workers`` (procs draining
    #: the frozen-memtable FIFO) and ``compaction_workers`` (max
    #: concurrent compactions); 1/1 is the historical single-daemon
    #: engine, bit-identically (the ``lsm_default_fill`` row of
    #: tests/test_sim_identity.py pins it).
    db: Dict[str, object] = field(default_factory=dict)
    #: Kwargs for :class:`repro.llama.LlamaConfig` (host="llama").
    llama: Dict[str, object] = field(default_factory=dict)
    workload: Optional[WorkloadSpec] = None
    tenants: List[TenantSpec] = field(default_factory=list)
    #: Placement of tenants over PUs: partitioned | shared.
    qos_policy: str = "partitioned"
    #: Attach a QosScheduler when tenants are declared.
    qos_scheduler: bool = True
    faults: Optional[FaultSpec] = None
    #: Device timing override: None keeps the cell preset.
    timing: Optional[TimingSpec] = None
    obs: bool = False
    #: Device write-back cache (bench_ablations turns it off).
    write_back: bool = True

    def __post_init__(self) -> None:
        self.geometry = _sub_spec(GeometrySpec, self.geometry)
        if self.workload is not None:
            self.workload = _sub_spec(WorkloadSpec, self.workload)
        if self.faults is not None:
            self.faults = _sub_spec(FaultSpec, self.faults)
        if self.timing is not None:
            self.timing = _sub_spec(TimingSpec, self.timing)
        self.tenants = [t if isinstance(t, TenantSpec)
                        else _sub_spec(TenantSpec, t)
                        for t in self.tenants]

    # -- validation ---------------------------------------------------------

    def validate(self) -> "StackSpec":
        _check_types(self, "")
        _check(self.ftl in FTL_FLAVORS,
               f"unknown FTL flavor {self.ftl!r}; "
               f"expected one of {FTL_FLAVORS}")
        _check(self.host in HOSTS,
               f"unknown host {self.host!r}; expected one of {HOSTS}")
        _check(self.qos_policy in QOS_POLICIES,
               f"unknown qos policy {self.qos_policy!r}; "
               f"expected one of {QOS_POLICIES}")
        # A menu only one FTL reads: anything but its default (the first
        # entry; the policy menus are repro.policies' registries) needs it.
        from repro import policies
        for name, menu, ftl in (
                ("placement", PLACEMENTS, "lightlsm"),
                ("gc_policy", tuple(policies.VICTIM_POLICIES), "oxblock"),
                ("placement_policy", tuple(policies.PLACEMENT_POLICIES),
                 "oxblock")):
            value = getattr(self, name)
            _check(value in menu,
                   f"unknown {name} {value!r}; expected one of {menu}")
            _check(value == menu[0] or self.ftl == ftl,
                   f"{name} {value!r} needs ftl {ftl!r}, not {self.ftl!r}")
        # Keyword dicts: one no layer of this stack would read is a
        # mistake, not a default, and so is a key its config class does
        # not have.  Values are range-checked where they are used.
        for name, needs, config in _layer_configs(self):
            kwargs = getattr(self, name)
            if config is None:
                _check(not kwargs, f"{name} {kwargs} needs {needs}")
                continue
            allowed = [f.name for f in fields(config)]
            for key in kwargs:
                _check(key in allowed,
                       f"{name}: unknown key {key!r}; {config.__name__} "
                       f"accepts {allowed}")
        self.geometry.validate()
        for tenant in self.tenants:
            tenant.validate()
        names = [t.name for t in self.tenants]
        _check(len(set(names)) == len(names),
               f"duplicate tenant names in {names}")
        if self.workload is not None:
            self.workload.validate()
        if self.faults is not None:
            self.faults.validate()
        if self.timing is not None:
            self.timing.validate()
        host = self.resolved_host
        if host == "db":
            _check(self.ftl in ("oxblock", "zns", "lightlsm"),
                   f"host 'db' needs a table-capable FTL, not {self.ftl!r}")
        if host == "llama":
            _check(self.ftl == "eleos",
                   f"host 'llama' runs over the eleos FTL, not {self.ftl!r}")
        if host == "wlfc":
            _check(self.ftl == "oxblock",
                   f"host 'wlfc' caches the oxblock sync LBA API, "
                   f"not {self.ftl!r}")
        return self

    @property
    def resolved_host(self) -> str:
        return AUTO_HOST[self.ftl] if self.host == "auto" else self.host

    def replace(self, **overrides) -> "StackSpec":
        """A validated copy with *overrides* applied.

        The clone is deep (built through the dict round-trip), so
        mutating the copy's sub-specs never aliases the original —
        cluster templating stamps out per-shard specs this way.
        """
        data = self.to_dict()
        unknown = set(overrides) - {f.name for f in fields(type(self))}
        _check(not unknown,
               f"StackSpec.replace: unknown field(s) {sorted(unknown)}")
        data.update(overrides)
        return type(self).from_dict(data)

    # -- dict round-trip ----------------------------------------------------

    def to_dict(self) -> dict:
        data = asdict(self)
        if data["workload"] is None:
            del data["workload"]
        if data["faults"] is None:
            del data["faults"]
        if data["timing"] is None:
            del data["timing"]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "StackSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        _check(not unknown,
               f"StackSpec: unknown field(s) {sorted(unknown)}")
        return cls(**data).validate()
