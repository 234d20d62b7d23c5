"""StackSpec: one declarative description of a full storage stack.

The paper's FTLs are a menu, not a monolith — OX-Block, OX-ELEOS,
OX-ZNS and LightLSM are different compositions over the same media.  A
:class:`StackSpec` names one composition: geometry and cell type, the
FTL flavor, the host above it, the sidecars riding along (faults, obs),
the tenants whose parallel units it places, the workload to drive it
with, and the seed that makes the whole run deterministic.
:func:`repro.stack.build_stack` turns the spec into live objects;
``python -m repro.stack spec.json`` runs it.

Specs round-trip through plain dicts (:meth:`StackSpec.to_dict` /
:meth:`StackSpec.from_dict`), so JSON and TOML files are first-class
inputs and results files can embed the exact spec they measured.
Validation raises :class:`~repro.errors.ReproError` with the offending
field named; structural invariants the lower layers already enforce
(geometry bounds, fault probabilities) stay enforced there.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Dict, List, Optional

from repro.errors import ReproError
from repro.nand import CellType
from repro.qos import PARTITIONED, SHARED
from repro.stack import personality
from repro.stack.personality import _check

QOS_POLICIES = (PARTITIONED, SHARED)


def _sub_spec(cls, value):
    """Accept an instance, a mapping, or None (-> defaults)."""
    if value is None:
        value = {}
    if isinstance(value, cls):
        return value
    _check(isinstance(value, dict),
           f"{cls.__name__}: a spec is a mapping of fields, got {value!r}")
    unknown = set(value) - {f.name for f in fields(cls)}
    _check(not unknown, f"{cls.__name__}: unknown field(s) {sorted(unknown)}")
    missing = [f.name for f in fields(cls) if f.name not in value
               and f.default is MISSING and f.default_factory is MISSING]
    _check(not missing, f"{cls.__name__}: missing field(s) {missing}")
    return cls(**value)


def from_dict(cls, data):
    """``cls(**data).validate()``, every failure a :class:`ReproError`."""
    _check(data is not None, f"{cls.__name__}: a spec is a mapping, got None")
    return _sub_spec(cls, data).validate()


def load_spec(path: str) -> "StackSpec":
    """Read a JSON (or, by ``.toml`` suffix, TOML) :class:`StackSpec`
    file; an unreadable or malformed file is a :class:`ReproError`
    naming it, a bad field one naming the field."""
    import tomllib
    try:
        with open(path, "rb") as handle:
            data = (tomllib.load if path.endswith(".toml")
                    else json.load)(handle)
    except (OSError, ValueError) as exc:
        raise ReproError(f"cannot read {path}: {exc}") from exc
    return StackSpec.from_dict(data)


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


def _check_bounds(spec, label: str, **lows) -> None:
    """Each named field of *spec* is at least its bound."""
    for name, low in lows.items():
        value = getattr(spec, name)
        _check(value >= low, f"{label}{name} must be >= {low}, got {value}")


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
    """One tenant: a name that ``qos_policy`` places on parallel units."""

    name: str

    def validate(self) -> None:
        _check_types(self, f"tenant {self.name!r}: ")
        _check(bool(self.name), "tenant name must be non-empty")


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

    def validate(self) -> None:
        _check_types(self, "workload.")
        kinds = tuple(personality.WORKLOAD_ROWS)
        _check(self.kind in kinds,
               f"workload.kind must be one of {kinds}, got {self.kind!r}")
        _check_bounds(self, "workload.", clients=1, ops_per_client=1,
                      read_ops_per_client=0, fill_ops=1, read_ops=0)


@dataclass
class TimingSpec:
    """The device timing model, declaratively.

    Resolution order (each stage overrides the previous): the cell
    preset, the means of a measured *profile* (a builtin name or a
    ``repro.timing_profile`` JSON path — see
    :func:`repro.nand.load_profile`), then the explicit ``*_us`` /
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
        _check_bounds(self, "timing.", read_latency_us=0,
                      program_latency_us=0, erase_latency_us=0,
                      channel_mib_per_sec=0, jitter_sigma=0)
        _check(self.profile or not self.fit_jitter,
               "timing.fit_jitter adopts a profile's sigmas; "
               "it needs timing.profile")


@dataclass
class StackSpec:
    """The whole composition, one declaration."""

    name: str = "stack"
    seed: int = 0
    geometry: GeometrySpec = field(default_factory=GeometrySpec)
    #: FTL flavor: a row of :data:`repro.stack.personality.FTL_ROWS`
    #: ("none" is a raw device).
    ftl: str = "lightlsm"
    #: Kwargs for the flavor's config dataclass (its row's ``config``).
    ftl_config: Dict[str, object] = field(default_factory=dict)
    #: LightLSM data placement (Figures 5/6).
    placement: str = "horizontal"
    #: OX-Block's GC victim order; its menu holds only "greedy" (DESIGN
    #: §9).  Kept because the ledger's zipf rows still pass it; it goes
    #: when those rows become JSON specs.
    gc_policy: str = "greedy"
    #: Host above the FTL: "auto" (the flavor's first host) or a row of
    #: :data:`repro.stack.personality.HOST_ROWS`.
    host: str = "auto"
    #: ``wlfc`` / ``db`` / ``llama``: kwargs for the config class of the
    #: host of that name (its row's ``config``).  ``db`` holds the LSM
    #: concurrency plane, ``flush_workers`` / ``compaction_workers``
    #: (1/1 is the single-daemon engine; DESIGN §10).
    wlfc: Dict[str, object] = field(default_factory=dict)
    db: Dict[str, object] = field(default_factory=dict)
    llama: Dict[str, object] = field(default_factory=dict)
    workload: Optional[WorkloadSpec] = None
    tenants: List[TenantSpec] = field(default_factory=list)
    #: Placement of tenants over PUs: partitioned | shared.
    qos_policy: str = "partitioned"
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
        if isinstance(self.tenants, list):   # else _check_types names it
            self.tenants = [_sub_spec(TenantSpec, t) for t in self.tenants]

    # -- validation ---------------------------------------------------------

    def validate(self) -> "StackSpec":
        """Field types, then each sub-spec, then the personality table's
        rules (:func:`repro.stack.personality.check`)."""
        _check_types(self, "")
        _check(self.qos_policy in QOS_POLICIES,
               f"unknown qos policy {self.qos_policy!r}; "
               f"expected one of {QOS_POLICIES}")
        self.geometry.validate()
        for tenant in self.tenants:
            tenant.validate()
        names = [t.name for t in self.tenants]
        _check(len(set(names)) == len(names),
               f"duplicate tenant names in {names}")
        _check(self.qos_policy != PARTITIONED
               or len(names) <= self.geometry.num_groups,
               f"tenants: partitioned placement needs >= 1 group per "
               f"tenant: {len(names)} tenants > "
               f"{self.geometry.num_groups} groups")
        for sub in (self.workload, self.faults, self.timing):
            if sub is not None:
                sub.validate()
        personality.check(self)
        return self

    @property
    def resolved_host(self) -> str:
        return personality.resolve_host(self)

    def replace(self, **overrides) -> "StackSpec":
        """A validated copy with *overrides* applied.

        The clone is deep (built through the dict round-trip), so
        mutating the copy's sub-specs never aliases the original.
        """
        return type(self).from_dict({**self.to_dict(), **overrides})

    # -- dict round-trip ----------------------------------------------------

    def to_dict(self) -> dict:
        data = asdict(self)
        for name in ("workload", "faults", "timing"):
            if data[name] is None:
                del data[name]
        return data

    from_dict = classmethod(from_dict)
