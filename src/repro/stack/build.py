"""build_stack(): turn one :class:`StackSpec` into live, wired objects.

Construction order is load-bearing for determinism and matches the
hand-wired assembly every bench used to repeat:

1. the device (which creates its simulator);
2. sidecars, in the fixed order obs -> faults -> qos (attach-before-
   build, so layers constructed afterwards inherit ``sim.obs`` /
   ``sim.qos``);
3. the media manager;
4. the FTL / storage environment (LightLSM spawns its dispatcher here);
5. the host (the LSM engine spawns its daemons here).

Steps 4 and 5 are the rows of :mod:`repro.stack.personality`.

Given the same spec, two builds produce event-for-event identical runs
(``tests/test_stack.py`` proves this against the legacy wiring).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.faults import FaultInjector, FaultPlan
from repro.lsm import DB, DbBench
from repro.llama import LlamaEngine
from repro.nand import (
    FlashGeometry, NandTiming, SampledNandTiming, timing_for)
from repro.obs import Obs
from repro.ocssd import DeviceGeometry, OpenChannelSSD
from repro.ox import MediaManager
from repro.policies import WriteLessCache
from repro.qos import (
    QosScheduler, TenantContext, TenantRegistry, plan_placement)
from repro.stack import personality
from repro.stack.spec import StackSpec, WorkloadSpec


@dataclass
class Stack:
    """Everything :func:`build_stack` wired, one handle per layer.

    Layers a spec did not ask for are ``None`` — a raw-device stack has
    no ``ftl``; a bare FTL has no ``env``/``db``.
    """

    spec: StackSpec
    device: OpenChannelSSD
    #: Built after the sidecars attach ("attach first, build second").
    media: Optional[MediaManager] = None
    obs: Optional[Obs] = None
    faults: Optional[FaultInjector] = None
    qos: Optional[QosScheduler] = None
    registry: Optional[TenantRegistry] = None
    placement_plan: Optional[
        Dict[TenantContext, List[Tuple[int, int]]]] = None
    ftl: Optional[object] = None          # OXBlock | OXEleos | OXZns
    env: Optional[object] = None          # StorageEnv
    engine: Optional[LlamaEngine] = None
    db: Optional[DB] = None
    wlfc: Optional[WriteLessCache] = None  # host="wlfc" only

    @property
    def sim(self):
        return self.device.sim

    @property
    def block(self):
        """The sync LBA API (``write`` / ``read`` / ``trim`` / ``flush``)
        the block lane drives: the ``wlfc`` host, else a bare OX-Block."""
        return personality.surface(self, "block")

    def tenant(self, name: str) -> TenantContext:
        if self.registry is None:
            raise ReproError("this stack declares no tenants")
        return self.registry.lookup(name)

    def dbbench(self) -> DbBench:
        """A workload driver over this stack's DB, seeded by the spec."""
        workload = self.spec.workload or WorkloadSpec()
        return DbBench(personality.surface(self, "db"), seed=self.spec.seed,
                       key_size=workload.key_size,
                       value_size=workload.value_size)


def _device_geometry(spec: StackSpec) -> DeviceGeometry:
    g = spec.geometry
    return DeviceGeometry(
        num_groups=g.num_groups, pus_per_group=g.pus_per_group,
        flash=FlashGeometry(
            cell=g.cell_type, planes=g.planes,
            blocks_per_plane=g.chunks_per_pu,
            pages_per_block=g.pages_per_block,
            sectors_per_page=g.sectors_per_page,
            sector_size=g.sector_size))


def _resolve_timing(spec: StackSpec) -> Optional[NandTiming]:
    """``spec.timing`` -> a concrete timing model (None = cell preset).

    Preset -> profile fit -> explicit overrides, then an optional
    log-normal jitter wrapper; see :class:`repro.stack.spec.TimingSpec`.
    """
    t = spec.timing
    if t is None:
        return None
    base = timing_for(spec.geometry.cell_type)
    sigmas = {"read": t.jitter_sigma, "program": t.jitter_sigma,
              "erase": t.jitter_sigma}
    if t.profile:
        # Imported lazily: the spec layer stays importable without the
        # trace package, and most stacks never calibrate.
        from repro.trace.calibrate import fit_profile, load_profile
        fitted = fit_profile(load_profile(t.profile), jitter=t.fit_jitter,
                             seed=t.seed)
        # Only the ops the profile measured; the rest stay the cell's.
        base = replace(base,
                       channel_bandwidth=fitted.timing.channel_bandwidth,
                       **{f"{kind}_latency": latency
                          for kind, latency in fitted.latencies.items()})
        if t.fit_jitter and not t.jitter_sigma:
            sigmas = {kind: fitted.sigmas.get(kind, 0.0)
                      for kind in sigmas}
    values = dict(
        read_latency=(t.read_latency_us * 1e-6
                      or base.read_latency),
        program_latency=(t.program_latency_us * 1e-6
                         or base.program_latency),
        erase_latency=(t.erase_latency_us * 1e-6
                       or base.erase_latency),
        channel_bandwidth=(t.channel_mib_per_sec * 2**20
                           or base.channel_bandwidth))
    if any(sigmas.values()):
        return SampledNandTiming(
            read_sigma=sigmas["read"], program_sigma=sigmas["program"],
            erase_sigma=sigmas["erase"], seed=t.seed, **values)
    return NandTiming(**values)


def _fault_plan(spec: StackSpec) -> FaultPlan:
    """``spec.faults`` is ``FaultPlan``'s fields, JSON-shaped."""
    f = spec.faults
    return FaultPlan(**{
        **asdict(f), "protect_groups": frozenset(f.protect_groups),
        "grown_bad": {(g, pu, block): cycle
                      for g, pu, block, cycle in f.grown_bad}})


def build_stack(spec: StackSpec) -> Stack:
    """Assemble and wire the stack *spec* describes (validated first:
    every keyword dict below is known to fit its config class)."""
    spec.validate()
    device = OpenChannelSSD(geometry=_device_geometry(spec),
                            timing=_resolve_timing(spec),
                            write_back=spec.write_back)
    stack = Stack(spec=spec, device=device)

    # Sidecars first, so layers built below inherit sim.obs / sim.qos.
    if spec.obs:
        stack.obs = Obs().attach(device)
    if spec.faults is not None:
        stack.faults = FaultInjector(_fault_plan(spec)).attach(device)
    if spec.tenants:
        stack.registry = TenantRegistry()
        tenants = [stack.registry.register(**asdict(t))
                   for t in spec.tenants]
        if spec.qos_scheduler:
            stack.qos = QosScheduler(device.sim).attach(device)
            for tenant in tenants:
                stack.qos.register_tenant(tenant)
        stack.placement_plan = plan_placement(
            spec.geometry.num_groups, spec.geometry.pus_per_group,
            tenants, policy=spec.qos_policy)

    stack.media = MediaManager(device)
    personality.build(stack)
    return stack
