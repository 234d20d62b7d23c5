"""The personality table: which FTL takes which host, config, option and
workload, written once — one row per FTL flavour, host and workload kind.
``StackSpec.validate`` and ``resolved_host``, ``build_stack``,
``run_spec``'s dispatch, ``Stack.block`` and
DESIGN §7's tables all read the rows; no other module in ``repro``
compares a flavour or host to a literal.

A *surface* is what a stack gives the runner: ``db`` (a
:class:`repro.lsm.DB`) or ``block`` (the sync LBA API ``write`` /
``read`` / ``trim`` / ``flush`` of a bare OX-Block, or of the ``wlfc``
cache in front of it).  A stack gives what its host row and its FTL row
give; a workload kind names the surfaces it can drive.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Callable, Dict, Optional, Tuple

from repro.errors import ReproError
from repro.llama import LlamaConfig, LlamaEngine
from repro.lsm import (
    DB, BlockDevEnv, DBConfig, HorizontalPlacement, LightLSMConfig,
    LightLSMEnv, VerticalPlacement, ZnsEnv)
from repro.ox import BlockConfig, EleosConfig, OXBlock, OXEleos
from repro.policies import WlfcConfig, WriteLessCache
from repro.zns import OXZns, ZnsConfig

#: host="db" over oxblock: the BlockDevEnv extent size, in chunks (the
#: abstraction-spectrum bench's table size).
BLOCKDEV_TABLE_CHUNKS = 32
AUTO = "auto"


@dataclass(frozen=True)
class Ftl:
    """One FTL flavour: its ``ftl_config`` class (None: nothing to
    tune), the hosts it takes (the first is what ``auto`` resolves to),
    ``build(stack)`` for the ``Stack`` attribute *attr*, ``env(stack)``
    for the table store a ``db`` host runs on, the ``StackSpec`` menus
    only it reads (field -> menu, default first) and what the bare FTL
    gives the runner."""

    config: Optional[type]
    hosts: Tuple[str, ...]
    build: Optional[Callable] = None
    env: Optional[Callable] = None
    menus: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    surface: Optional[str] = None
    attr: str = "ftl"


@dataclass(frozen=True)
class Host:
    """One host: the class of the ``StackSpec`` dict named like it,
    ``build(stack)`` for the ``Stack`` attribute *attr* and what it
    gives the runner."""

    config: Optional[type] = None
    build: Optional[Callable] = None
    attr: str = ""
    surface: Optional[str] = None


@dataclass(frozen=True)
class Workload:
    """One ``workload.kind``: the surfaces it can drive (any one; none
    needed when empty) and ``run(stack) -> metrics``."""

    needs: Tuple[str, ...]
    run: Callable


# -- row constructors: each returns the object its row's attr holds -----------

_PLACEMENTS = {"horizontal": HorizontalPlacement,
               "vertical": VerticalPlacement}


def _db(stack) -> DB:
    stack.env = FTL_ROWS[stack.spec.ftl].env(stack)
    return DB(stack.env, DBConfig(**stack.spec.db), stack.sim)


# -- workload runs ------------------------------------------------------------


def _db_workload(stack, read: Optional[str] = None) -> Dict[str, object]:
    """A DbBench fill, then (with *read*) a quiesce and that read pass."""
    workload = stack.spec.workload
    bench = stack.dbbench()
    fill = bench.fill_sequential(clients=workload.clients,
                                 ops_per_client=workload.ops_per_client)
    metrics = {"fill_ops": fill.ops,
               "fill_ops_per_sec": round(fill.ops_per_sec, 1),
               "stall_seconds": round(fill.stall_seconds, 6),
               "compactions": fill.compactions, "flushes": fill.flushes}
    if read is not None:
        bench.quiesce()
        result = getattr(bench, read)(
            clients=workload.clients,
            ops_per_client=(workload.read_ops_per_client
                            or workload.ops_per_client))
        metrics["read_ops"] = result.ops
        metrics["read_ops_per_sec"] = round(result.ops_per_sec, 1)
    return metrics


def _raw_workload(stack) -> Dict[str, object]:
    """The perf-trajectory shape: write-unit fills through the block
    lane, then random single-sector reads over the filled span."""
    workload = stack.spec.workload
    lane = stack.block
    geometry = stack.device.geometry
    unit = geometry.ws_min
    payload = bytes(unit * geometry.sector_size)
    started = time.perf_counter()
    for op in range(workload.fill_ops):
        lane.write(op * unit, payload)
    lane.flush()
    rng = random.Random(stack.spec.seed)
    span = workload.fill_ops * unit
    for __ in range(workload.read_ops):
        lane.read(rng.randrange(span), 1)
    stack.sim.run()
    wall = time.perf_counter() - started
    total = workload.fill_ops + workload.read_ops
    return {"fill_ops": workload.fill_ops, "read_ops": workload.read_ops,
            "ops_per_sec": round(total / wall, 1) if wall else 0.0}


def _idle(stack) -> Dict[str, object]:
    stack.sim.run()
    return {}


# -- the table ----------------------------------------------------------------

FTL_ROWS: Dict[str, Ftl] = {
    "oxblock": Ftl(
        BlockConfig, ("none", "db", "wlfc"), lambda s: OXBlock.format(
            s.media, BlockConfig(**s.spec.ftl_config)),
        env=lambda s: BlockDevEnv(s.ftl, table_sectors=(
            BLOCKDEV_TABLE_CHUNKS * s.device.geometry.sectors_per_chunk)),
        menus={"gc_policy": ("greedy",)},
        surface="block"),
    "eleos": Ftl(EleosConfig, ("llama", "none"), lambda s: OXEleos.format(
        s.media, EleosConfig(**s.spec.ftl_config))),
    "zns": Ftl(ZnsConfig, ("db", "none"), lambda s: OXZns(
        s.media, ZnsConfig(**s.spec.ftl_config)),
        env=lambda s: ZnsEnv(s.ftl)),
    "lightlsm": Ftl(LightLSMConfig, ("db", "none"), lambda s: LightLSMEnv(
        s.media, _PLACEMENTS[s.spec.placement](),
        LightLSMConfig(**s.spec.ftl_config)),
        env=lambda s: s.env, menus={"placement": tuple(_PLACEMENTS)},
        attr="env"),
    "none": Ftl(None, ("none",)),
}

HOST_ROWS: Dict[str, Host] = {
    "db": Host(DBConfig, _db, attr="db", surface="db"),
    "llama": Host(LlamaConfig, lambda s: LlamaEngine(
        s.ftl, LlamaConfig(**s.spec.llama)), attr="engine"),
    "wlfc": Host(WlfcConfig, lambda s: WriteLessCache(
        s.ftl, WlfcConfig(**s.spec.wlfc)), attr="wlfc", surface="block"),
    "none": Host(),
}

WORKLOAD_ROWS: Dict[str, Workload] = {
    "fill_sequential": Workload(("db",), _db_workload),
    "fill_then_read_random": Workload(
        ("db",), partial(_db_workload, read="read_random")),
    "fill_then_read_sequential": Workload(
        ("db",), partial(_db_workload, read="read_sequential")),
    "raw_fill_read": Workload(("block",), _raw_workload),
    "none": Workload((), _idle),
}


# -- what the rest of the stack reads off the table ---------------------------


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise ReproError(message)


def _kind(spec) -> str:
    return "none" if spec.workload is None else spec.workload.kind


def resolve_host(spec) -> str:
    return FTL_ROWS[spec.ftl].hosts[0] if spec.host == AUTO else spec.host


def _layers(spec) -> Tuple[Host, Ftl]:
    return HOST_ROWS[resolve_host(spec)], FTL_ROWS[spec.ftl]


def require(spec, needs: Tuple[str, ...], what: str) -> None:
    """*what* drives one of the surfaces *needs*: the stack *spec*
    describes gives one, or a :class:`ReproError` says what it gives."""
    gives = {row.surface for row in _layers(spec)} - {None}
    _check(not needs or gives & set(needs),
           f"{what} needs the {' or '.join(map(repr, needs))} surface; "
           f"ftl {spec.ftl!r} with host {resolve_host(spec)!r} gives "
           f"{sorted(gives) or 'none'}")


def check(spec) -> None:
    """The personality half of ``StackSpec.validate`` (fields already
    type-checked, sub-specs already validated)."""
    _check(spec.ftl in FTL_ROWS, f"unknown FTL flavor {spec.ftl!r}; "
                                 f"expected one of {tuple(FTL_ROWS)}")
    hosts = (AUTO, *HOST_ROWS)
    _check(spec.host in hosts,
           f"unknown host {spec.host!r}; expected one of {hosts}")
    ftl, host = FTL_ROWS[spec.ftl], resolve_host(spec)
    _check(host in ftl.hosts, f"host {host!r} runs over ftl "
           f"{tuple(n for n, row in FTL_ROWS.items() if host in row.hosts)}"
           f", not {spec.ftl!r}")
    for owner, row in FTL_ROWS.items():
        for name, menu in row.menus.items():
            value = getattr(spec, name)
            _check(value in menu,
                   f"unknown {name} {value!r}; expected one of {menu}")
            _check(value == menu[0] or spec.ftl == owner,
                   f"{name} {value!r} needs ftl {owner!r}, not {spec.ftl!r}")
    # Keyword dicts: one no layer of this stack reads is a mistake, and
    # so is a key its config class lacks (values are checked where used).
    dicts = [("ftl_config", ftl.config, f"an FTL, not ftl {spec.ftl!r}")]
    dicts += [(name, row.config if name == host else None,
               f"the {name!r} host, not {host!r}")
              for name, row in HOST_ROWS.items() if row.config]
    for name, config, needs in dicts:
        kwargs = getattr(spec, name)
        _check(config is not None or not kwargs,
               f"{name} {kwargs} needs {needs}")
        for key in kwargs:
            allowed = [f.name for f in fields(config)]
            _check(key in allowed, f"{name}: unknown key {key!r}; "
                                   f"{config.__name__} accepts {allowed}")
    kind = _kind(spec)
    require(spec, WORKLOAD_ROWS[kind].needs, f"workload.kind {kind!r}")


def build(stack) -> None:
    """Wire *stack*'s FTL, then its host (the media is built)."""
    host, ftl = _layers(stack.spec)
    for row in (ftl, host):
        if row.build is not None:
            setattr(stack, row.attr, row.build(stack))


def surface(stack, name: str):
    """The object that gives *stack*'s runner the surface *name*."""
    require(stack.spec, (name,), f"stack {stack.spec.name!r}'s {name} lane")
    return next(getattr(stack, row.attr) for row in _layers(stack.spec)
                if row.surface == name)


def run_workload(stack) -> Dict[str, object]:
    return WORKLOAD_ROWS[_kind(stack.spec)].run(stack)

