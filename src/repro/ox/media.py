"""The OX media manager: the bottom OX layer (§4.1).

"The bottom layer focuses on media management, it is responsible for
abstracting various forms of underlying storage media under a common
representation of the physical address space."  Here the one media type is
the simulated Open-Channel SSD; the media manager exposes a narrow,
FTL-facing API (vector I/O, reset, copy, flush, chunk scans, notification
drain) plus both generator (in-simulation) and synchronous entry points.

A media manager optionally carries a :class:`~repro.qos.TenantContext`
(see :meth:`MediaManager.for_tenant`): every command it submits is tagged
with that tenant, which is how an FTL instance owned by one tenant feeds
tenant identity into the device's QoS scheduler and per-tenant metrics
without any per-call plumbing in the FTL code.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import MediaError
from repro.ocssd.address import Ppa, PpaVector
from repro.ocssd.commands import (
    Buffer,
    ChunkReset,
    Completion,
    VectorCopy,
    VectorRead,
    VectorWrite,
)
from repro.ocssd.device import ChunkDescriptor, ChunkNotification, OpenChannelSSD
from repro.ocssd.geometry import DeviceGeometry


class MediaManager:
    """FTL-facing facade over one Open-Channel SSD.

    *tenant* tags every command this manager submits; ``None`` leaves
    commands untagged (infrastructure I/O, single-tenant stacks).
    """

    def __init__(self, device: OpenChannelSSD, tenant=None):
        self.device = device
        self.sim = device.sim
        self.tenant = tenant

    def for_tenant(self, tenant) -> "MediaManager":
        """A view of the same device whose commands belong to *tenant*."""
        return MediaManager(self.device, tenant=tenant)

    @property
    def geometry(self) -> DeviceGeometry:
        return self.device.report_geometry()

    # -- generator API (for use inside simulation processes) --------------------
    #
    # These return the device's generator directly instead of delegating
    # with ``yield from``: callers drive them identically, but each I/O
    # carries one generator frame less through every resume.

    def write_proc(self, ppas: PpaVector, data: Buffer,
                   oob: Optional[List[object]] = None, fua: bool = False,
                   parent=None):
        """Write the one buffer *data* (see :class:`VectorWrite`)."""
        return self.device.submit(
            VectorWrite(ppas=ppas, data=data, oob=oob, fua=fua,
                        tenant=self.tenant),
            parent=parent)

    def read_proc(self, ppas: PpaVector, parent=None,
                  meta_only: bool = False):
        return self.device.submit(
            VectorRead(ppas=ppas, tenant=self.tenant, meta_only=meta_only),
            parent=parent)

    def read_sectors_proc(self, linears: List[int], parent=None):
        """Payload-only read by linear address; see
        :meth:`repro.ocssd.OpenChannelSSD.read_sectors_proc`."""
        return self.device.read_sectors_proc(linears, tenant=self.tenant,
                                             parent=parent)

    def reset_proc(self, ppa: Ppa, parent=None):
        return self.device.submit(ChunkReset(ppa=ppa, tenant=self.tenant),
                                  parent=parent)

    def reset_dirty_proc(self, keys, name: str, parent=None):
        """Erase, side by side (processes called *name*), those of the
        chunks *keys* that hold anything; returns their completions."""
        resets = []
        for key in keys:
            ppa = Ppa(*key, 0)
            info = self.device.chunk_info(ppa)
            if info.write_pointer or info.state.value != "free":
                resets.append(self.reset_proc(ppa, parent=parent))
        return self.sim.join_proc(resets, name)

    def copy_proc(self, src: PpaVector, dst: PpaVector,
                  dst_oob: Optional[List[object]] = None, parent=None):
        return self.device.submit(
            VectorCopy(src=src, dst=dst, dst_oob=dst_oob,
                       tenant=self.tenant),
            parent=parent)

    def flush_proc(self, chunks=None):
        return self.device.flush_proc(chunks)

    # -- synchronous API ----------------------------------------------------------

    def write(self, ppas: PpaVector, data: Buffer,
              oob: Optional[List[object]] = None,
              fua: bool = False) -> Completion:
        return self.device.execute(VectorWrite(
            ppas=ppas, data=data, oob=oob, fua=fua, tenant=self.tenant))

    def read(self, ppas: PpaVector) -> Completion:
        return self.device.execute(VectorRead(ppas=ppas, tenant=self.tenant))

    def reset(self, ppa: Ppa) -> Completion:
        return self.device.execute(ChunkReset(ppa=ppa, tenant=self.tenant))

    def copy(self, src: PpaVector, dst: PpaVector,
             dst_oob: Optional[List[object]] = None) -> Completion:
        return self.device.execute(VectorCopy(
            src=src, dst=dst, dst_oob=dst_oob, tenant=self.tenant))

    def flush(self) -> None:
        self.device.flush()

    # -- metadata / management -------------------------------------------------------

    def chunk_info(self, ppa: Ppa) -> ChunkDescriptor:
        return self.device.chunk_info(ppa)

    def scan_chunks(self) -> List[ChunkDescriptor]:
        """Full chunk-descriptor scan, used by recovery to rebuild the
        provisioner's view of the physical space."""
        return list(self.device.iter_chunk_info())

    def pop_notifications(self) -> List[ChunkNotification]:
        return self.device.pop_notifications()

    def require_ok(self, completion: Completion, context: str) -> Completion:
        """Raise :class:`MediaError` unless *completion* succeeded."""
        if not completion.ok:
            raise MediaError(
                f"{context}: {completion.status.value}"
                + (f" ({completion.error})" if completion.error else ""))
        return completion
