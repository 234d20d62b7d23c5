"""The sidecar attachment plane: one lifecycle for faults, obs and qos.

Three cross-cutting subsystems ride alongside the device model — fault
injection (:mod:`repro.faults`), observability (:mod:`repro.obs`) and
QoS scheduling (:mod:`repro.qos`).  Each one wires itself into the same
host objects (the device, its controller, its chips, the simulator) by
setting a named *slot* attribute that is ``None`` in normal operation,
so every disabled hot path costs exactly one attribute load and one
identity check.  ``test_unattached_stack_records_nothing`` in
``tests/test_obs.py`` holds that structure; the ledger's per-layer
``calls_per_op`` rows, parent vs change, hold the cost.

Before this module, each subsystem grew its own copy of that lifecycle:
``FaultInjector.attach``, ``Obs.attach`` and ``QosScheduler.attach``
re-implemented the slot walk, the double-attach guard and the detach
scrub with small drifts between them.  :class:`Sidecar` is the single
protocol; a subsystem declares *which slot it fills* and *which hosts
carry that slot*, and inherits attach/detach:

* ``slot`` — the attribute name (``"faults"``, ``"obs"``, ``"qos"``);
* :meth:`sidecar_targets` — the host objects to wire;
* :meth:`_sidecar_validate` — pre-attach checks (e.g. simulator match);
* :meth:`_sidecar_wire` / :meth:`_sidecar_unwire` — extra per-subsystem
  state (a chip's fault key, the tracer's simulator binding).

Hosts declare their slots with :func:`init_sidecar_slots` so the
"``None`` unless attached" convention is stated once, not per file.
"""

from __future__ import annotations

from typing import Iterable, Optional, TYPE_CHECKING

from repro.errors import ReproError

if TYPE_CHECKING:
    from repro.ocssd.device import OpenChannelSSD

#: The three sidecar slots the device stack carries today.
FAULTS_SLOT = "faults"
OBS_SLOT = "obs"
QOS_SLOT = "qos"


def init_sidecar_slots(host: object, *slots: str) -> None:
    """Declare *host*'s sidecar slots, all detached (``None``).

    Hot paths guard on ``self.<slot> is None``; one attribute load plus
    an identity check is the entire disabled cost.
    """
    for slot in slots:
        setattr(host, slot, None)


class Sidecar:
    """A subsystem that attaches to (and detaches from) one device stack.

    Subclasses set :attr:`slot` and override :meth:`sidecar_targets`;
    the base class owns the lifecycle: the double-attach guard, the slot
    writes, and the detach scrub that only clears slots still pointing
    at *this* sidecar (so stacking or swapping sidecars never clobbers a
    newer attachment).
    """

    #: Attribute name this sidecar fills on its host objects.
    slot: str = ""

    def __init__(self) -> None:
        self.device: Optional["OpenChannelSSD"] = None

    # -- subclass surface --------------------------------------------------

    def sidecar_targets(self, device: "OpenChannelSSD") -> Iterable[object]:
        """Host objects carrying :attr:`slot` (default: the device, its
        controller and every chip)."""
        return (device, device.controller, *device.chips.values())

    def _sidecar_validate(self, device: "OpenChannelSSD") -> None:
        """Pre-attach checks; raise to refuse the attachment."""

    def _sidecar_wire(self, device: "OpenChannelSSD") -> None:
        """Extra wiring after the slots are set."""

    def _sidecar_unwire(self, device: "OpenChannelSSD") -> None:
        """Extra cleanup after the slots are scrubbed."""

    # -- lifecycle ---------------------------------------------------------

    def attach(self, device: "OpenChannelSSD") -> "Sidecar":
        """Wire this sidecar into *device*; returns self for chaining."""
        if not self.slot:
            raise ReproError(f"{type(self).__name__} declares no slot")
        if self.device is not None:
            raise ReproError(
                f"{type(self).__name__} is already attached")
        self._sidecar_validate(device)
        self.device = device
        for target in self.sidecar_targets(device):
            setattr(target, self.slot, self)
        self._sidecar_wire(device)
        return self

    def detach(self) -> None:
        """Unwire from the device; a no-op when not attached."""
        device = self.device
        if device is None:
            return
        for target in self.sidecar_targets(device):
            if getattr(target, self.slot, None) is self:
                setattr(target, self.slot, None)
        self.device = None
        self._sidecar_unwire(device)
