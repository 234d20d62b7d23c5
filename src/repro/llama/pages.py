"""Delta pages: LLAMA/Bw-tree-style page state.

A logical page is a *base* plus a chain of *delta* records.  Updates
prepend deltas without rewriting the base (cheap, latch-free in the real
system); consolidation folds the chain back into a single base.  On flush
the whole state serializes into one variable-sized page for OX-ELEOS —
which is why OX-ELEOS must support pages "of an arbitrary number of
bytes".

Serialized layout: ``[u32 base_len][base][u32 delta_len][delta]...``
with deltas stored oldest-first.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List

from repro.errors import ReproError

_LEN = struct.Struct("<I")


@dataclass
class DeltaPage:
    """In-memory state of one logical page."""

    pid: int
    base: bytes = b""
    deltas: List[bytes] = field(default_factory=list)
    dirty: bool = False

    def apply_delta(self, delta: bytes) -> None:
        """Append an update record to the page's chain."""
        self.deltas.append(delta)
        self.dirty = True

    def replace_base(self, base: bytes) -> None:
        """Overwrite the page wholesale (drops the delta chain)."""
        self.base = base
        self.deltas = []
        self.dirty = True

    def consolidate(self) -> None:
        """Fold the delta chain into the base.

        The content model is simple concatenation (a delta appends bytes);
        richer semantics would swap this method out.
        """
        if self.deltas:
            self.base = self.materialize()
            self.deltas = []
            self.dirty = True

    def materialize(self) -> bytes:
        """The page's current logical content."""
        return self.base + b"".join(self.deltas)

    @property
    def chain_length(self) -> int:
        return len(self.deltas)

    # -- serialization ---------------------------------------------------------

    def serialize(self) -> bytes:
        parts = [_LEN.pack(len(self.base)), self.base]
        for delta in self.deltas:
            parts.append(_LEN.pack(len(delta)))
            parts.append(delta)
        return b"".join(parts)

    @classmethod
    def deserialize(cls, pid: int, blob: bytes) -> "DeltaPage":
        if len(blob) < _LEN.size:
            raise ReproError(f"page {pid}: serialized blob too short")
        offset = 0
        (base_len,) = _LEN.unpack_from(blob, offset)
        offset += _LEN.size
        if offset + base_len > len(blob):
            raise ReproError(f"page {pid}: base extends past blob")
        base = blob[offset:offset + base_len]
        offset += base_len
        deltas: List[bytes] = []
        while offset < len(blob):
            if offset + _LEN.size > len(blob):
                raise ReproError(
                    f"page {pid}: {len(blob) - offset} trailing bytes are "
                    f"too short for a delta length")
            (delta_len,) = _LEN.unpack_from(blob, offset)
            offset += _LEN.size
            if offset + delta_len > len(blob):
                raise ReproError(f"page {pid}: delta extends past blob")
            deltas.append(blob[offset:offset + delta_len])
            offset += delta_len
        return cls(pid=pid, base=base, deltas=deltas, dirty=False)
