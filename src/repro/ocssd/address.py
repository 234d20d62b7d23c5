"""Physical page addresses (PPA) in the OCSSD 2.0 hierarchy.

An address names a sector as ``(group, pu, chunk, sector)``:

* ``group`` — unit of I/O isolation (one channel per group here),
* ``pu`` — parallel unit (a chip) within the group,
* ``chunk`` — sequential-write unit within the PU,
* ``sector`` — logical block (4 KB by default) within the chunk.

``Ppa`` is a ``NamedTuple``: device models construct one per addressed
sector on every I/O, and tuple allocation is several times cheaper than a
frozen dataclass while keeping the same field access, ordering, equality
and immutability.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence, Tuple, Union


class Ppa(NamedTuple):
    """A physical sector address on the Open-Channel SSD."""

    group: int
    pu: int
    chunk: int
    sector: int

    def chunk_address(self) -> "Ppa":
        """The address of the containing chunk (sector zeroed)."""
        return Ppa(self.group, self.pu, self.chunk, 0)

    def chunk_key(self) -> tuple:
        """Hashable identity of the containing chunk."""
        return self[:3]

    def with_sector(self, sector: int) -> "Ppa":
        return Ppa(self.group, self.pu, self.chunk, sector)

    def __str__(self) -> str:
        return (f"ppa(g{self.group} pu{self.pu} "
                f"chk{self.chunk} sec{self.sector})")


_set = object.__setattr__


class PpaRun:
    """*count* consecutive sectors of chunk *key* from sector *first*: the
    one address form below an FTL, where every vector is such a run
    because the chunk is the unit of sequential write (§2.2).

    An immutable ``Sequence[Ppa]`` equal to the list it stands for, so it
    goes wherever a ``ppas`` vector does — but the device takes the run as
    told instead of rediscovering it from *count* tuples.
    """

    __slots__ = ("key", "first", "count")

    def __init__(self, key: Tuple[int, int, int], first: int, count: int):
        group, pu, chunk = key
        # A tuple whatever the caller held (decoded layouts hand out
        # lists): the device looks chunks up by this key.
        _set(self, "key", (group, pu, chunk))
        _set(self, "first", first)
        _set(self, "count", count if count > 0 else 0)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("a PpaRun is immutable")

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, index):
        sectors = range(self.first, self.first + self.count)[index]
        if isinstance(index, slice):
            return [Ppa(*self.key, sector) for sector in sectors]
        return Ppa(*self.key, sectors)

    def __iter__(self):
        return iter(self[:])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (PpaRun, list)):
            return self[:] == other[:]
        return NotImplemented

    def __repr__(self) -> str:
        return f"PpaRun({self.key}, {self.first}, {self.count})"


Sequence.register(PpaRun)

#: What a vector command addresses: a run, several runs, or — at the edge
#: (tests, contract probes) — any scatter of single addresses.
PpaVector = Union[PpaRun, List[PpaRun], List[Ppa]]
