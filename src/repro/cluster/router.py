"""Key routing across shards: consistent-hash ring and range router.

Both routers answer one question — ``replicas(key)``: the R distinct
shards a key lives on, primary first.  Membership is fixed when the
router is built.

All hashing is :func:`stable_hash` (BLAKE2s, 64-bit).  The builtin
``hash()`` is process-salted and would silently break the
serial-vs-parallel bit-identity contract, so it must never route keys.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable, List, Tuple

from repro.errors import ReproError

#: The shared 64-bit key space both routers partition.
SPACE = 1 << 64


def stable_hash(token: object) -> int:
    """A process-stable 64-bit point for *token* (BLAKE2s, not hash())."""
    digest = hashlib.blake2s(str(token).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def key_point(key: object) -> int:
    """Where *key* lands in the shared 64-bit space."""
    return stable_hash(f"key:{key}")


class HashRing:
    """Consistent-hash ring with virtual nodes and R-way replication.

    Each shard owns ``vnodes`` points on the ring; a key's replicas are
    the first R *distinct* shards at or clockwise of the key's point.
    """

    def __init__(self, shard_ids: Iterable[int], vnodes: int = 64,
                 replication: int = 1):
        if vnodes < 1:
            raise ReproError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        self.replication = replication
        self._points: List[Tuple[int, int]] = []   # sorted (point, shard)
        shards: set = set()
        for shard_id in shard_ids:
            if shard_id in shards:
                raise ReproError(f"shard {shard_id} is already on the ring")
            shards.add(shard_id)
            self._points.extend(
                (stable_hash(f"shard:{shard_id}:vnode:{vnode}"), shard_id)
                for vnode in range(vnodes))
        self._points.sort()
        self.shards = frozenset(shards)
        _check_replication(replication, len(shards))

    def replicas(self, key: object) -> Tuple[int, ...]:
        """The R distinct shards for *key*, primary first."""
        count = self.replication
        points = self._points
        index = bisect.bisect_right(points, (key_point(key), -1))
        found: List[int] = []
        seen = set()
        for step in range(len(points)):
            shard = points[(index + step) % len(points)][1]
            if shard not in seen:
                seen.add(shard)
                found.append(shard)
                if len(found) == count:
                    break
        return tuple(found)

    def primary(self, key: object) -> int:
        return self.replicas(key)[0]


class RangeRouter:
    """Contiguous hash ranges, one per shard.

    The 64-bit space is an equal partition over the shards in the order
    given; a key's primary is the owner of the range containing its
    point, and its further replicas own the next ranges clockwise.
    """

    def __init__(self, shard_ids: Iterable[int], replication: int = 1):
        ids = list(shard_ids)
        if not ids:
            raise ReproError("a RangeRouter needs at least one shard")
        if len(set(ids)) != len(ids):
            raise ReproError(f"duplicate shard id in {ids}")
        self.replication = replication
        count = len(ids)
        #: Range i spans [start[i], start[i+1]) and belongs to owner[i].
        self._starts: List[int] = [index * SPACE // count
                                   for index in range(count)]
        self._owners: List[int] = ids
        self.shards = frozenset(ids)
        _check_replication(replication, count)

    def replicas(self, key: object) -> Tuple[int, ...]:
        owners = self._owners
        index = bisect.bisect_right(self._starts, key_point(key)) - 1
        return tuple(owners[(index + step) % len(owners)]
                     for step in range(self.replication))

    def primary(self, key: object) -> int:
        return self.replicas(key)[0]


def _check_replication(replication: int, shards: int) -> None:
    if replication < 1:
        raise ReproError(f"replication must be >= 1, got {replication}")
    if replication > shards:
        raise ReproError(f"replication {replication} exceeds the {shards} "
                         f"shard(s) routed")


def build_router(kind: str, shard_ids: Iterable[int], replication: int = 1,
                 vnodes: int = 64):
    """The router a :class:`~repro.cluster.spec.ClusterSpec` names."""
    if kind == "hash":
        return HashRing(shard_ids, vnodes=vnodes, replication=replication)
    if kind == "range":
        return RangeRouter(shard_ids, replication=replication)
    raise ReproError(f"unknown router kind {kind!r}")
