"""The rebalancer: minimal data-movement plans for membership changes.

The router answers "where does this key live *now*"; the rebalancer
answers "which replicas must copy what" when a shard joins or leaves.
It diffs the replica sets of a concrete key population across the
membership change and pairs every lost replica with a gained one, so a
plan is exactly the background copy traffic a deployment would run —
and its size is the movement-minimality witness the property tests
check: no key moves unless its replica set actually involves the added
or removed shard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from repro.errors import ReproError


@dataclass(frozen=True)
class Move:
    """Copy *key*'s replica from *source* to *dest* (source may be -1
    when a key gains a replica without losing one, e.g. R grew into the
    new shard; dest may be -1 for a pure drop)."""

    key: object
    source: int
    dest: int


@dataclass
class RebalancePlan:
    """Everything a membership change moves, for one key population."""

    kind: str                       # "add" | "remove"
    shard_id: int
    moves: List[Move] = field(default_factory=list)
    #: Keys whose replica set was untouched (the majority, if the
    #: router is any good).
    unmoved: int = 0

    @property
    def moved_keys(self) -> Tuple[object, ...]:
        seen: List[object] = []
        last = object()
        for move in self.moves:
            if move.key != last:
                seen.append(move.key)
                last = move.key
        return tuple(seen)

    def moved_fraction(self) -> float:
        total = len(self.moved_keys) + self.unmoved
        return len(self.moved_keys) / total if total else 0.0


class Rebalancer:
    """Plans (and applies to the router) shard add/remove.

    The router mutates in place — after ``add_shard`` returns, new
    traffic already routes to the grown fleet; the returned plan is the
    background copy work that makes the data match the routing.  The
    cluster runner executes plans offline (between runs); a live system
    would drain them from a queue.
    """

    def __init__(self, router):
        self.router = router

    def _diff(self, kind: str, shard_id: int,
              before: Dict[object, Tuple[int, ...]]) -> RebalancePlan:
        plan = RebalancePlan(kind=kind, shard_id=shard_id)
        for key, old in before.items():
            new = self.router.replicas(key)
            if new == old:
                plan.unmoved += 1
                continue
            lost = [shard for shard in old if shard not in new]
            gained = [shard for shard in new if shard not in old]
            for index in range(max(len(lost), len(gained))):
                plan.moves.append(Move(
                    key=key,
                    source=lost[index] if index < len(lost) else -1,
                    dest=gained[index] if index < len(gained) else -1))
        return plan

    def add_shard(self, shard_id: int,
                  keys: Iterable[object]) -> RebalancePlan:
        """Grow the fleet by *shard_id*; plan the copies for *keys*."""
        before = {key: self.router.replicas(key) for key in keys}
        self.router.add_shard(shard_id)
        return self._diff("add", shard_id, before)

    def remove_shard(self, shard_id: int,
                     keys: Iterable[object]) -> RebalancePlan:
        """Retire *shard_id*; plan the re-replication for *keys*.

        The plan's sources are surviving replicas wherever one exists —
        a retired-then-unreachable shard must not be the only copy
        source — so a move's ``source`` is the removed shard only when
        it held the sole replica (impossible for replication >= 2).
        """
        before = {key: self.router.replicas(key) for key in keys}
        self.router.remove_shard(shard_id)
        plan = self._diff("remove", shard_id, before)
        # Prefer surviving sources: any move sourced at the removed
        # shard re-points to a surviving replica of the same key.
        survivors: Dict[object, List[int]] = {
            key: [shard for shard in old if shard != shard_id]
            for key, old in before.items()}
        for index, move in enumerate(plan.moves):
            if move.source == shard_id and survivors[move.key]:
                plan.moves[index] = Move(key=move.key,
                                         source=survivors[move.key][0],
                                         dest=move.dest)
        return plan


def assert_minimal(plan: RebalancePlan,
                   before: Dict[object, Tuple[int, ...]],
                   after: Dict[object, Tuple[int, ...]]) -> None:
    """Raise :class:`ReproError` unless *plan* is movement-minimal:
    every moved key's change involves the added/removed shard itself.

    Called by the property tests, so "the
    rebalancer moves only the minimal key range" is an executable claim
    rather than a docstring.
    """
    for key in plan.moved_keys:
        old, new = set(before[key]), set(after[key])
        if plan.kind == "add" and plan.shard_id not in new:
            raise ReproError(
                f"non-minimal rebalance: key {key!r} moved "
                f"({sorted(old)} -> {sorted(new)}) without gaining "
                f"shard {plan.shard_id}")
        if plan.kind == "remove" and plan.shard_id not in old:
            raise ReproError(
                f"non-minimal rebalance: key {key!r} moved "
                f"({sorted(old)} -> {sorted(new)}) but never lived on "
                f"shard {plan.shard_id}")
