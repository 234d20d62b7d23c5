"""Wear and media-failure model.

Bad-media management is an Open-Channel SSD responsibility (§2.2): each
die counts its blocks' erases, a block that exceeds its endurance fails,
and blocks may *grow* bad stochastically; the controller retires the chunk
on a failed block.  The model is deterministic for a
given seed so experiments are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.nand.celltype import CellType

_ENDURANCE = {
    CellType.SLC: 100_000,
    CellType.MLC: 10_000,
    CellType.TLC: 3_000,
    CellType.QLC: 1_000,
}


@dataclass
class WearModel:
    """Decides when a block wears out or fails spontaneously.

    ``grown_fail_prob`` is the per-erase probability that an otherwise
    healthy block develops an unrecoverable defect; real devices quote
    figures in the 1e-4..1e-6 range.  Set it to 0 for failure-free runs.
    """

    cell: CellType = CellType.TLC
    endurance: int = 0
    grown_fail_prob: float = 0.0
    seed: int = 0
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.endurance <= 0:
            self.endurance = _ENDURANCE[self.cell]
        if not 0.0 <= self.grown_fail_prob <= 1.0:
            raise ValueError(
                f"grown_fail_prob must be in [0, 1], got {self.grown_fail_prob}")
        self._rng = random.Random(self.seed)

    def erase_fails(self, erase_count: int) -> bool:
        """Whether an erase bringing the block to *erase_count* cycles fails.

        A failure is a grown bad block: the controller retires its chunk.
        """
        if erase_count > self.endurance:
            return True
        if self.grown_fail_prob and self._rng.random() < self.grown_fail_prob:
            return True
        return False

    def read_error_prob(self, erase_count: int) -> float:
        """Probability that a page read at this wear level is uncorrectable.

        Grows quadratically towards 1e-3 at end of life; negligible when
        fresh.  :meth:`read_fails` draws against it on every media read.
        """
        fraction = min(1.0, erase_count / self.endurance)
        return 1e-3 * fraction * fraction

    def read_fails(self, erase_count: int) -> bool:
        prob = self.read_error_prob(erase_count)
        return bool(prob) and self._rng.random() < prob
