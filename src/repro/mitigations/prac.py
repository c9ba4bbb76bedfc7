"""PRAC: Per-Row Activation Counting (JESD79-5C, 2024).

The DRAM chip keeps an activation counter inside every row and updates it
during precharge, which lengthens the row cycle (modeled as a constant
per-activation bank-time penalty).  When a row's counter crosses the
back-off threshold, the chip asserts the back-off signal; the controller
responds with an RFM, letting the chip refresh that row's victims.  PRAC's
fine-grained tracking triggers far fewer preventive refreshes than RFM, at
the cost of in-DRAM counter storage and the extended timing.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence

from repro.errors import ConfigError
from repro.mitigations.base import (
    EPOCH_BULK_MIN,
    Action,
    MitigationMechanism,
    RfmCommand,
    first_occurrence_counts,
    pack_keys,
)

#: Back-off threshold as a fraction of N_RH (guard band for the blast
#: radius and for activations in flight while the back-off is serviced).
BACKOFF_FRACTION = 0.4
#: Extra bank-busy time per activation for the in-precharge counter update.
ACT_PENALTY_NS = 6.0


class PRAC(MitigationMechanism):
    """Per-row activation counters in DRAM with back-off RFMs."""

    name = "PRAC"
    act_penalty_ns = ACT_PENALTY_NS
    #: Per-row counters ignore activation times; the kernel can skip
    #: buffering the time column.
    epoch_needs_times = False

    def __init__(self, nrh: int, *,
                 backoff_fraction: float = BACKOFF_FRACTION) -> None:
        super().__init__(nrh)
        if not 0.0 < backoff_fraction <= 1.0:
            raise ConfigError("backoff fraction must be in (0, 1]")
        self.threshold = max(1, int(nrh * backoff_fraction))
        self._counts: dict[tuple[int, int], int] = defaultdict(int)
        #: Largest per-row counter, maintained so ``epoch_credit`` is
        #: O(1): ``threshold - 1 - max`` activations cannot reach the
        #: back-off threshold on any row.  Recomputed after a trigger
        #: resets the (previous maximum) row's counter.
        self._max_count = 0

    def on_activation(self, flat_bank: int, row: int,
                      now_ns: float) -> Sequence[Action]:
        self.counters.activations_observed += 1
        counts = self._counts
        key = (flat_bank, row)
        count = counts[key] + 1
        if count < self.threshold:
            counts[key] = count
            if count > self._max_count:
                self._max_count = count
            return []
        counts[key] = 0
        self._max_count = max(counts.values(), default=0)
        self.counters.triggers += 1
        return [RfmCommand(flat_bank, is_backoff=True)]

    def epoch_credit(self) -> int:
        credit = self.threshold - 1 - self._max_count
        return credit if credit > 0 else 0

    def on_activation_epoch(
        self, flat_banks: Sequence[int] | None, rows: Sequence[int] | None,
        times: Sequence[float] | None, count: int | None = None,
    ) -> tuple[tuple[int, ...], list[Action]]:
        n = count if count is not None else len(flat_banks)
        if n > self.epoch_credit():
            return super().on_activation_epoch(flat_banks, rows, times,
                                               count)
        self.counters.activations_observed += n
        if n >= EPOCH_BULK_MIN:
            keys, occ = first_occurrence_counts(pack_keys(flat_banks, rows))
            pairs = [((key >> 32, key & 0xFFFFFFFF), c)
                     for key, c in zip(keys, occ)]
        else:
            # Small epochs: direct increments, no aggregation round trip.
            pairs = (((flat_bank, row), 1)
                     for flat_bank, row in zip(flat_banks, rows))
        counts = self._counts
        maximum = self._max_count
        for key, occurrences in pairs:
            value = counts[key] + occurrences
            counts[key] = value
            if value > maximum:
                maximum = value
        self._max_count = maximum
        return (), []

    def on_refresh_window(self, now_ns: float) -> None:
        """Counters of refreshed rows reset over the refresh window."""
        self._counts.clear()
        self._max_count = 0

    def area_mm2(self, banks: int) -> float:
        """Counters live in DRAM mats; controller-side cost is negligible."""
        return 5e-4
