"""RFM: DDR5 Refresh Management (JESD79-5).

The memory controller counts activations per bank (the Rolling Accumulated
ACT counter, RAA); when the count reaches the RAA Initial Management
Threshold (RAAIMT) it issues an RFM command, during which the DRAM chip
internally refreshes victim rows.  Because the counter is bank-granular —
thousands of rows share it, with no notion of row-level locality — RFM
triggers on aggregate traffic and issues many RFM commands under benign
workloads (§2.2), making it the second canonical high-performance-overhead
mitigation.
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
)

#: RAAIMT as a fraction of N_RH.  With a blast radius of 2 and bank-granular
#: counting, the threshold must stay well below N_RH so that no single row
#: can accumulate N_RH activations between managed refreshes.
RAAIMT_DIVISOR = 8


class RFM(MitigationMechanism):
    """Per-bank rolling activation counting with refresh-management commands."""

    name = "RFM"
    #: Bank-granular: the RAA counters never look at row addresses or
    #: activation times, so the kernel need not buffer either column.
    epoch_needs_rows = False
    epoch_needs_times = False

    def __init__(self, nrh: int, *, raaimt: int | None = None) -> None:
        super().__init__(nrh)
        self.raaimt = raaimt if raaimt is not None else max(1, nrh // RAAIMT_DIVISOR)
        if self.raaimt <= 0:
            raise ConfigError("RAAIMT must be positive")
        self._raa: dict[int, int] = defaultdict(int)
        #: Largest RAA counter, maintained so ``epoch_credit`` is O(1):
        #: ``raaimt - 1 - max`` activations cannot reach the threshold on
        #: any bank.  Recomputed exactly after a trigger resets a counter.
        self._raa_max = 0

    def on_activation(self, flat_bank: int, row: int,
                      now_ns: float) -> Sequence[Action]:
        self.counters.activations_observed += 1
        raa = self._raa
        count = raa[flat_bank] + 1
        if count < self.raaimt:
            raa[flat_bank] = count
            if count > self._raa_max:
                self._raa_max = count
            return []
        raa[flat_bank] = 0
        self._raa_max = max(raa.values(), default=0)
        self.counters.triggers += 1
        return [RfmCommand(flat_bank)]

    def epoch_credit(self) -> int:
        credit = self.raaimt - 1 - self._raa_max
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
            pairs = zip(*first_occurrence_counts(flat_banks))
        else:
            # Small epochs: direct increments, no aggregation round trip.
            pairs = ((flat_bank, 1) for flat_bank in flat_banks)
        raa = self._raa
        maximum = self._raa_max
        for flat_bank, occurrences in pairs:
            value = raa[flat_bank] + occurrences
            raa[flat_bank] = value
            if value > maximum:
                maximum = value
        self._raa_max = maximum
        return (), []

    def on_refresh_window(self, now_ns: float) -> None:
        """Periodic refresh resets the rolling accumulated counts."""
        self._raa.clear()
        self._raa_max = 0

    def area_mm2(self, banks: int) -> float:
        """One RAA counter per bank: negligible (§3's 'almost zero')."""
        return 2e-4 * banks / 32
