"""Hydra: hybrid row tracking (Qureshi et al., ISCA 2022).

Hydra tracks activation counts in three tiers: a small SRAM Group Count
Table (GCT) shared by groups of rows, a Row Count Cache (RCC) of recently
hot rows, and a full Row Count Table (RCT) **stored in DRAM**.  Most benign
rows never leave the group tier; rows in hot groups fall back to per-row
counts, and RCC misses cost real DRAM traffic — which is why the paper
observes that Hydra spends the *least* time on preventive refreshes yet
still slows the system down by occupying the memory channel with metadata
accesses (§3).
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence

import numpy as np

from repro.errors import ConfigError, SimulationError
from repro.mitigations.base import (
    _NO_ACTIONS,
    EPOCH_BULK_MIN,
    Action,
    MetadataAccess,
    MitigationMechanism,
    PreventiveRefresh,
    first_occurrence_counts,
    pack_keys,
)

#: Rows per group counter.
GROUP_SIZE = 128
#: Row Count Cache capacity (entries across all banks).
RCC_ENTRIES = 4096
#: Group-tier threshold as a fraction of N_RH: below it, a whole group's
#: activity is provably safe; above it, per-row tracking kicks in.
GROUP_FRACTION = 0.4
#: Per-row preventive-refresh threshold as a fraction of N_RH.
ROW_FRACTION = 0.5


class Hydra(MitigationMechanism):
    """Hybrid group/row activation tracking with DRAM-resident counters.

    Every tier is keyed by one packed integer: the GCT by
    ``(flat_bank << 32) | group``, the RCC and RCT by
    ``(flat_bank << 32) | row``, so the tables need no system geometry.
    """

    name = "Hydra"
    #: Group-counter updates never look at activation times.
    epoch_needs_times = False

    def __init__(self, nrh: int, *, group_size: int = GROUP_SIZE,
                 rcc_entries: int = RCC_ENTRIES) -> None:
        super().__init__(nrh)
        if group_size <= 0 or rcc_entries <= 0:
            raise ConfigError("group size and RCC capacity must be positive")
        self.group_size = group_size
        self.rcc_entries = rcc_entries
        self.group_threshold = max(1, int(nrh * GROUP_FRACTION))
        self.row_threshold = max(1, int(nrh * ROW_FRACTION))
        #: GCT: packed (bank, group) -> activations this window.
        self._gct: dict[int, int] = {}
        #: Largest GCT entry since the last window reset.  While it is
        #: below ``group_threshold`` no group is hot, every activation
        #: stays in the pure-counting tier, and ``group_threshold - max``
        #: activations are provably action-free (the epoch credit).  Once
        #: any group goes hot the RCC/RCT tiers are order-dependent
        #: (LRU eviction, metadata traffic), so the credit drops to 0 and
        #: Hydra steps scalar until the window resets the counters.
        self._gct_max = 0
        #: RCC: LRU cache of packed (bank, row) -> count.
        self._rcc: OrderedDict[int, int] = OrderedDict()
        #: RCT shadow: the in-DRAM table contents (reads/writes modeled as
        #: MetadataAccess traffic; values kept here for correctness).
        self._rct: dict[int, int] = {}

    def on_activation(self, flat_bank: int, row: int,
                      now_ns: float) -> Sequence[Action]:
        self.counters.activations_observed += 1
        gct = self._gct
        group_key = (flat_bank << 32) | row // self.group_size
        value = gct.get(group_key, 0)
        if value < self.group_threshold:
            value += 1
            gct[group_key] = value
            if value > self._gct_max:
                self._gct_max = value
            return _NO_ACTIONS
        # Hot group: per-row tracking through the RCC, RCT in DRAM behind it.
        actions: list[Action] = []
        rcc = self._rcc
        row_key = (flat_bank << 32) | row
        if row_key in rcc:
            rcc.move_to_end(row_key)
            count = rcc[row_key] + 1
        else:
            # RCC miss: fetch the row's counter from the in-DRAM RCT.
            actions.append(MetadataAccess(flat_bank, reads=1))
            count = self._rct.get(row_key, self.group_threshold) + 1
            if len(rcc) >= self.rcc_entries:
                evicted_key, evicted_count = rcc.popitem(last=False)
                self._rct[evicted_key] = evicted_count
                actions.append(MetadataAccess(evicted_key >> 32, writes=1))
        if count >= self.row_threshold:
            self.counters.triggers += 1
            actions.append(PreventiveRefresh(flat_bank, row))
            count = 0
        rcc[row_key] = count
        return actions

    def on_refresh_window(self, now_ns: float) -> None:
        """All counters reset once per refresh window."""
        self._gct.clear()
        self._gct_max = 0
        self._rcc.clear()
        self._rct.clear()

    def epoch_credit(self) -> int:
        credit = self.group_threshold - self._gct_max
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
        group_size = self.group_size
        if n >= EPOCH_BULK_MIN:
            groups = np.asarray(rows, dtype=np.int64) // group_size
            pairs = zip(*first_occurrence_counts(
                pack_keys(flat_banks, groups)))
        else:
            # Small epochs: direct increments, no aggregation round trip.
            pairs = (((flat_bank << 32) | row // group_size, 1)
                     for flat_bank, row in zip(flat_banks, rows))
        gct = self._gct
        maximum = self._gct_max
        for group_key, occurrences in pairs:
            value = gct.get(group_key, 0) + occurrences
            gct[group_key] = value
            if value > maximum:
                maximum = value
        if maximum > self.group_threshold:  # pragma: no cover - credit guard
            raise SimulationError(
                "Hydra epoch pushed a group past its threshold inside a "
                "credit-guaranteed batch")
        self._gct_max = maximum
        return (), []

    def area_mm2(self, banks: int) -> float:
        """GCT + RCC SRAM; the RCT lives in DRAM (Hydra's selling point:
        ~28 KB of SRAM regardless of N_RH)."""
        gct_bits = 32 * 1024 * 16  # fixed-size group table
        rcc_bits = self.rcc_entries * (24 + 16)
        return (gct_bits + rcc_bits) * 0.25e-6  # ~0.25 um^2 per SRAM bit
