"""Graphene: Misra-Gries frequent-row tracking (Park et al., MICRO 2020).

Graphene keeps, per bank, a Misra-Gries summary (CAM of row address +
counter pairs plus a spillover counter) sized so that *any* row reaching the
refresh threshold within a refresh window is guaranteed to be present in the
table.  Detection is exact, so Graphene issues the fewest unnecessary
preventive refreshes and has the lowest performance overhead — but its table
size grows as ``N_RH`` shrinks, reaching 10.38 mm^2 (4.45 % of a Xeon) at
``N_RH = 32`` (§3): the canonical *high-area-overhead* mitigation.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import repeat

import math

from repro.errors import ConfigError, SimulationError
from repro.mitigations.base import (
    _NO_ACTIONS,
    EPOCH_BULK_MIN,
    Action,
    MitigationMechanism,
    PreventiveRefresh,
    first_occurrence_counts,
    pack_keys,
)

#: Preventive-refresh threshold as a fraction of N_RH (blast radius 2 means
#: a victim accumulates disturbance from two aggressor rows on each side).
THRESHOLD_FRACTION = 0.25
#: Activations possible in one refresh window per bank (tREFW / tRC).
ACTS_PER_WINDOW = 688_000


class _BankTable:
    """One bank's Misra-Gries summary (space-saving variant)."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.counts: dict[int, int] = {}
        self.spillover = 0

    def observe(self, row: int) -> int:
        """Record one activation of ``row``; returns its estimated count."""
        if row in self.counts:
            self.counts[row] += 1
            return self.counts[row]
        if len(self.counts) < self.capacity:
            self.counts[row] = self.spillover + 1
            return self.counts[row]
        self.spillover += 1
        minimum_row = min(self.counts, key=self.counts.__getitem__)
        if self.spillover > self.counts[minimum_row]:
            # Replace the minimum entry (space-saving substitution).
            value = self.counts.pop(minimum_row)
            self.counts[row] = value + 1
            return self.counts[row]
        return self.spillover

    def reset_row(self, row: int) -> None:
        if row in self.counts:
            self.counts[row] = self.spillover

    def clear(self) -> None:
        self.counts.clear()
        self.spillover = 0


class Graphene(MitigationMechanism):
    """Exact-guarantee aggressor tracking with per-bank Misra-Gries tables.

    The tables live in a flat list indexed by flat bank id, grown on
    demand.  For epoch dispatch Graphene also tracks, per bank, the
    largest count ``observe`` has returned since the last window reset (an
    upper bound on any row's next-activation base, including the
    spillover floor new rows inherit): ``threshold - 1 - max``
    activations are then provably action-free, and a whole epoch of them
    merges into the tables as ``counts[row] += occurrences`` /
    ``counts[row] = spillover + occurrences`` — the exact values the
    sequential replay would leave, inserted in first-occurrence order so
    dict iteration (and therefore any later space-saving substitution) is
    unaffected.  The credit is further capped by every table's capacity
    headroom, since capacity events (substitutions) are order-dependent.
    """

    name = "Graphene"
    #: Exact Misra-Gries detection bounds every victim's hammer count, so
    #: observers may hold Graphene to a deterministic coverage guarantee.
    deterministic_coverage = True
    #: Misra-Gries counting never looks at activation times.
    epoch_needs_times = False

    def __init__(self, nrh: int, *, acts_per_window: int = ACTS_PER_WINDOW) -> None:
        super().__init__(nrh)
        if acts_per_window <= 0:
            raise ConfigError("acts_per_window must be positive")
        self.threshold = max(1, int(nrh * THRESHOLD_FRACTION))
        #: Misra-Gries guarantee: W/T entries catch every row with count > T.
        self.entries_per_bank = math.ceil(acts_per_window / self.threshold)
        self._tables: list[_BankTable | None] = []
        self._bank_max: list[int] = []
        #: max(self._bank_max), maintained incrementally so epoch_credit
        #: is O(1); recomputed from the per-bank maxima only on the
        #: (rare) trigger path.
        self._global_max = 0
        #: Lower bound on every table's remaining entry capacity.  Only
        #: lowered on insertions (never restored when reset_row frees an
        #: entry) — a conservative bound that keeps epoch_credit O(1)
        #: while still guaranteeing no capacity event (order-dependent
        #: Misra-Gries substitution) can occur inside a credited epoch.
        self._min_room = self.entries_per_bank

    def _rescan_bank_max(self, flat_bank: int) -> None:
        table = self._tables[flat_bank]
        maximum = table.spillover
        for value in table.counts.values():
            if value > maximum:
                maximum = value
        self._bank_max[flat_bank] = maximum
        self._global_max = max(self._bank_max)

    def on_activation(self, flat_bank: int, row: int,
                      now_ns: float) -> Sequence[Action]:
        self.counters.activations_observed += 1
        tables = self._tables
        if flat_bank >= len(tables):
            grow = flat_bank + 1 - len(tables)
            tables.extend([None] * grow)
            self._bank_max.extend([0] * grow)
        table = tables[flat_bank]
        if table is None:
            table = _BankTable(self.entries_per_bank)
            tables[flat_bank] = table
        count = table.observe(row)
        if count < self.threshold:
            if count > self._bank_max[flat_bank]:
                self._bank_max[flat_bank] = count
                if count > self._global_max:
                    self._global_max = count
            room = self.entries_per_bank - len(table.counts)
            if room < self._min_room:
                self._min_room = room
            return _NO_ACTIONS
        table.reset_row(row)
        self._rescan_bank_max(flat_bank)
        self.counters.triggers += 1
        return [PreventiveRefresh(flat_bank, row)]

    def on_refresh_window(self, now_ns: float) -> None:
        for table in self._tables:
            if table is not None:
                table.clear()
        self._bank_max = [0] * len(self._tables)
        self._global_max = 0
        self._min_room = self.entries_per_bank

    def epoch_credit(self) -> int:
        credit = self.threshold - 1 - self._global_max
        if credit > self._min_room:
            credit = self._min_room
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
        tables = self._tables
        maxima = self._bank_max
        threshold = self.threshold
        capacity = self.entries_per_bank
        global_max = self._global_max
        touched: list[_BankTable] = []
        if n >= EPOCH_BULK_MIN:
            keys, occ = first_occurrence_counts(pack_keys(flat_banks, rows))
            pairs = [(key >> 32, key & 0xFFFFFFFF, c)
                     for key, c in zip(keys, occ)]
        else:
            # Small epochs: one direct pass beats the aggregate-then-merge
            # round trip (and np.unique's fixed cost) by a wide margin.
            pairs = zip(flat_banks, rows, repeat(1))
        for flat_bank, row, occurrences in pairs:
            if flat_bank >= len(tables):
                grow = flat_bank + 1 - len(tables)
                tables.extend([None] * grow)
                maxima.extend([0] * grow)
            table = tables[flat_bank]
            if table is None:
                table = _BankTable(capacity)
                tables[flat_bank] = table
            counts = table.counts
            current = counts.get(row)
            if current is None:
                value = table.spillover + occurrences
                touched.append(table)
            else:
                value = current + occurrences
            if value >= threshold:  # pragma: no cover - credit guard
                raise SimulationError(
                    "Graphene epoch crossed its trigger threshold inside "
                    "a credit-guaranteed batch")
            counts[row] = value
            if value > maxima[flat_bank]:
                maxima[flat_bank] = value
                if value > global_max:
                    global_max = value
        self._global_max = global_max
        # Entry counts only grow inside a credited epoch (no triggers, so
        # no reset_row), so the end-of-epoch room per touched table equals
        # the minimum the sequential replay would have seen.
        min_room = self._min_room
        for table in touched:
            room = capacity - len(table.counts)
            if room < min_room:
                min_room = room
        self._min_room = min_room
        return (), []

    def area_mm2(self, banks: int) -> float:
        """CAM + counter area; grows as 1/N_RH (the paper's 10.38 mm^2 at
        N_RH = 32 for 32 banks anchors the constant)."""
        bits_per_entry = 17 + 20  # row address CAM + counter
        total_bits = self.entries_per_bank * bits_per_entry * banks
        # CAM bit-cell area chosen so a 32-bank N_RH=32 config lands on the
        # paper's 10.38 mm^2 (4.45 % of a Xeon die).
        return total_bits * 0.102e-6
