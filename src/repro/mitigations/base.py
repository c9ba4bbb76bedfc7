"""Plugin interface between the memory controller and RowHammer mitigations.

The controller calls :meth:`MitigationMechanism.on_activation` for every row
activation it performs; the mechanism returns a (possibly empty) sequence of
actions — preventive refreshes, RFM commands, or metadata traffic — which
the controller executes, asking the refresh-latency policy (PaCRAM or the
nominal default) for the charge-restoration latency of every preventive
refresh it schedules.

Batch (epoch) dispatch
----------------------

The array simulation tier additionally drives mechanisms through a batch
protocol so the dominant no-action path never enters Python per
activation:

* :meth:`MitigationMechanism.epoch_credit` returns how many upcoming
  activations — of *any* addresses — are guaranteed to produce no actions
  given the mechanism's current state (0 = no guarantee; conservative
  answers only cost speed, never correctness).
* The kernel buffers that many activations without calling the mechanism,
  then hands the whole run to
  :meth:`MitigationMechanism.on_activation_epoch` in one call; the next
  (boundary) activation is processed through the ordinary scalar
  :meth:`on_activation`, so every decision that *can* produce an action is
  made by exactly the code the scalar oracle runs, in the same order, on
  the same state and rng stream.

The default :meth:`on_activation_epoch` replays the epoch through
:meth:`on_activation` sequentially — bit-identical by construction — and
is also what offline callers (e.g. the epoch-parity fuzzers) use as the
reference.  Vectorized overrides must preserve the exact counter values,
dict insertion orders, and rng consumption of the sequential replay.

Each mechanism is one class serving both drain loops: the scalar loop
calls :meth:`~MitigationMechanism.on_activation` for every activation,
the array loop calls it only at epoch boundaries.  The table-based
mechanisms key their counters by one packed ``(flat_bank << 32) | x``
integer (:func:`pack_keys`) and merge a credited epoch's activations in
first-occurrence order (:func:`first_occurrence_counts`), so their
tables grow on demand and need no system geometry.
"""

from __future__ import annotations

import abc
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from repro.errors import ConfigError, SimulationError

#: Blast radius of 2: a preventive refresh covers the four rows within
#: +/- 2 rows of the aggressor (§9.1, accounting for Half-Double).
BLAST_RADIUS = 2
BLAST_ROWS = 2 * BLAST_RADIUS

#: Epoch size below which vectorized on_activation_epoch overrides update
#: their counters with direct dict increments instead of the
#: ``np.unique`` aggregation.  Measured crossover: the numpy round trip
#: (two asarray calls, unique, stable argsort, tolist) costs ~15-25us
#: regardless of epoch size, while direct increments run ~80ns each —
#: aggregation only wins once epochs pass a couple hundred activations
#: *and* keys repeat enough for the collapse to pay for itself.
EPOCH_BULK_MIN = 192


@dataclass(frozen=True)
class PreventiveRefresh:
    """Refresh victims of ``aggressor_row`` at the given physical offsets.

    The default offsets cover the full +/- 2 blast radius; probabilistic
    mechanisms may refresh a subset per trigger (e.g. one side at a time).
    """

    flat_bank: int
    aggressor_row: int
    victim_offsets: tuple[int, ...] = (-2, -1, 1, 2)

    @property
    def victim_count(self) -> int:
        return len(self.victim_offsets)


@dataclass(frozen=True)
class RfmCommand:
    """A refresh-management command: the DRAM refreshes victims internally,
    blocking the bank while it does so."""

    flat_bank: int
    victim_rows: int = BLAST_ROWS
    is_backoff: bool = False  #: True when DRAM-initiated (PRAC back-off)


@dataclass(frozen=True)
class MetadataAccess:
    """Extra DRAM traffic for mitigation metadata (Hydra's RCT in DRAM)."""

    flat_bank: int
    reads: int = 0
    writes: int = 0


Action = PreventiveRefresh | RfmCommand | MetadataAccess

#: Shared do-nothing result for the (dominant) no-action path: one list
#: allocation per activation adds up over million-activation sweeps.
#: A tuple, not a list: the instance is shared across every activation of
#: every mechanism in the process, so a caller that mutated it (e.g.
#: ``actions.append(...)`` on a "fresh" result) would silently replay the
#: appended action on all later activations.  Callers only iterate /
#: truth-test action sequences; the tuple makes mutation a hard error.
_NO_ACTIONS: tuple[Action, ...] = ()


def pack_keys(flat_banks: Sequence[int], values) -> np.ndarray:
    """``(flat_bank << 32) | value`` per activation, as one int64 array.

    The same packing the table-based mechanisms use for their scalar dict
    keys; ``values`` (rows, or row groups) must stay below ``2**32``.
    """
    return ((np.asarray(flat_banks, dtype=np.int64) << 32)
            | np.asarray(values, dtype=np.int64))


def first_occurrence_counts(keys) -> tuple[list[int], list[int]]:
    """Distinct ``keys`` and their multiplicities, in first-occurrence order.

    Merging an epoch in this order inserts new keys into a counter dict
    exactly where the sequential replay would, so the dict is literally
    the one per-activation dispatch builds (insertion order and all), not
    just value-equal — Misra-Gries substitution, for one, breaks ties by
    insertion order.
    """
    uniq, first, occ = np.unique(np.asarray(keys, dtype=np.int64),
                                 return_index=True, return_counts=True)
    order = np.argsort(first, kind="stable")
    return uniq[order].tolist(), occ[order].tolist()


@dataclass
class MitigationCounters:
    """Bookkeeping every mechanism shares (exposed for tests/analysis)."""

    activations_observed: int = 0
    triggers: int = 0


class MitigationMechanism(abc.ABC):
    """Base class for preventive-refresh RowHammer mitigations."""

    name: str = "abstract"
    #: Extra per-activation bank-time cost (PRAC's extended row cycle for
    #: in-DRAM counter updates); zero for controller-side mechanisms.
    act_penalty_ns: float = 0.0
    #: Whether :meth:`on_activation_epoch` needs the per-activation trace
    #: columns.  Mechanisms whose epoch decisions depend only on the
    #: activation *count* (NoMitigation, PARA's Bernoulli stream) set this
    #: False so the kernel can skip buffering addresses entirely.
    epoch_needs_trace: bool = True
    #: Finer-grained column opt-outs, honored when ``epoch_needs_trace``
    #: is True: a mechanism whose epoch update ignores row addresses
    #: (bank-granular RFM) or activation times (all the table-based
    #: counters) clears the matching flag, and the kernel skips buffering
    #: that column — one fewer list append per activation on the hot
    #: path.  Clearing a flag is a declaration that :meth:`on_activation`
    #: never reads the corresponding argument, so the sequential-replay
    #: fallback may substitute placeholders without changing behavior.
    epoch_needs_rows: bool = True
    epoch_needs_times: bool = True
    #: True for mechanisms that guarantee a bounded hammer count per victim
    #: (exact counters like Graphene).  Probabilistic mechanisms (PARA) leave
    #: this False so observers don't flag their expected statistical misses.
    deterministic_coverage: bool = False

    def __init__(self, nrh: int) -> None:
        if nrh <= 0:
            raise ConfigError(f"N_RH must be positive, got {nrh}")
        self.nrh = nrh
        self.counters = MitigationCounters()

    @abc.abstractmethod
    def on_activation(self, flat_bank: int, row: int,
                      now_ns: float) -> Sequence[Action]:
        """Observe one row activation; return preventive actions to execute."""

    def epoch_credit(self) -> int:
        """Upcoming activations (any addresses) guaranteed action-free.

        The array kernel buffers this many activations without calling
        :meth:`on_activation`, then flushes them through
        :meth:`on_activation_epoch` in one call and takes the *next*
        activation through the scalar step.  Returning 0 (the default)
        disables batching; under-promising is always safe.
        """
        return 0

    def on_activation_epoch(
        self, flat_banks: Sequence[int] | None, rows: Sequence[int] | None,
        times: Sequence[float] | None, count: int | None = None,
    ) -> tuple[tuple[int, ...], list[Action]]:
        """Observe a run of activations in one call.

        Returns ``(trigger_indices, actions)``: the epoch-relative indices
        of activations that produced actions, and the concatenated actions
        in activation order.  The base implementation replays the epoch
        through :meth:`on_activation` sequentially, so it is bit-identical
        to per-activation dispatch by construction.  Mechanisms that set
        ``epoch_needs_trace = False`` are called with ``None`` columns and
        an explicit ``count``; all other callers pass real columns (and
        may omit ``count``, which then defaults to ``len(flat_banks)``).
        """
        if flat_banks is None:
            raise SimulationError(
                f"{type(self).__name__}.on_activation_epoch needs the "
                "activation trace columns; a mechanism that declares "
                "epoch_needs_trace=False must override it with a "
                "count-only implementation")
        if rows is None:
            if self.epoch_needs_rows:
                raise SimulationError(
                    f"{type(self).__name__}.on_activation_epoch needs the "
                    "row column (epoch_needs_rows is set)")
            rows = repeat(0)
        if times is None:
            if self.epoch_needs_times:
                raise SimulationError(
                    f"{type(self).__name__}.on_activation_epoch needs the "
                    "time column (epoch_needs_times is set)")
            times = repeat(0.0)
        triggers: list[int] = []
        actions: list[Action] = []
        on_activation = self.on_activation
        for index, (flat_bank, row, now_ns) in enumerate(
                zip(flat_banks, rows, times)):
            acts = on_activation(flat_bank, row, now_ns)
            if acts:
                triggers.append(index)
                actions.extend(acts)
        return tuple(triggers), actions

    def on_refresh_window(self, now_ns: float) -> None:
        """Called once per refresh window (tREFW): reset windowed state."""

    def area_mm2(self, banks: int) -> float:
        """Mechanism SRAM/CAM area for a system with ``banks`` DRAM banks."""
        return 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(nrh={self.nrh})"


class NoMitigation(MitigationMechanism):
    """The paper's 'No mitigation' baseline configuration."""

    name = "None"
    epoch_needs_trace = False

    def __init__(self, nrh: int = 1) -> None:
        super().__init__(nrh=max(nrh, 1))

    def on_activation(self, flat_bank: int, row: int,
                      now_ns: float) -> Sequence[Action]:
        self.counters.activations_observed += 1
        return []

    def epoch_credit(self) -> int:
        """Never acts: baseline runs batch whole refresh windows at once."""
        return 1 << 30

    def on_activation_epoch(
        self, flat_banks: Sequence[int] | None, rows: Sequence[int] | None,
        times: Sequence[float] | None, count: int | None = None,
    ) -> tuple[tuple[int, ...], list[Action]]:
        n = count if count is not None else len(flat_banks)
        self.counters.activations_observed += n
        return (), []
