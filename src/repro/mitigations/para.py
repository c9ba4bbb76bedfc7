"""PARA: Probabilistic Adjacent Row Activation (Kim et al., ISCA 2014).

On every row activation, with a small probability the memory controller
refreshes neighbors of the activated row.  PARA keeps essentially no state
(near-zero area) but, because its trigger is blind, it issues many
unnecessary preventive refreshes — the canonical *high-performance-overhead,
low-area-overhead* mitigation.

Probability scaling: each trigger refreshes one side (two rows, covering the
+/- 2 blast radius on that side); the per-activation probability is
``PARA_STRENGTH / N_RH``, which bounds the chance that an aggressor reaches
``N_RH`` activations with an unrefreshed victim to
``exp(-PARA_STRENGTH / 2)`` per side — the knob the original paper exposes
as its failure-probability target.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import SimulationError
from repro.mitigations.base import (
    _NO_ACTIONS,
    Action,
    MitigationMechanism,
    PreventiveRefresh,
)

#: Expected preventively-refreshed rows per N_RH activations (per side x2).
PARA_STRENGTH = 5.5
#: Uniform draws fetched per refill of PARA's draw buffer.
DRAW_BLOCK = 4096


class PARA(MitigationMechanism):
    """Probabilistic preventive refresh of adjacent rows.

    Randomness is drawn in blocks of ``DRAW_BLOCK``: NumPy's Generator
    produces the identical stream for ``rng.random(n)`` and ``n``
    successive ``rng.random()`` calls, so the trigger decisions (and the
    side-selection draws interleaved with them) are exactly those of one
    ``random()`` per activation plus one per trigger.  The pre-drawn block
    also makes :meth:`epoch_credit` exact: the distance to the next draw
    below the trigger probability.
    """

    name = "PARA"
    #: Epoch decisions depend only on the activation count.
    epoch_needs_trace = False

    def __init__(self, nrh: int, *, strength: float = PARA_STRENGTH,
                 seed: int = 1) -> None:
        super().__init__(nrh)
        self.probability = min(1.0, strength / nrh)
        self._rng = np.random.default_rng(seed)
        self._buffer: list[float] = []
        self._buffer_pos = 0
        self._buffer_len = 0
        #: Positions within the current block whose draw is below the
        #: trigger probability, ascending; consumed through
        #: ``_trigger_i``.  ``epoch_credit`` reads the next one to know
        #: exactly how many upcoming draws are non-triggers.
        self._trigger_positions: list[int] = []
        self._trigger_i = 0

    def _refill(self) -> None:
        """Fetch the next ``DRAW_BLOCK`` draws (the one refill site).

        The block is converted to Python floats once per refill: float64
        -> float is exact, and both the indexing and the comparison in
        ``on_activation`` then skip the numpy scalar machinery.  The
        trigger-position index is computed from the same block — no extra
        rng consumption — so the stream stays one draw per activation
        plus one per trigger.
        """
        block = self._rng.random(DRAW_BLOCK)
        self._buffer = block.tolist()
        self._buffer_len = DRAW_BLOCK
        self._buffer_pos = 0
        self._trigger_positions = np.nonzero(
            block < self.probability)[0].tolist()
        self._trigger_i = 0

    def on_activation(self, flat_bank: int, row: int,
                      now_ns: float) -> Sequence[Action]:
        self.counters.activations_observed += 1
        pos = self._buffer_pos
        if pos >= self._buffer_len:
            self._refill()
            pos = 0
        self._buffer_pos = pos + 1
        if self._buffer[pos] >= self.probability:
            return _NO_ACTIONS
        self.counters.triggers += 1
        pos = self._buffer_pos
        if pos >= self._buffer_len:
            self._refill()
            pos = 0
        self._buffer_pos = pos + 1
        side = (1, 2) if self._buffer[pos] < 0.5 else (-1, -2)
        return [PreventiveRefresh(flat_bank, row, victim_offsets=side)]

    def epoch_credit(self) -> int:
        pos = self._buffer_pos
        if pos >= self._buffer_len:
            # Drawing the next block early leaves the stream unchanged:
            # the buffer is consumed in order either way.
            self._refill()
            pos = 0
        trigs = self._trigger_positions
        i = self._trigger_i
        n = len(trigs)
        # Side-selection draws consumed on triggers may themselves sit at
        # "trigger" positions; skip any already behind the cursor.
        while i < n and trigs[i] < pos:
            i += 1
        self._trigger_i = i
        if i < n:
            return trigs[i] - pos
        return self._buffer_len - pos

    def on_activation_epoch(
        self, flat_banks: Sequence[int] | None, rows: Sequence[int] | None,
        times: Sequence[float] | None, count: int | None = None,
    ) -> tuple[tuple[int, ...], list[Action]]:
        n = count if count is not None else len(flat_banks)
        pos = self._buffer_pos
        end = pos + n
        trigs = self._trigger_positions
        i = self._trigger_i
        while i < len(trigs) and trigs[i] < pos:
            i += 1
        self._trigger_i = i
        if end > self._buffer_len or (i < len(trigs) and trigs[i] < end):
            # Epoch exceeds the credited trigger-free run: replay it.
            if flat_banks is None:
                raise SimulationError(
                    "PARA epoch exceeds its credited trigger-free run and "
                    "no trace columns were provided to replay it")
            return super().on_activation_epoch(flat_banks, rows, times,
                                               count)
        self.counters.activations_observed += n
        self._buffer_pos = end
        return (), []

    def area_mm2(self, banks: int) -> float:
        """PARA stores only an LFSR: negligible area (§3's 'almost zero')."""
        return 1e-4
