"""Vectorized bank-level device-model kernels (the characterization fast path).

The scalar model (:mod:`repro.dram.cell_array`) evaluates one row at a time;
characterizing a bank calls it millions of times with the same
``(factor, n_pr, temperature, pattern)`` arguments and only the per-row
traits varying.  This module holds the struct-of-arrays form of that
evaluation: :class:`BankTraits` samples a whole batch of rows' traits (using
each row's *own* seed-tree generator, so the draws are bit-identical to the
per-row path) and evaluates the flip physics over row vectors.

Bit-exactness contract
----------------------
The vectorized kernels must produce *bit-identical* results to the scalar
path — the scalar path is the parity oracle (see
``tests/test_characterization_array.py``).  Two rules keep that true:

* every elementwise arithmetic step replicates the scalar expression's
  exact operation order and parenthesization (IEEE-754 ``+ - * /`` are
  exactly rounded, so elementwise numpy float64 arithmetic matches Python
  float arithmetic bit-for-bit when the operation sequence matches);
* transcendentals (``log``, ``erf``) are *not* vectorized — numpy's SIMD
  implementations may differ from ``math``'s by ULPs — and instead run in
  masked scalar loops over only the rows that actually flip, sharing
  ``math.log`` / :func:`repro.dram.cell_array._phi` with the scalar path.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from repro.dram.catalog import ModuleSpec
from repro.dram.cell_array import (
    _BER_BIAS_GAIN,
    _CELL_SIGMA,
    _MEDIAN_CELL_MULTIPLIER,
    RowTraits,
    _phi,
    draw_traits,
)
from repro.dram.charge import ChargeModel
from repro.dram.disturbance import DataPattern
from repro.errors import ConfigError
from repro.rng import SeedTree
from repro.units import MS


@dataclass
class EvalCounters:
    """Device-model evaluation counters for the array kernel.

    ``model_evals`` counts per-row physics evaluations actually performed
    (a probe over ``k`` active rows adds ``k``); ``probe_batches`` counts
    vectorized probe calls.  The CI smoke test bounds ``model_evals`` per
    measured row — a counter, not a wall clock, so it cannot flake.
    """

    model_evals: int = 0
    probe_batches: int = 0

    def evals_per_row_point(self, rows: int, points: int) -> float:
        """Average model evaluations per (row, test-point) pair."""
        total = max(1, rows * points)
        return self.model_evals / total


class BankTraits:
    """Struct-of-arrays view of many rows' traits in one bank.

    Trait values are sampled through each row's dedicated generator stream
    (``seeds.generator("row", bank, row)``) — the same draws, in the same
    order, as :class:`repro.dram.cell_array.RowPopulation` — and then laid
    out as contiguous float64 arrays for vectorized evaluation.  The
    original :class:`RowTraits` objects are kept so per-row views
    (``RowPopulation``) can be built without resampling.
    """

    def __init__(self, spec: ModuleSpec, charge: ChargeModel, bank: int,
                 rows: tuple[int, ...], traits: list[RowTraits]) -> None:
        if len(rows) != len(traits):
            raise ConfigError("rows/traits length mismatch")
        self.spec = spec
        self.charge = charge
        self.bank = bank
        self.rows = rows
        self.traits = traits
        self.index = {row: i for i, row in enumerate(rows)}
        self.cells = spec.row_bits()
        self._sigma = _CELL_SIGMA[spec.manufacturer]
        self._ber_gain = _BER_BIAS_GAIN[spec.manufacturer]
        self.base_nrh = np.array([t.base_nrh for t in traits], dtype=np.float64)
        self.sensitivity = np.array([t.sensitivity for t in traits],
                                    dtype=np.float64)
        self.sensitive_extra_drop = np.array(
            [t.sensitive_extra_drop for t in traits], dtype=np.float64)
        self.retention_strength = np.array(
            [t.retention_strength for t in traits], dtype=np.float64)
        self.worst_effectiveness = np.array(
            [t.worst_effectiveness for t in traits], dtype=np.float64)
        self.halfdouble_draw = np.array(
            [t.halfdouble_draw for t in traits], dtype=np.float64)
        patterns = traits[0].pattern_effectiveness.keys() if traits else ()
        self.pattern_effectiveness = {
            pattern: np.array([t.pattern_effectiveness[pattern]
                               for t in traits], dtype=np.float64)
            for pattern in patterns
        }

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def sample(cls, spec: ModuleSpec, charge: ChargeModel, bank: int,
               rows: tuple[int, ...], seeds: SeedTree,
               existing: dict[int, RowTraits] | None = None) -> "BankTraits":
        """Sample traits for ``rows``, reusing already-sampled traits.

        ``existing`` maps row -> traits the module already instantiated
        through the per-row path; reusing them keeps one source of truth
        (and the draws are identical either way).
        """
        traits: list[RowTraits] = []
        for row in rows:
            t = existing.get(row) if existing else None
            if t is None:
                t = draw_traits(seeds.generator("row", bank, row), spec)
            traits.append(t)
        return cls(spec, charge, bank, tuple(rows), traits)

    def __len__(self) -> int:
        return len(self.rows)

    # ------------------------------------------------------------------
    # vectorized physics (see module docstring for the parity contract)
    # ------------------------------------------------------------------
    def _all_idx(self) -> np.ndarray:
        return np.arange(len(self.rows))

    def nrh_ratio(self, factor: float, n_pr: int = 1,
                  temperature_c: float = 80.0,
                  idx: np.ndarray | None = None) -> np.ndarray:
        """Vector form of :meth:`RowPopulation.nrh_ratio` over ``idx``."""
        if idx is None:
            idx = self._all_idx()
        # Module-level curve: scalar per call, memoized in ChargeModel.
        module_ratio = self.charge.nrh_ratio(factor, n_pr, temperature_c)
        sens = self.sensitivity[idx]
        drop = sens * (1.0 - min(module_ratio, 1.0))
        if factor < 1.0:
            # Rows with sensitive_extra_drop == 0 add an exact +0.0 here,
            # which IEEE-754 guarantees leaves `drop` unchanged.
            drop = drop + self.sensitive_extra_drop[idx] * (1.0 - factor) / 0.55
        if module_ratio >= 1.0:
            ratio = np.full(len(idx), module_ratio, dtype=np.float64)
        else:
            ratio = 1.0 - drop
        ratio = np.maximum(ratio, 0.02)
        minimum = self.spec.nominal_nrh
        base = self.base_nrh[idx]
        if minimum:
            finite = np.isfinite(base)
            if finite.any():
                floor = 0.98 * minimum * max(module_ratio, 0.02) / base
                ratio = np.where(finite, np.maximum(ratio, floor), ratio)
        return ratio

    def effective_nrh(self, factor: float = 1.0, n_pr: int = 1,
                      temperature_c: float = 80.0,
                      pattern: DataPattern | None = None,
                      idx: np.ndarray | None = None) -> np.ndarray:
        """Vector form of :meth:`RowPopulation.effective_nrh`."""
        if idx is None:
            idx = self._all_idx()
        ratio = self.nrh_ratio(factor, n_pr, temperature_c, idx)
        base = self.base_nrh[idx]
        if pattern is None:
            return base * ratio / 1.0
        worst = self.worst_effectiveness[idx]
        if (worst <= 0).any():
            raise ConfigError("non-positive pattern effectiveness")
        kappa = self.pattern_effectiveness[pattern][idx] / worst
        return base * ratio / kappa

    def hammer_flips(self, equivalent: np.ndarray, *, factor: float = 1.0,
                     n_pr: int = 1, temperature_c: float = 80.0,
                     pattern: DataPattern | None = None,
                     idx: np.ndarray | None = None) -> np.ndarray:
        """Vector form of :meth:`RowPopulation.hammer_flips`.

        ``equivalent`` is the per-aggressor double-sided dose
        (``dose.effective() / 2.0``) per row of ``idx``.
        """
        if idx is None:
            idx = self._all_idx()
        nrh = self.effective_nrh(factor, n_pr, temperature_c, pattern, idx)
        flips = np.zeros(len(idx), dtype=np.int64)
        active = np.isfinite(nrh) & (equivalent >= nrh)
        if active.any():
            sigma = self._sigma
            bias = self._ber_bias(factor)
            cells = self.cells
            for j in np.nonzero(active)[0]:
                z = (math.log(equivalent[j])
                     - math.log(_MEDIAN_CELL_MULTIPLIER * nrh[j]))
                z /= sigma
                z += bias
                count = int(cells * _phi(z))
                flips[j] = max(count, 1)
        return flips

    def retention_fails(self, *, factor: float = 1.0, n_pr: int = 1,
                        wait_ns: np.ndarray,
                        temperature_c: float = 80.0,
                        idx: np.ndarray | None = None) -> np.ndarray:
        """Which rows of ``idx`` lose retention after idling ``wait_ns``.

        The boolean predicate underneath :meth:`retention_flips` — pure
        vector arithmetic (no transcendentals), so the array kernel's
        bisection can test flips-vs-none without evaluating flip counts.
        ``retention_flips(...) > 0`` equals this exactly.
        """
        if idx is None:
            idx = self._all_idx()
        charge = self.charge
        factor = charge._clamp_factor(factor)
        strength = self.retention_strength[idx]
        margin = 1.0 if factor >= 1.0 else charge._retention_margin(factor, n_pr)
        capability = (charge._retention.weakest_row_retention_ns * strength
                      * margin / charge._temperature_retention_scale(temperature_c))
        wait = np.asarray(wait_ns, dtype=np.float64)
        if factor >= 1.0:
            return capability < wait
        limit = charge.npcr_limit(factor)
        if n_pr > limit:
            return strength <= charge._overrun_survivor_strength(n_pr, limit)
        capability = np.maximum(capability, 64 * MS * 1.02 * strength)
        return capability < wait

    def retention_flips(self, *, factor: float = 1.0, n_pr: int = 1,
                        wait_ns: np.ndarray,
                        temperature_c: float = 80.0,
                        idx: np.ndarray | None = None) -> np.ndarray:
        """Vector form of :meth:`RowPopulation.retention_flips`."""
        if idx is None:
            idx = self._all_idx()
        fails = self.retention_fails(factor=factor, n_pr=n_pr,
                                     wait_ns=wait_ns,
                                     temperature_c=temperature_c, idx=idx)
        wait = np.asarray(wait_ns, dtype=np.float64)
        flips = np.zeros(len(idx), dtype=np.int64)
        if fails.any():
            for j in np.nonzero(fails)[0]:
                severity = max(1.0, wait[j] / (64 * MS))
                flips[j] = max(1, int(1 + 2 * math.log(severity + 1.0)))
        return flips

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _ber_bias(self, factor: float) -> float:
        safe = self.charge.profile.safe_tras_factor_ber
        return self._ber_gain * max(0.0, safe - factor)
