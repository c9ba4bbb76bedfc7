"""Array-native form of Algorithm 1 (the characterization ``array`` tier).

:func:`measure_rows_array` measures a whole batch of victim rows at one
test point, producing :class:`RowMeasurement` values bit-identical to
calling :func:`repro.characterization.algorithm1.measure_row` per row (the
scalar path is the parity oracle — see
``tests/test_characterization_array.py``).  Instead of evaluating each
probe, it runs whole-batch array operations built on two facts:

* a probe's dose is an analytic function of its hammer count, folded for a
  whole vector of counts at once by
  :func:`repro.bender.compile.fold_probe_states` (the array form of the
  compiled dose fold);
* whether a probe observes *any* bitflip is a pure comparison — the hammer
  component fires iff the row's effective N_RH is finite and the dose
  reaches it, the retention component iff the row's retention capability
  is below the probe's idle wait (:meth:`BankTraits.retention_fails`) —
  and both components are monotone in the hammer count.  Algorithm 1's
  bisection only consumes this flips-vs-none predicate, so the entire
  search runs as a handful of vector compares per iteration with **zero**
  per-row model evaluations.

Flip *values* (which need the scalar-parity ``log``/``erf`` loops of
:meth:`BankTraits.hammer_flips`) are only ever needed at ``hc_high`` — the
worst-case-pattern comparison and the BER readout — so the transcendental
work drops from every bisection probe to one probe per pattern.
"""

from __future__ import annotations

import numpy as np

from repro.bender.compile import fold_probe_states
from repro.bender.host import DRAMBenderHost
from repro.characterization.algorithm1 import (
    CharacterizationConfig,
    aggressors_of,
)
from repro.characterization.results import RowMeasurement
from repro.dram.kernels import EvalCounters
from repro.errors import CharacterizationError


def measure_rows_array(host: DRAMBenderHost, bank: int, victims, *,
                       tras_red_ns: float | None = None, n_pr: int = 1,
                       config: CharacterizationConfig | None = None,
                       counters: EvalCounters | None = None,
                       ) -> list[RowMeasurement]:
    """Measure a batch of victim rows at one test point (Alg. 1, array tier).

    Bit-identical to ``[measure_row(host, bank, v, ...) for v in victims]``
    — same validation errors, same worst-case-pattern tie-breaks, same
    bisection trajectory — with the search driven by the analytic
    flips-vs-none predicate instead of per-probe model evaluations.
    ``counters.model_evals`` counts only the ``hc_high`` value
    evaluations that remain.
    """
    config = config or CharacterizationConfig()
    counters = counters if counters is not None else EvalCounters()
    module = host.module
    nominal = module.timing.tRAS
    if tras_red_ns is None:
        tras_red_ns = nominal
    if not 0 < tras_red_ns <= nominal:
        raise CharacterizationError(
            f"tras_red_ns must be in (0, {nominal}], got {tras_red_ns}")
    if n_pr < 1:
        raise CharacterizationError("n_pr must be >= 1")
    victims = tuple(victims)
    if not victims:
        return []
    for victim in victims:
        aggressors_of(host, victim)  # same error, same order as scalar path

    batch = module.bank_traits(bank, victims)
    timing = module.timing
    columns = module.geometry.columns_per_row
    temperature = module.temperature_c
    # Restoration streak state of the victim at read time (matching the
    # device model: a full-latency ACT resets the partial streak).
    factor = min(tras_red_ns / timing.tRAS, 1.0)
    factor = 1.0 if factor >= 1.0 else factor
    n_pr_eff = 1 if factor >= 1.0 else max(1, n_pr)
    n = len(victims)
    all_idx = np.arange(n, dtype=np.intp)
    patterns = config.patterns

    def probe(hc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return fold_probe_states(timing, columns, tras_red_ns, n_pr, hc)

    # Per-pattern effective thresholds, one vector each.  Elementwise, so
    # the values equal what hammer_flips computes internally per probe.
    nrh_by_pattern = np.stack([
        batch.effective_nrh(factor, n_pr_eff, temperature, pattern, all_idx)
        for pattern in patterns])

    # --- hc_high: the one probe whose flip values matter ----------------
    wait_high, eq_high = probe(np.full(n, config.hc_high, dtype=np.int64))
    retained_high = batch.retention_flips(
        factor=factor, n_pr=n_pr_eff, wait_ns=wait_high,
        temperature_c=temperature, idx=all_idx)
    best_flips = np.full(n, -1, dtype=np.int64)
    wcdp_idx = np.zeros(n, dtype=np.intp)
    for pattern_i, pattern in enumerate(patterns):
        hammered = batch.hammer_flips(
            eq_high, factor=factor, n_pr=n_pr_eff,
            temperature_c=temperature, pattern=pattern, idx=all_idx)
        # Retention flips are pattern-independent, so adding them shifts
        # every pattern's count equally and the strict-max scan (Alg. 1
        # lines 16-19, first strict maximum wins) is unchanged.
        flips = hammered + retained_high
        improved = flips > best_flips
        wcdp_idx[improved] = pattern_i
        best_flips = np.where(improved, flips, best_flips)
    counters.model_evals += (len(patterns) + 1) * n
    counters.probe_batches += len(patterns) + 1

    # BER at hc_high (line 20): the winning pattern's count is best_flips.
    cells = module.spec.row_bits()
    ber_out = [int(best_flips[i]) / cells for i in range(n)]

    # Retention pre-check at zero hammers (lines 21-24): the hammer
    # component cannot fire at dose zero (thresholds are positive), so the
    # flips>0 predicate reduces to the retention predicate.
    wait_zero, _ = probe(np.zeros(n, dtype=np.int64))
    fails_zero = batch.retention_fails(
        factor=factor, n_pr=n_pr_eff, wait_ns=wait_zero,
        temperature_c=temperature, idx=all_idx)

    nrh_out: list[int | None] = [None] * n
    for i in np.nonzero(fails_zero)[0]:
        nrh_out[i] = 0

    # Bisection (lines 25-32) over rows whose hc_high probe flipped; the
    # per-row trajectory is independent, so running every pattern group in
    # one lockstep pass reproduces the scalar per-group loops exactly.
    rows_idx = np.nonzero(~fails_zero & (best_flips > 0))[0]
    if len(rows_idx):
        threshold = nrh_by_pattern[wcdp_idx[rows_idx], rows_idx]
        finite = np.isfinite(threshold)
        low = np.full(len(rows_idx), config.hc_low, dtype=np.int64)
        high = np.full(len(rows_idx), config.hc_high, dtype=np.int64)
        nrh = np.full(len(rows_idx), config.hc_high, dtype=np.int64)
        active = (high - low) > config.hc_step
        while active.any():
            current = (high + low) // 2
            wait, equivalent = probe(current)
            flipped = (finite & (equivalent >= threshold)) \
                | batch.retention_fails(
                    factor=factor, n_pr=n_pr_eff, wait_ns=wait,
                    temperature_c=temperature, idx=rows_idx)
            up = active & ~flipped
            down = active & flipped
            low = np.where(up, current, low)
            high = np.where(down, current, high)
            nrh = np.where(down, current, nrh)
            active = (high - low) > config.hc_step
        for j, i in enumerate(rows_idx):
            nrh_out[i] = int(nrh[j])

    return [
        RowMeasurement(
            bank=bank, row=victim,
            tras_factor=tras_red_ns / nominal, n_pr=n_pr,
            temperature_c=module.temperature_c,
            wcdp=patterns[wcdp_idx[i]].short_name,
            nrh=nrh_out[i], ber=ber_out[i])
        for i, victim in enumerate(victims)
    ]
