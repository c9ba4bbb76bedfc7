"""Scalar vs. array characterization kernels.

Two grids, two contracts each:

* **Parity grid** (small): both device kernels produce bit-identical
  :meth:`~repro.characterization.results.ModuleCharacterization.to_json`
  output, and the array kernel is at least 10x faster than the scalar
  oracle.
* **Scaling grid** (larger, the five reduced tRAS factors x three
  restoration counts, single-hammer bisection resolution): the array
  kernel is at least 100x faster than the scalar oracle — the array
  kernel replaces the per-probe model evaluations of the bisection with
  whole-bank trait sampling and analytic flips-vs-none predicates, so its
  advantage grows with the number of test points per row.

Throughput (row-points per second) and the array kernel's
model-evaluation counters land in
``bench_results/characterization_scaling.txt`` and
``bench_results/characterization_array_tier.txt``.
"""

import time

from bench_util import run_once, save_result

from repro.characterization.algorithm1 import CharacterizationConfig
from repro.characterization.sweeps import characterize_module
from repro.dram.kernels import EvalCounters

#: One vendor module, three latency points (nominal is always added),
#: 3 x 128 sampled rows — small enough for CI, large enough that the
#: array kernel's fixed setup cost is amortized.
_GRID = dict(tras_factors=(0.45, 0.27), n_prs=(1,), per_region=128, seed=7)
#: The scaling grid multiplies out the test points per row (6 latency
#: factors x 3 restoration counts) and tightens the HC_first bisection
#: to single-hammer resolution: the scalar oracle runs a probe program
#: per bisection step, the array kernel evaluates no model values there.
_SCALING_GRID = dict(tras_factors=(0.81, 0.64, 0.45, 0.36, 0.27),
                     n_prs=(1, 2, 4), per_region=96, seed=7,
                     config=CharacterizationConfig(iterations=1, hc_step=1))
_MODULE = "H5"
_PARITY_FLOOR = 10.0
_SCALING_FLOOR = 100.0


def _timed(kernel, grid, counters=None):
    started = time.perf_counter()
    result = characterize_module(_MODULE, kernel=kernel, counters=counters,
                                 **grid)
    return result, time.perf_counter() - started


def _run_parity_grid():
    scalar, scalar_s = _timed("scalar", _GRID)
    counters = EvalCounters()
    array, array_s = _timed("array", _GRID, counters)
    return scalar, scalar_s, array, array_s, counters


def bench_characterization_scaling(benchmark):
    scalar, scalar_s, array, array_s, counters = \
        run_once(benchmark, _run_parity_grid)
    # Parity first: a fast path that changes results is not a fast path.
    assert scalar.to_json() == array.to_json()
    points = len(scalar.measurements)
    rows = len({m.row for m in scalar.measurements})
    speedup = scalar_s / array_s if array_s > 0 else float("inf")
    text = (
        f"grid: {_MODULE}, {rows} rows, {points} row-points\n"
        f"scalar kernel:     {scalar_s:.2f}s  "
        f"({points / scalar_s:.0f} row-points/s)\n"
        f"array kernel:      {array_s:.2f}s  "
        f"({points / array_s:.0f} row-points/s)\n"
        f"speedup (array/scalar): {speedup:.1f}x\n"
        f"array model evals/row-point: "
        f"{counters.evals_per_row_point(1, points):.1f}")
    save_result("characterization_scaling", text)
    assert speedup >= _PARITY_FLOOR, f"array kernel only {speedup:.1f}x faster"


def _run_scaling_grid():
    # One scalar run (it takes seconds, so noise is a small share of it);
    # best-of-two for the array kernel, which finishes this grid in well
    # under a second, so one noisy run could distort the ratio.
    scalar, scalar_s = _timed("scalar", _SCALING_GRID)
    array_s = float("inf")
    for _ in range(2):
        array, elapsed = _timed("array", _SCALING_GRID)
        array_s = min(array_s, elapsed)
    return scalar, scalar_s, array, array_s


def bench_characterization_array_tier(benchmark):
    scalar, scalar_s, array, array_s = run_once(benchmark, _run_scaling_grid)
    assert scalar.to_json() == array.to_json()
    points = len(scalar.measurements)
    speedup = scalar_s / array_s if array_s > 0 else float("inf")
    text = (
        f"scaling grid: {_MODULE}, {points} row-points\n"
        f"scalar kernel:     {scalar_s:.2f}s  "
        f"({points / scalar_s:.0f} row-points/s)\n"
        f"array kernel:      {array_s:.2f}s  "
        f"({points / array_s:.0f} row-points/s)\n"
        f"speedup (array/scalar): {speedup:.1f}x")
    save_result("characterization_array_tier", text)
    assert speedup >= _SCALING_FLOOR, f"array kernel only {speedup:.1f}x faster"
