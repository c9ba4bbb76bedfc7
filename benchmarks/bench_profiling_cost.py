"""§10 profiling overhead: 80 s batches, 127 KB/s, 68.8 minutes per bank.

The paper's numbers describe profiling a real bank with DRAM Bender; the
second block projects what characterizing a full simulated bank costs on
this machine with each device kernel, so the fast path's effect on
campaign planning is visible next to the paper's hardware figure.
"""

import time

import pytest

from bench_util import run_once, save_result

from repro.characterization.sweeps import characterize_module
from repro.core.profiling import profiling_cost
from repro.dram.module import DRAMModule

#: A small single-point grid, just enough to measure per-kernel throughput.
_GRID = dict(tras_factors=(0.45,), n_prs=(1,), per_region=48, seed=7)


def _measure() -> tuple:
    cost = profiling_cost()
    started = time.perf_counter()
    scalar = characterize_module("H5", kernel="scalar", **_GRID)
    scalar_s = time.perf_counter() - started
    started = time.perf_counter()
    array = characterize_module("H5", kernel="array", **_GRID)
    array_s = time.perf_counter() - started
    assert scalar.to_json() == array.to_json()
    points = len(scalar.measurements)
    return cost, points / scalar_s, points / array_s


def bench_profiling(benchmark):
    cost, scalar_rps, array_rps = run_once(benchmark, _measure)
    rows_per_bank = DRAMModule("H5").geometry.rows_per_bank
    scalar_min = rows_per_bank / scalar_rps / 60.0
    array_min = rows_per_bank / array_rps / 60.0
    text = (f"batch: {cost.batch_seconds:.1f} s\n"
            f"throughput: {cost.throughput_bytes_per_s / 1024:.1f} KB/s\n"
            f"bank: {cost.bank_minutes:.1f} min\n"
            f"blocked: {cost.blocked_bytes / 2**20:.2f} MiB\n"
            f"simulated platform, full bank ({rows_per_bank} rows) at one "
            f"test point on this machine:\n"
            f"  scalar kernel: {scalar_rps:.0f} row-points/s "
            f"(~{scalar_min:.1f} min/bank)\n"
            f"  array kernel:  {array_rps:.0f} row-points/s "
            f"(~{array_min:.1f} min/bank)")
    save_result("profiling_cost", text)
    assert cost.batch_seconds == pytest.approx(80.0)
    assert cost.throughput_bytes_per_s == pytest.approx(127 * 1024, rel=0.01)
    assert cost.bank_minutes == pytest.approx(68.8, abs=0.1)
    # The fast path must actually drop the projected bank-characterization
    # time on the simulated platform.
    assert array_min < scalar_min
