"""Parity and plumbing tests for the array characterization kernel.

The scalar Algorithm 1 path is the oracle: every test here asserts the
array kernel (bank-level trait arrays, analytic probe folding, the
flips-vs-none bisection predicate) reproduces it *bit-exactly*, not
approximately.
"""

import pytest

from repro.bender.host import DRAMBenderHost
from repro.characterization.algorithm1 import (
    CharacterizationConfig,
    measure_row,
)
from repro.characterization.arraykernel import measure_rows_array
from repro.characterization.probecache import ProbeCache
from repro.characterization.sweeps import characterize_module
from repro.dram.kernels import EvalCounters
from repro.errors import CharacterizationError, ConfigError
from repro.exec.parity import assert_all_parity, assert_parity
from repro.validation.physics import model_digest

FAST = CharacterizationConfig(iterations=1)

#: One module per vendor plus the invulnerable outlier (H0 never flips).
PARITY_MODULES = ("H5", "M6", "S6", "H0")

#: (tras_factor, n_pr) grid: nominal latency, a mid reduction, and a deep
#: reduction; n_pr = 20 exercises the bulk Restore macro (> UNROLL_LIMIT).
PARITY_POINTS = ((1.00, 1), (0.45, 4), (0.18, 20))


def _testable_rows(host: DRAMBenderHost, count: int = 8) -> tuple[int, ...]:
    rows = [r for r in range(2, 64)
            if len(host.module.mapping.neighbors(r, 1)) == 2]
    return tuple(rows[:count])


class TestScalarParity:
    @pytest.mark.parametrize("batch_measure", (measure_rows_array,),
                             ids=("array",))
    @pytest.mark.parametrize("module_id", PARITY_MODULES)
    @pytest.mark.parametrize("temperature", (80.0, 50.0))
    def test_bit_exact_measurements(self, module_id, temperature,
                                    batch_measure):
        scalar_host = DRAMBenderHost(module_id, temperature_c=temperature)
        batch_host = DRAMBenderHost(module_id, temperature_c=temperature)
        rows = _testable_rows(scalar_host)
        nominal = scalar_host.module.timing.tRAS
        for factor, n_pr in PARITY_POINTS:
            tras = factor * nominal
            # nrh, ber, wcdp — all fields, bit-exact
            assert_all_parity(
                [measure_row(scalar_host, 1, row, tras_red_ns=tras,
                             n_pr=n_pr, config=FAST) for row in rows],
                batch_measure(batch_host, 1, rows, tras_red_ns=tras,
                              n_pr=n_pr, config=FAST),
                label=batch_measure.__name__)

    def test_batch_traits_match_per_row_traits(self, host_h5):
        fresh = DRAMBenderHost("H5")
        rows = _testable_rows(fresh)
        batch = fresh.module.bank_traits(1, rows)
        for i, row in enumerate(rows):
            assert batch.traits[i] == host_h5.module.row_population(1, row).traits
        # The registered per-row populations are views over the batch.
        for i, row in enumerate(rows):
            assert fresh.module.row_population(1, row).traits is batch.traits[i]

    @pytest.mark.parametrize("fast_kernel", ("array",))
    def test_characterize_module_kernels_identical(self, fast_kernel):
        kw = dict(tras_factors=(0.45,), n_prs=(1, 4), per_region=4, seed=11)
        assert_parity(
            lambda: characterize_module("S6", kernel="scalar", **kw).to_json(),
            lambda: characterize_module("S6", kernel=fast_kernel,
                                        **kw).to_json(),
            label=f"{fast_kernel} kernel")

    def test_same_validation_errors(self):
        host = DRAMBenderHost("H5")
        with pytest.raises(CharacterizationError, match="tras_red_ns"):
            measure_rows_array(host, 1, (3, 4), tras_red_ns=-1.0)
        with pytest.raises(CharacterizationError, match="n_pr"):
            measure_rows_array(host, 1, (3, 4), n_pr=0)
        with pytest.raises(CharacterizationError, match="physical neighbors"):
            measure_rows_array(host, 1, (3, 0))  # row 0 sits at the bank edge

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ConfigError, match="device kernel"):
            characterize_module("S6", tras_factors=(0.45,), per_region=2,
                                kernel="warp-drive")


class TestEvalCounters:
    def test_fast_path_model_work_is_bounded(self):
        """CI smoke bound: the array kernel performs a fixed, small number
        of model evaluations per measured row-point (counter-based, so it
        cannot flake on machine speed)."""
        host = DRAMBenderHost("H5")
        rows = _testable_rows(host)
        counters = EvalCounters()
        measure_rows_array(host, 1, rows, tras_red_ns=0.45 * 33.0, n_pr=4,
                           config=FAST, counters=counters)
        # One hc_high probe per pattern plus its retention component; the
        # bisection itself evaluates no flip values.
        patterns = len(FAST.patterns)
        assert counters.evals_per_row_point(len(rows), 1) == patterns + 1
        assert counters.probe_batches == patterns + 1


class TestProbeCache:
    def test_scalar_cache_returns_same_values(self, host_h5):
        cache = ProbeCache()
        kwargs = dict(tras_red_ns=0.45 * 33.0, n_pr=2, config=FAST)
        uncached = measure_row(host_h5, 1, 5, **kwargs)
        warm = measure_row(host_h5, 1, 5, cache=cache, **kwargs)
        hot = measure_row(host_h5, 1, 5, cache=cache, **kwargs)
        assert uncached == warm == hot
        assert cache.hits > 0

    def test_lru_eviction_is_bounded(self):
        cache = ProbeCache(maxsize=4)
        cache.ensure("digest-a")
        for i in range(6):
            cache.put(("key", i), i)
        assert len(cache) == 4
        assert cache.get(("key", 0)) is None  # oldest entries evicted
        assert cache.get(("key", 5)) == 5

    def test_calibration_drift_invalidates(self):
        cache = ProbeCache()
        cache.ensure("digest-a")
        cache.put(("probe", 1), 42)
        assert cache.get(("probe", 1)) == 42
        cache.ensure("digest-a")  # same digest: entries survive
        assert len(cache) == 1
        misses_before = cache.misses
        cache.ensure("digest-b")  # drift: everything dropped
        assert len(cache) == 0
        assert cache.invalidations == 1
        assert cache.get(("probe", 1)) is None
        assert cache.misses == misses_before + 1

    def test_measure_row_rebinds_stale_cache(self, host_h5):
        cache = ProbeCache()
        cache.ensure("stale-digest")
        cache.put(("poison",), 999)
        measure_row(host_h5, 1, 5, tras_red_ns=33.0, config=FAST, cache=cache)
        expected = model_digest(host_h5.module.spec.module_id,
                                host_h5.module.seed)
        assert cache.digest == expected
        assert cache.invalidations == 1
        assert ("poison",) not in [k for k in cache._entries]

    def test_bad_maxsize_rejected(self):
        with pytest.raises(ValueError):
            ProbeCache(maxsize=0)
