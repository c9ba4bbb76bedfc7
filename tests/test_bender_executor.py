"""Tests for the program executor."""

import pytest

from repro.bender.executor import ProgramExecutor
from repro.bender.host import DRAMBenderHost
from repro.bender.isa import WriteRow
from repro.bender.program import TestProgram
from repro.characterization.algorithm1 import perform_rh
from repro.dram.disturbance import DataPattern
from repro.dram.module import DRAMModule
from repro.errors import ConfigError, ProgramError
from repro.units import MS

#: (tras_factor, n_pr) probe points: nominal latency, a mid reduction, and
#: a deep reduction; n_pr = 20 exercises the bulk Restore macro
#: (> UNROLL_LIMIT).
PROBE_POINTS = ((1.00, 1), (0.45, 4), (0.18, 20))


@pytest.fixture()
def module() -> DRAMModule:
    return DRAMModule("H5", seed=11)


@pytest.fixture()
def executor(module) -> ProgramExecutor:
    return ProgramExecutor(module)


class TestProtocolInvariants:
    def test_act_to_open_bank_rejected(self, executor):
        program = TestProgram().act(0, 1).act(0, 2)
        with pytest.raises(ProgramError, match="open bank"):
            executor.execute(program)

    def test_pre_on_closed_bank_rejected(self, executor):
        program = TestProgram().pre(0)
        with pytest.raises(ProgramError, match="closed bank"):
            executor.execute(program)

    def test_program_must_close_banks(self, executor):
        program = TestProgram().act(0, 1)
        with pytest.raises(ProgramError, match="still open"):
            executor.execute(program)

    def test_read_requires_precharged_bank(self, executor):
        program = TestProgram()
        program.instructions.append(WriteRow(0, 1, DataPattern.ROW_STRIPE))
        program.act(0, 2).check_bitflips(0, 1, key="x")
        with pytest.raises(ProgramError, match="precharged"):
            executor.execute(program)


class TestExecution:
    def test_clock_resets_per_program(self, executor, module):
        program = TestProgram().act(0, 1).pre(0)
        executor.execute(program)
        first_end = module.clock_ns
        executor.execute(program)
        assert module.clock_ns == pytest.approx(first_end)

    def test_act_pre_applies_reduced_tras(self, executor, module):
        program = TestProgram()
        program.init_rows(0, 5, (), DataPattern.ROW_STRIPE)
        program.act(0, 5, wait_ns=12.0).pre(0)
        executor.execute(program)
        assert module.row_state(0, 5).restore_factor == pytest.approx(12 / 33)

    def test_duration_reported(self, executor):
        program = TestProgram().sleep(1000.0)
        result = executor.execute(program)
        assert result.duration_ns == pytest.approx(1000.0)

    def test_sleep_until_noop_when_past(self, executor):
        program = TestProgram().sleep(2000.0).sleep_until(1000.0)
        result = executor.execute(program)
        assert result.duration_ns == pytest.approx(2000.0)

    def test_bitflips_recorded_by_key(self, executor):
        program = TestProgram()
        program.init_rows(0, 5, (), DataPattern.ROW_STRIPE)
        program.check_bitflips(0, 5, key="victim")
        result = executor.execute(program)
        assert result.flips("victim") == 0

    def test_full_hammer_program(self, executor, module):
        victim = 100
        aggressors = module.mapping.neighbors(victim, 1)
        program = TestProgram()
        program.init_rows(0, victim, aggressors, DataPattern.ROW_STRIPE)
        program.hammer_doublesided(0, aggressors, 100_000)
        program.sleep_until(64 * MS)
        program.check_bitflips(0, victim, key="victim")
        result = executor.execute(program)
        assert result.flips("victim") > 0
        assert result.duration_ns >= 64 * MS


class TestCompiledExecutor:
    @pytest.mark.parametrize("module_id", ("H5", "M6", "S6"))
    def test_probe_parity_with_stepping(self, module_id):
        stepping = DRAMBenderHost(module_id, kernel="stepping")
        compiled = DRAMBenderHost(module_id, kernel="compiled")
        nominal = stepping.module.timing.tRAS
        for factor, n_pr in PROBE_POINTS:
            for hc in (0, 1_000, 100_000):
                args = (1, 20, DataPattern.ROW_STRIPE, hc,
                        factor * nominal, n_pr)
                assert (perform_rh(stepping, *args)
                        == perform_rh(compiled, *args))
        assert stepping.module.clock_ns == compiled.module.clock_ns

    def test_protocol_errors_preserved(self):
        host = DRAMBenderHost("H5", kernel="compiled")
        program = host.new_program().act(0, 5).act(0, 6)
        with pytest.raises(ProgramError, match=r"\[1\] ACT to open bank 0"):
            host.run(program)
        program = host.new_program().pre(0)
        with pytest.raises(ProgramError, match=r"\[0\] PRE on closed bank 0"):
            host.run(program)
        program = host.new_program().act(0, 5)
        with pytest.raises(ProgramError, match="still open"):
            host.run(program)

    def test_unknown_host_kernel_rejected(self):
        with pytest.raises(ConfigError, match="host kernel"):
            DRAMBenderHost("H5", kernel="quantum")


class TestExecutionResultFlips:
    def test_missing_key_raises_program_error(self, host_h5):
        program = host_h5.new_program()
        program.init_rows(1, 5, (4, 6), DataPattern.ROW_STRIPE)
        program.check_bitflips(1, 5, key="victim")
        result = host_h5.run(program)
        with pytest.raises(ProgramError, match="no bitflip count recorded"):
            result.flips("victm")  # typo'd key
        with pytest.raises(ProgramError, match="recorded keys: victim"):
            result.flips("aggressor")

    def test_empty_result_names_no_keys(self):
        from repro.bender.executor import ExecutionResult
        with pytest.raises(ProgramError, match="<none>"):
            ExecutionResult().flips("anything")
