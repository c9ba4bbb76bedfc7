"""Tests of the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import stats
from tracing import Span, self_times
from workload import Checks

CONTRACT = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


class TestPercentileRule:
    def test_thirty_modules_give_p66(self):
        # p66 leaves 10 of 30 samples beyond it; p67 would leave 9.
        assert stats.tail_percent(30) == 66
        assert stats.beyond(30, 66) == 10
        assert stats.beyond(30, 67) == 9

    def test_grid_of_240_points_gives_p95(self):
        assert stats.tail_percent(240) == 95
        assert stats.beyond(240, 95) >= stats.TAIL_MIN_BEYOND
        assert stats.beyond(240, 96) < stats.TAIL_MIN_BEYOND

    def test_too_few_samples_have_no_tail(self):
        assert stats.tail_percent(19) is None
        assert stats.tail_percent(20) == 50
        assert set(stats.summarize([1.0] * 19)) == {"n", "p50"}

    def test_summary_reports_sample_count(self):
        values = [float(v) for v in range(1, 31)]
        summary = stats.summarize(values)
        assert summary["n"] == 30
        assert summary["p50"] == 15.5
        assert summary["p66"] == 20.0  # nearest rank: 20 of 30 at or below
        assert sum(v > summary["p66"] for v in values) == 10

    def test_no_samples(self):
        assert stats.summarize([]) == {"n": 0}
        with pytest.raises(ValueError):
            stats.nearest_rank([], 50)


class TestMetricNames:
    @pytest.mark.parametrize("name", ["wall_s", "sim.run_s.PARA",
                                      "service.figure_ms.fig17", "9lives",
                                      "a" * 64])
    def test_accepted(self, name):
        assert stats.check_metric_name(name) == name

    @pytest.mark.parametrize("name", ["", "_wall", ".x", "wall s", "a/b",
                                      "läuft", "a" * 65, "x\n"])
    def test_rejected(self, name):
        with pytest.raises(ValueError):
            stats.check_metric_name(name)

    def test_contract_names_are_legal_and_unique(self):
        names = [entry["name"] for key in ("workloads", "end_to_end",
                                           "per_layer")
                 for entry in CONTRACT[key]]
        for name in names:
            stats.check_metric_name(name)
        for key in ("workloads", "end_to_end", "per_layer"):
            section = [entry["name"] for entry in CONTRACT[key]]
            assert len(section) == len(set(section)), key


class TestDigestCheck:
    def test_single_flipped_byte_is_rejected(self):
        data = bytes(range(256)) * 40
        files = {"H0.json": data, "M2.json": b"{}"}
        pinned = {"campaign.results": stats.digest_files(files)}
        assert stats.compare_digests(
            {"campaign.results": stats.digest_files(files)}, pinned) == []
        for position in (0, len(data) // 2, len(data) - 1):
            flipped = bytearray(data)
            flipped[position] ^= 0x01
            observed = {"campaign.results": stats.digest_files(
                {"H0.json": bytes(flipped), "M2.json": b"{}"})}
            assert stats.compare_digests(observed, pinned) == [
                "campaign.results"]

    def test_renamed_file_is_rejected(self):
        files = {"H0.json": b"x"}
        assert stats.digest_files(files) != stats.digest_files(
            {"H1.json": b"x"})

    def test_missing_digest_is_rejected(self):
        assert stats.compare_digests({}, {"sweep.rows": "ab"}) == [
            "sweep.rows"]


class TestFailRatio:
    def test_check_mismatch_counts_as_failure(self):
        checks = Checks()
        checks.expect(True, "fine")
        checks.expect(False, "service: results changed between fetches")
        assert checks.mismatches == [
            "service: results changed between fetches"]
        ratio = stats.fail_ratio(checks.attempted, checks.failed_tasks,
                                 checks.verb_errors, len(checks.mismatches))
        assert ratio == 0.5

    def test_components_add_up(self):
        assert stats.fail_ratio(100, 1, 2, 3) == pytest.approx(0.06)
        assert stats.fail_ratio(5, 0, 0, 0) == 0.0

    def test_nothing_attempted_is_an_error(self):
        with pytest.raises(ValueError):
            stats.fail_ratio(0, 0, 0, 0)

    def test_failed_tasks_from_a_run_report(self):
        checks = Checks()
        checks.tasks({"tasks": 30, "counts": {"failed": 1,
                                              "quarantined": 0}})
        assert (checks.attempted, checks.failed_tasks) == (31, 1)
        assert checks.mismatches == []


class TestSelfTimes:
    def test_nested_spans_partition_the_wall(self):
        spans = [Span("runtime.run", 0, 100), Span("sim.run", 10, 40),
                 Span("persist.write", 40, 50), Span("sim.run", 60, 90)]
        owned, remainder = self_times(spans, 0, 120)
        assert owned == {"runtime.run": 30e-9, "sim.run": 60e-9,
                         "persist.write": 10e-9}
        assert remainder == pytest.approx(20e-9)

    def test_overlapping_threads_go_to_the_latest_start(self):
        spans = [Span("service.results", 0, 100),
                 Span("wire.send", 50, 70)]
        owned, remainder = self_times(spans, 0, 100)
        assert owned == {"service.results": 80e-9, "wire.send": 20e-9}
        assert remainder == 0

    def test_spans_outside_the_window_are_clipped(self):
        owned, remainder = self_times([Span("results.load", -50, 30)], 0, 40)
        assert owned == {"results.load": 30e-9}
        assert remainder == pytest.approx(10e-9)
