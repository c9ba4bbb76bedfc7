"""Tests for the five RowHammer mitigation mechanisms."""

import dataclasses
import hashlib
import random

import pytest

from repro.errors import ConfigError
from repro.mitigations import MITIGATION_CLASSES, make_mitigation
from repro.mitigations.base import (
    BLAST_ROWS,
    MetadataAccess,
    NoMitigation,
    PreventiveRefresh,
    RfmCommand,
)
from repro.mitigations.graphene import Graphene, _BankTable
from repro.mitigations.hydra import Hydra
from repro.mitigations.para import DRAW_BLOCK, PARA
from repro.mitigations.prac import PRAC
from repro.mitigations.rfm import RFM

from tests.test_mitigation_epoch import ReferencePARA


class TestFactory:
    def test_all_five_plus_none(self):
        assert set(MITIGATION_CLASSES) == {
            "None", "PARA", "RFM", "PRAC", "Hydra", "Graphene"}

    def test_make_by_name(self):
        assert isinstance(make_mitigation("PARA", 1024), PARA)
        assert isinstance(make_mitigation("None", 1), NoMitigation)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_mitigation("TRR", 1024)

    def test_invalid_nrh_rejected(self):
        with pytest.raises(ConfigError):
            make_mitigation("PARA", 0)

    @pytest.mark.parametrize("name", sorted(MITIGATION_CLASSES))
    def test_fresh_mechanism_grants_epoch_credit(self, name):
        """Every mechanism built by name batches from its first activation:
        the array drain loop dispatches epochs for every caller."""
        assert make_mitigation(name, 64).epoch_credit() > 0


class TestNoMitigation:
    def test_never_acts(self):
        mech = NoMitigation()
        for i in range(1000):
            assert mech.on_activation(0, i % 7, float(i)) == []


class TestPARA:
    def test_probability_scales_inversely_with_nrh(self):
        assert PARA(32).probability > PARA(1024).probability

    def test_probability_capped_at_one(self):
        assert PARA(1).probability == 1.0

    def test_trigger_rate_matches_probability(self):
        mech = PARA(64, seed=5)
        triggers = sum(bool(mech.on_activation(0, 5, 0.0))
                       for _ in range(20_000))
        expected = mech.probability * 20_000
        assert triggers == pytest.approx(expected, rel=0.15)

    def test_refreshes_one_side(self):
        mech = PARA(2, seed=1)  # p = 1: always triggers
        actions = mech.on_activation(0, 100, 0.0)
        assert len(actions) == 1
        action = actions[0]
        assert isinstance(action, PreventiveRefresh)
        assert action.victim_offsets in ((1, 2), (-1, -2))

    def test_negligible_area(self):
        assert PARA(32).area_mm2(32) < 0.01


class TestRFM:
    def test_triggers_every_raaimt_acts(self):
        mech = RFM(64)  # RAAIMT = 8
        triggers = 0
        for i in range(80):
            if mech.on_activation(0, i, 0.0):
                triggers += 1
        assert triggers == 80 // mech.raaimt

    def test_bank_counters_independent(self):
        mech = RFM(64)
        for i in range(mech.raaimt - 1):
            assert mech.on_activation(0, i, 0.0) == []
        assert mech.on_activation(1, 0, 0.0) == []  # other bank unaffected

    def test_emits_rfm_command(self):
        mech = RFM(8, raaimt=1)
        actions = mech.on_activation(3, 7, 0.0)
        assert isinstance(actions[0], RfmCommand)
        assert actions[0].flat_bank == 3
        assert not actions[0].is_backoff

    def test_refresh_window_resets(self):
        mech = RFM(64)
        for i in range(mech.raaimt - 1):
            mech.on_activation(0, i, 0.0)
        mech.on_refresh_window(1e9)
        assert mech.on_activation(0, 0, 1e9) == []


class TestPRAC:
    def test_has_act_penalty(self):
        assert PRAC(1024).act_penalty_ns > 0

    def test_backoff_at_threshold(self):
        mech = PRAC(100)  # threshold = 40
        actions = []
        for i in range(mech.threshold):
            actions = mech.on_activation(0, 55, float(i))
        assert isinstance(actions[0], RfmCommand)
        assert actions[0].is_backoff

    def test_per_row_tracking(self):
        mech = PRAC(100)
        # Spread across rows: no single row reaches the threshold.
        for i in range(200):
            assert mech.on_activation(0, i, 0.0) == []

    def test_counter_resets_after_backoff(self):
        mech = PRAC(10)  # threshold = 4
        for i in range(mech.threshold):
            last = mech.on_activation(0, 5, 0.0)
        assert last
        for i in range(mech.threshold - 1):
            assert mech.on_activation(0, 5, 0.0) == []

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ConfigError):
            PRAC(100, backoff_fraction=0.0)


class TestHydra:
    def test_group_tier_absorbs_cold_traffic(self):
        mech = Hydra(1024)
        for i in range(mech.group_threshold - 1):
            assert mech.on_activation(0, i % 8, 0.0) == ()

    def test_hot_group_falls_to_row_tracking(self):
        mech = Hydra(64)
        actions_seen = []
        for i in range(200):
            actions_seen += mech.on_activation(0, 5, 0.0)
        refreshes = [a for a in actions_seen
                     if isinstance(a, PreventiveRefresh)]
        assert refreshes  # the hot row eventually gets refreshed

    def test_rcc_miss_costs_dram_traffic(self):
        mech = Hydra(64)
        actions = []
        for i in range(mech.group_threshold + 1):
            actions = mech.on_activation(0, 5, 0.0)
        metadata = [a for a in actions if isinstance(a, MetadataAccess)]
        assert metadata and metadata[0].reads == 1

    def test_rcc_eviction_writes_back(self):
        mech = Hydra(64, rcc_entries=2)
        # Heat one group, then touch more rows than the RCC holds.
        for _ in range(mech.group_threshold):
            mech.on_activation(0, 0, 0.0)
        writes = 0
        for row in range(1, 8):
            for _ in range(mech.group_threshold):
                for action in mech.on_activation(0, row, 0.0):
                    if isinstance(action, MetadataAccess):
                        writes += action.writes
        assert writes > 0

    def test_fixed_sram_area(self):
        # Hydra's selling point: area independent of N_RH.
        assert Hydra(32).area_mm2(32) == Hydra(1024).area_mm2(32)


class TestGraphene:
    def test_tracks_hot_row_exactly(self):
        mech = Graphene(100)  # threshold = 25
        actions = []
        for i in range(mech.threshold):
            actions = mech.on_activation(0, 42, 0.0)
        assert isinstance(actions[0], PreventiveRefresh)
        assert actions[0].aggressor_row == 42

    def test_no_false_triggers_below_threshold(self):
        mech = Graphene(1000)
        for i in range(2000):
            assert mech.on_activation(0, i % 500, 0.0) == (), i

    def test_area_grows_as_nrh_shrinks(self):
        assert Graphene(32).area_mm2(32) > Graphene(1024).area_mm2(32)

    def test_area_matches_paper_at_nrh32(self):
        # §3: 10.38 mm^2 at N_RH = 32 for a dual-rank 32-bank system.
        assert Graphene(32).area_mm2(32) == pytest.approx(10.38, rel=0.08)

    def test_misra_gries_guarantee(self):
        # Any row activated more than the threshold must be caught, no
        # matter how much other traffic there is.
        table = _BankTable(capacity=8)
        # Interleave one hot row with many cold rows.
        hot_estimate = 0
        hot_true = 0
        for i in range(400):
            table.observe(1000 + i)  # cold stream
            hot_estimate = table.observe(7)
            hot_true += 1
        assert hot_estimate >= hot_true  # overestimate, never underestimate

    def test_blast_rows_constant(self):
        assert BLAST_ROWS == 4


# ----------------------------------------------------------------------
# Golden decision pins
# ----------------------------------------------------------------------
# Each mechanism is one class serving both the per-activation drain loop
# and epoch dispatch.  Its decisions are pinned as sha256 digests of
# directed traces, recorded from the dict-table reference implementations
# (per-(bank, group) GCT dict, (bank, row) tuple RCC/RCT keys, per-bank
# Misra-Gries dict, one rng draw per activation) these classes replaced.
# A digest covers every non-empty per-activation ``on_activation`` result,
# the indices of the activations that counted a trigger, and
# ``counters.__dict__``.  A ``None`` step is a refresh-window boundary.


def _para_trace():
    """10,000 activations at p = 5.5/16 with seed 7: the rng stream spans
    four ``DRAW_BLOCK`` refills, and two trigger side draws land exactly
    on a refill boundary (draw positions 4096 and 12288)."""
    return [(i & 7, (i * 37) & 1023) for i in range(10_000)]


def _graphene_trace():
    """Three banks, 8-entry tables (acts_per_window=64 at threshold 8):
    16 cold rows per bank force space-saving substitutions at capacity
    (679 of them), three hot rows trigger and keep hammering after their
    reset_row, and a refresh window falls every 120 activations."""
    rnd = random.Random(2024)
    hot = [(0, 5), (1, 9), (2, 700)]
    steps = []
    for index in range(3000):
        if index and index % 120 == 0:
            steps.append(None)
        if rnd.random() < 0.3:
            steps.append(rnd.choice(hot))
        else:
            steps.append((rnd.randrange(3), rnd.randrange(16)))
    return steps


def _hydra_trace():
    """Hot groups in banks 0, 1 and 5 (bank 1's sits at row 100,000,
    beyond a 16-bit row space) with eight hot rows against a 4-entry RCC:
    RCC hits, RCT-fetch misses, LRU evictions with their write-back
    traffic to the evicted row's bank, triggers, and a mid-trace window
    reset, over cold background traffic."""
    rnd = random.Random(77)
    hot = ([(0, row) for row in range(4)] + [(5, 64 + row) for row in range(2)]
           + [(1, 100_000 + row) for row in range(2)])
    steps = []
    for index in range(3000):
        if index == 1500:
            steps.append(None)
        if rnd.random() < 0.6:
            steps.append(rnd.choice(hot))
        else:
            steps.append((rnd.randrange(8), rnd.randrange(1 << 16)))
    return steps


GOLDEN_CASES = {
    "PARA": (lambda: PARA(16, seed=7), _para_trace),
    "Graphene": (lambda: Graphene(32, acts_per_window=64), _graphene_trace),
    "Hydra": (lambda: Hydra(20, rcc_entries=4), _hydra_trace),
}

GOLDEN_DIGESTS = {
    "PARA": "e069a1f020c579799f17dcef0dfada5d8ee085a774316b601b05db02c51782bd",
    "Graphene": "65e61643fd51df37564831c8d1f52d430f47344cd172cfb6a270ee399b97c608",
    "Hydra": "1db3ba6f3cc555fbc66c59069ee608772f906890cd64d30b993597be097270ec",
}


def decision_record(mech, steps):
    """Canonical text of a mechanism's per-activation decisions."""
    log = []
    triggers = []
    for index, step in enumerate(steps):
        if step is None:
            mech.on_refresh_window(float(index))
            log.append((index, "window"))
            continue
        flat_bank, row = step
        before = mech.counters.triggers
        actions = mech.on_activation(flat_bank, row, float(index))
        if mech.counters.triggers != before:
            triggers.append(index)
        if actions:
            log.append((index, [(type(a).__name__, dataclasses.astuple(a))
                                for a in actions]))
    return repr((log, triggers, sorted(mech.counters.__dict__.items())))


def decision_digest(name):
    factory, trace = GOLDEN_CASES[name]
    record = decision_record(factory(), trace())
    return hashlib.sha256(record.encode()).hexdigest()


class TestGoldenDecisions:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_digest_pinned(self, name):
        assert decision_digest(name) == GOLDEN_DIGESTS[name]

    def test_para_matches_per_activation_reference(self):
        reference = ReferencePARA(16, seed=7)
        steps = _para_trace()
        assert (decision_record(PARA(16, seed=7), steps)
                == decision_record(reference, steps))
        # The trace spans several refills, and at least one trigger's side
        # draw is the first draw of a fresh block.
        assert reference._draws > 3 * DRAW_BLOCK
        assert any(pos % DRAW_BLOCK == 0 for pos in reference.side_draws)
