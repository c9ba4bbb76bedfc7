"""Epoch (batch) mitigation dispatch: contracts, aliasing, rng streams.

Covers the deterministic side of the ``on_activation_epoch`` protocol:

* the shared ``_NO_ACTIONS`` no-op result is immutable, so a caller that
  mutates a "fresh" result gets a hard error instead of silently
  replaying the appended action on every later activation;
* PARA's single refill site keeps its block-buffered rng stream identical
  to :class:`ReferencePARA` (one ``random()`` per activation plus one
  side draw per trigger) across buffer-refill boundaries, in both
  per-activation and epoch dispatch;
* the column opt-out flags (``epoch_needs_rows`` / ``epoch_needs_times``)
  let the kernel drop columns the mechanism never reads, while the base
  sequential-replay fallback still rejects a genuinely missing column;
* a deterministic scalar-vs-epoch parity sweep over every mechanism,
  with and without a refresh-window reset mid-trace, checking actions,
  counters, rng state, and internal table state (the random/adversarial
  version lives in ``test_property_mitigation_epoch.py``).
"""

import random

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.mitigations import make_mitigation
from repro.mitigations.base import (
    _NO_ACTIONS,
    EPOCH_BULK_MIN,
    MitigationMechanism,
    PreventiveRefresh,
)
from repro.mitigations.para import DRAW_BLOCK, PARA, PARA_STRENGTH
from repro.mitigations.rfm import RFM

ALL_MECHANISMS = ("None", "PARA", "Graphene", "Hydra", "RFM", "PRAC")


class ReferencePARA(MitigationMechanism):
    """Per-activation PARA: one ``rng.random()`` per activation, plus one
    side draw per trigger — the stream PARA's block buffer must match."""

    name = "PARA-reference"

    def __init__(self, nrh, *, strength=PARA_STRENGTH, seed=1):
        super().__init__(nrh)
        self.probability = min(1.0, strength / nrh)
        self._rng = np.random.default_rng(seed)
        #: Stream positions of the side draws taken so far.
        self.side_draws = []
        self._draws = 0

    def on_activation(self, flat_bank, row, now_ns):
        self.counters.activations_observed += 1
        self._draws += 1
        if self._rng.random() >= self.probability:
            return []
        self.counters.triggers += 1
        self.side_draws.append(self._draws)
        self._draws += 1
        side = (1, 2) if self._rng.random() < 0.5 else (-1, -2)
        return [PreventiveRefresh(flat_bank, row, victim_offsets=side)]


def snapshot_state(mech):
    """Deep-copy every piece of mutable mechanism state worth comparing."""
    out = {}
    for attr in ("_raa", "_counts", "_gct", "_rcc", "_rct",
                 "_buffer_pos", "_raa_max", "_max_count", "_gct_max",
                 "_bank_max", "_global_max", "_min_room"):
        if hasattr(mech, attr):
            value = getattr(mech, attr)
            if hasattr(value, "items"):
                out[attr] = list(value.items())
            elif isinstance(value, list):
                out[attr] = list(value)
            else:
                out[attr] = value
    if hasattr(mech, "_tables"):
        out["tables"] = [
            None if t is None else (list(t.counts.items()), t.spillover)
            for t in mech._tables]
    return out


def with_window(runner, mech, trace, window_at, *args):
    """Run ``runner`` over ``trace`` with one refresh-window reset before
    activation ``window_at`` (``None``: no reset); indices stay global."""
    if window_at is None:
        return runner(mech, trace, *args)
    head = runner(mech, trace[:window_at], *args)
    mech.on_refresh_window(float(window_at))
    tail = runner(mech, trace[window_at:], *args)
    return head + [(window_at + index, acts) for index, acts in tail]


def run_scalar(mech, trace):
    """Drive per-activation dispatch; return [(index, actions), ...]."""
    out = []
    for index, (flat_bank, row, now_ns) in enumerate(trace):
        actions = mech.on_activation(flat_bank, row, now_ns)
        if actions:
            out.append((index, list(actions)))
    return out


def run_epoch(mech, trace, rnd):
    """Drive epoch dispatch the way the array kernel does.

    Buffers up to ``epoch_credit()`` activations (sometimes fewer, to
    vary boundary placement), flushes them through
    ``on_activation_epoch``, and takes the boundary activation through
    the scalar step — asserting the credited epochs never act.
    """
    out = []
    index = 0
    needs_trace = mech.epoch_needs_trace
    needs_rows = needs_trace and mech.epoch_needs_rows
    needs_times = needs_trace and mech.epoch_needs_times
    while index < len(trace):
        credit = mech.epoch_credit()
        n = min(credit, len(trace) - index)
        if n > 1 and rnd.random() < 0.2:
            n = rnd.randrange(1, n)
        if n > 0:
            segment = trace[index:index + n]
            if needs_trace:
                triggers, actions = mech.on_activation_epoch(
                    [x[0] for x in segment],
                    [x[1] for x in segment] if needs_rows else None,
                    [x[2] for x in segment] if needs_times else None)
            else:
                triggers, actions = mech.on_activation_epoch(
                    None, None, None, count=n)
            assert not triggers and not actions, \
                "mechanism acted inside its credited epoch"
            index += n
            if index >= len(trace):
                break
        flat_bank, row, now_ns = trace[index]
        actions = mech.on_activation(flat_bank, row, now_ns)
        if actions:
            out.append((index, list(actions)))
        index += 1
    return out


def make_trace(rnd, length):
    trace = []
    now_ns = 0.0
    hot = [(rnd.randrange(4), rnd.randrange(256)) for _ in range(3)]
    for _ in range(length):
        if rnd.random() < 0.5:
            flat_bank, row = rnd.choice(hot)
        else:
            flat_bank, row = rnd.randrange(4), rnd.randrange(4096)
        now_ns += rnd.random() * 10
        trace.append((flat_bank, row, now_ns))
    return trace


class TestNoActionsAliasing:
    def test_no_actions_is_immutable_tuple(self):
        assert isinstance(_NO_ACTIONS, tuple)
        assert _NO_ACTIONS == ()
        with pytest.raises(AttributeError):
            _NO_ACTIONS.append("boom")

    def test_caller_mutation_cannot_alias_across_activations(self):
        """The regression the tuple prevents: a caller appending to one
        activation's "fresh" no-action result must not see (or cause)
        the action replaying on every later activation."""
        mech = make_mitigation("PARA", nrh=1 << 20)
        first = mech.on_activation(0, 1, 0.0)
        assert not first
        with pytest.raises(AttributeError):
            first.append("injected")
        # Every later no-action result is still empty.
        for _ in range(16):
            assert not mech.on_activation(0, 1, 0.0)


class TestParaRefillStreamIdentity:
    def test_scalar_stream_identical_across_refills(self):
        """> DRAW_BLOCK draws force refills; the block-buffered stream
        must equal the per-activation reference draw for draw, including
        the extra side-selection draw consumed on each trigger."""
        draws = DRAW_BLOCK * 2 + DRAW_BLOCK // 3
        reference = ReferencePARA(64, seed=7)
        mech = PARA(64, seed=7)
        for i in range(draws):
            a = reference.on_activation(i & 7, i & 1023, float(i))
            b = mech.on_activation(i & 7, i & 1023, float(i))
            assert list(a) == list(b), f"stream diverged at draw {i}"
        assert reference.counters.__dict__ == mech.counters.__dict__
        # Mid-block PARA's rng is exactly one lookahead ahead: its
        # unconsumed buffer tail must equal the reference's next draws
        # (``random(n)`` consumes the identical underlying stream as n
        # scalar ``random()`` calls), after which both generators sit at
        # the same point of the stream.
        remaining = mech._buffer[mech._buffer_pos:]
        assert remaining == [reference._rng.random() for _ in remaining]
        assert (reference._rng.bit_generator.state
                == mech._rng.bit_generator.state)

    def test_epoch_stream_identical_across_refills(self):
        """Epoch dispatch consumes the same stream: driving epochs until
        well past a refill boundary must leave the identical rng state
        and trigger history as the per-activation reference."""
        length = DRAW_BLOCK + DRAW_BLOCK // 2
        rnd = random.Random(11)
        trace = make_trace(rnd, length)
        reference = ReferencePARA(64, seed=3)
        mech = PARA(64, seed=3)
        expected = run_scalar(reference, trace)
        got = run_epoch(mech, trace, random.Random(12))
        assert expected == got
        assert reference.counters.__dict__ == mech.counters.__dict__
        remaining = mech._buffer[mech._buffer_pos:]
        assert remaining == [reference._rng.random() for _ in remaining]
        assert (reference._rng.bit_generator.state
                == mech._rng.bit_generator.state)

    def test_epoch_credit_never_spans_a_trigger(self):
        mech = PARA(16, seed=5)
        for _ in range(DRAW_BLOCK // 8):
            credit = mech.epoch_credit()
            if credit:
                triggers, actions = mech.on_activation_epoch(
                    None, None, None, count=credit)
                assert not triggers and not actions
            actions = mech.on_activation(0, 1, 0.0)
            # The first post-credit activation is the only place a
            # trigger may appear.
            assert actions is not None


class TestEpochColumnFlags:
    def test_rfm_accepts_missing_rows_and_times(self):
        mech = RFM(1 << 16)
        assert not mech.epoch_needs_rows and not mech.epoch_needs_times
        credit = mech.epoch_credit()
        assert credit > 4
        triggers, actions = mech.on_activation_epoch([0, 1, 0, 2], None,
                                                     None)
        assert triggers == () and actions == []
        assert mech._raa == {0: 2, 1: 1, 2: 1}

    def test_fallback_replay_substitutes_declared_unused_columns(self):
        """Push RFM past its credit so the sequential-replay fallback
        runs — it must accept the missing columns it declared unused and
        still trigger exactly like the scalar path."""
        scalar = RFM(64)
        epoch = RFM(64)
        banks = [3] * (scalar.raaimt + 4)
        expected = run_scalar(scalar, [(b, 0, 0.0) for b in banks])
        triggers, actions = epoch.on_activation_epoch(banks, None, None)
        assert [t for t, _ in expected] == list(triggers)
        assert [a for _, acts in expected for a in acts] == actions
        assert scalar._raa == epoch._raa

    def test_fallback_rejects_genuinely_missing_columns(self):
        mech = make_mitigation("Graphene", nrh=16)
        over = mech.threshold + 8  # force the replay fallback
        with pytest.raises(SimulationError):
            mech.on_activation_epoch([0] * over, None, [0.0] * over)
        with pytest.raises(SimulationError):
            mech.on_activation_epoch(None, None, None, count=over)


class TestBulkEpochMerge:
    @pytest.mark.parametrize("name", ("RFM", "PRAC", "Hydra", "Graphene"))
    def test_bulk_epoch_leaves_replay_state(self, name):
        """An epoch long enough for the ``np.unique`` merge, whose keys
        first occur in descending order, must leave the counter dicts
        exactly as the sequential replay does, insertion order included."""
        n = EPOCH_BULK_MIN + 64
        banks = [3 - i % 4 for i in range(n)]
        rows = [4000 - 128 * (i % 13) for i in range(n)]
        replayed = make_mitigation(name, 4096)
        bulk = make_mitigation(name, 4096)
        assert bulk.epoch_credit() >= n
        run_scalar(replayed, list(zip(banks, rows, [0.0] * n)))
        assert bulk.on_activation_epoch(banks, rows, [0.0] * n) == ((), [])
        assert snapshot_state(bulk) == snapshot_state(replayed)
        assert bulk.counters.__dict__ == replayed.counters.__dict__


@pytest.mark.parametrize("name", ALL_MECHANISMS)
@pytest.mark.parametrize("window_reset", [False, True])
def test_epoch_parity_deterministic_sweep(name, window_reset):
    """Scalar and epoch dispatch agree on actions, counters, and every
    piece of internal state, across a spread of nRH values and traces —
    optionally with a refresh-window reset halfway, so the epoch
    trackers' reset paths are held to the replay too."""
    for trial in range(6):
        rnd = random.Random(trial * 131 + 7)
        nrh = rnd.choice((16, 64, 128, 512, 1024))
        trace = make_trace(rnd, rnd.randrange(100, 900))
        window_at = len(trace) // 2 if window_reset else None
        scalar_mech = make_mitigation(name, nrh)
        epoch_mech = make_mitigation(name, nrh)
        expected = with_window(run_scalar, scalar_mech, trace, window_at)
        got = with_window(run_epoch, epoch_mech, trace, window_at, rnd)
        assert expected == got, (name, window_reset, nrh, trial)
        assert snapshot_state(scalar_mech) == snapshot_state(epoch_mech)
        assert (scalar_mech.counters.__dict__
                == epoch_mech.counters.__dict__)
        if name == "PARA":
            assert (scalar_mech._rng.bit_generator.state
                    == epoch_mech._rng.bit_generator.state)
