"""Property-based parity for the epoch (batch) mitigation protocol.

Hypothesis draws a mechanism, an activation trace, and — the adversarial
part — the epoch segmentation itself: epoch lengths are chosen to land
on, just before, just after, and far past each ``epoch_credit()`` answer,
so boundaries fall directly around trigger points and exercise both the
vectorized in-credit paths and the sequential-replay overshoot fallback.
A refresh-window reset may fall anywhere in the trace.  For every draw,
scalar per-activation dispatch and epoch dispatch must produce identical
actions (at identical trace indices), identical counters, identical
internal table/counter state, and — for PARA — an identical rng stream
position.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mitigations import make_mitigation

from tests.test_mitigation_epoch import run_scalar, snapshot_state, with_window

MECHANISMS = ("None", "PARA", "Graphene", "Hydra", "RFM", "PRAC")


@st.composite
def epoch_setups(draw):
    name = draw(st.sampled_from(MECHANISMS))
    nrh = draw(st.sampled_from((8, 16, 64, 128, 512, 1024)))
    length = draw(st.integers(min_value=10, max_value=400))
    hot_banks = draw(st.integers(min_value=1, max_value=4))
    hot_rows = draw(st.sampled_from((2, 8, 64)))
    # Per-activation addresses: a hot set (to reach thresholds fast, so
    # triggers actually occur) mixed with uniform background noise.
    picks = draw(st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=4095)),
        min_size=length, max_size=length))
    trace = []
    now_ns = 0.0
    for is_hot, value in picks:
        if is_hot:
            flat_bank = value % hot_banks
            row = (value // hot_banks) % hot_rows
        else:
            flat_bank = value % 8
            row = value
        now_ns += 7.5
        trace.append((flat_bank, row, now_ns))
    # Epoch-boundary offsets relative to the credited run length:
    # 0 = exactly the credit, negative = stop short, positive = overshoot
    # into the replay fallback.  Drawn as a reusable cycle so boundaries
    # keep landing around trigger points as the trace advances.
    offsets = draw(st.lists(st.sampled_from((-3, -1, 0, 0, 0, 1, 2, 7)),
                            min_size=1, max_size=8))
    window_at = draw(st.none() | st.integers(min_value=0,
                                             max_value=length - 1))
    return name, nrh, trace, offsets, window_at


def run_epoch_adversarial(mech, trace, offsets):
    """Epoch dispatch with boundaries perturbed around the credit."""
    out = []
    index = 0
    needs_trace = mech.epoch_needs_trace
    needs_rows = needs_trace and mech.epoch_needs_rows
    needs_times = needs_trace and mech.epoch_needs_times
    step = 0
    while index < len(trace):
        credit = mech.epoch_credit()
        offset = offsets[step % len(offsets)]
        step += 1
        n = credit + offset
        overshoot = n > credit
        if overshoot and not needs_trace:
            # Count-only mechanisms cannot replay an overshoot without
            # the trace; feed them their exact credit instead.
            n = credit
            overshoot = False
        n = min(n, len(trace) - index)
        if n > 0:
            segment = trace[index:index + n]
            if needs_trace:
                # The overshoot fallback replays through on_activation,
                # which may need the full columns regardless of the
                # opt-out flags' steady-state promise.
                rows = ([x[1] for x in segment]
                        if needs_rows or overshoot else None)
                times = ([x[2] for x in segment]
                         if needs_times or overshoot else None)
                triggers, actions = mech.on_activation_epoch(
                    [x[0] for x in segment], rows, times)
            else:
                triggers, actions = mech.on_activation_epoch(
                    None, None, None, count=n)
            if n <= credit:
                assert not triggers and not actions, \
                    "mechanism acted inside its credited epoch"
            elif triggers:
                # Overshoot fallback: trigger indices are epoch-relative
                # and the actions come back as one concatenated list (in
                # activation order), which is all ``flatten`` compares.
                out.extend((index + t, None) for t in triggers[:-1])
                out.append((index + triggers[-1], actions))
            index += n
        else:
            # Zero credit (or zero-length epoch drawn): scalar boundary.
            flat_bank, row, now_ns = trace[index]
            actions = mech.on_activation(flat_bank, row, now_ns)
            if actions:
                out.append((index, list(actions)))
            index += 1
    return out


def flatten(result):
    """Reduce [(index, actions)] to comparable (indices, all_actions)."""
    indices = [index for index, _ in result]
    actions = [a for _, acts in result if acts for a in acts]
    return indices, actions


@settings(max_examples=60, deadline=None)
@given(epoch_setups())
def test_epoch_dispatch_matches_scalar(setup):
    name, nrh, trace, offsets, window_at = setup
    scalar_mech = make_mitigation(name, nrh)
    epoch_mech = make_mitigation(name, nrh)
    expected = with_window(run_scalar, scalar_mech, trace, window_at)
    got = with_window(run_epoch_adversarial, epoch_mech, trace, window_at,
                      offsets)
    assert flatten(expected) == flatten(got), (name, nrh, window_at)
    assert snapshot_state(scalar_mech) == snapshot_state(epoch_mech), \
        (name, nrh, window_at)
    assert scalar_mech.counters.__dict__ == epoch_mech.counters.__dict__
    if name == "PARA":
        # Both sides buffer PARA's draws in blocks, so the stream
        # position comparison is buffer-to-buffer.
        assert scalar_mech._buffer_pos == epoch_mech._buffer_pos
        assert scalar_mech._buffer == epoch_mech._buffer
        assert (scalar_mech._rng.bit_generator.state
                == epoch_mech._rng.bit_generator.state)
