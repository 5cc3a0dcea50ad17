"""Property tests for the interaural cues and ratios on lazily framed signals.

Signals are noise with a per-channel gain, an interaural delay and a silent
span, at several ITD frame lengths, so frames are gated, partial at the end
or carry a silent channel. The ITD vote, which stops once it is decided, is
checked against the full-vote oracle in oracle_metrics.py on signals whose
frames each carry their own lag and gain.
"""

import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import oracle_metrics as oracle
from auricle import (
    AudioBuffer,
    MetricConfig,
    delta_ild,
    delta_itd,
    frame_signal,
    signal_ild,
    signal_itd_lag,
    ssr_srr,
)

from helpers import shift_zero_fill

FS = 44100


def _stereo(seed, n, lag, gains, silence):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n) * 0.1
    data = np.stack([gains[0] * x, gains[1] * shift_zero_fill(x, lag)])
    lo, hi = sorted(int(f * n) for f in silence)
    data[:, lo:hi] = 0.0
    return AudioBuffer(data, FS)


def _signals(n=st.integers(100, int(1.2 * FS))):
    return st.builds(
        _stereo,
        seed=st.integers(0, 2**32 - 1),
        n=n,
        lag=st.integers(-60, 60),
        gains=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        silence=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    )


signals = _signals()
configs = st.sampled_from([MetricConfig(itd_frame_len=t) for t in (0.02, 0.1, 0.5)])


@settings(max_examples=60, deadline=None)
@given(ref=signals, cfg=configs)
def test_deltas_zero_when_estimate_equals_reference(ref, cfg):
    est = AudioBuffer(ref.samples.copy(), FS)
    itd = delta_itd(ref, est, cfg)
    ild = delta_ild(ref, est)
    assert itd.is_undefined if signal_itd_lag(ref, cfg) is None else itd.value == 0.0
    assert ild.is_undefined if signal_ild(ref).is_undefined else ild.value == 0.0


@settings(max_examples=60, deadline=None)
@given(ref=signals, est=signals, cfg=configs)
def test_deltas_symmetric_under_swap(ref, est, cfg):
    assert delta_itd(ref, est, cfg) == delta_itd(est, ref, cfg)
    assert delta_ild(ref, est) == delta_ild(est, ref)


def _clear_of_gate(buf, cfg, k):
    """Every ITD frame the gate counts at either scale has each windowed channel above the gate at both scales.

    Frame weights take the louder channel of the unwindowed samples, so a
    counted frame may carry a near-silent channel, or one the window zeros;
    its cross-spectrum then sits at the PHAT floor, which does not scale,
    and the frame's lag can move with the gain.
    """
    for frame in frame_signal(buf, cfg.itd_frame_len, cfg.itd_frame_len, "tukey", cfg.tukey_alpha):
        counted = frame.weight * max(1.0, 2.0**k) >= cfg.silence_threshold
        quietest = np.sqrt(np.mean(frame.samples**2, axis=1)).min() * min(1.0, 2.0**k)
        if counted and quietest < cfg.silence_threshold:
            return False
    return True


# Most drawn pairs fall outside _clear_of_gate's domain (about three in four);
# the signal strategy stays the broad one the other properties use.
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(ref=signals, est=signals, cfg=configs, k=st.integers(-4, 4))
def test_deltas_unchanged_by_common_power_of_two_gain(ref, est, cfg, k):
    """A power-of-two scale is exact, so GCC-PHAT spectra and energy ratios keep their bits."""
    assume(_clear_of_gate(ref, cfg, k) and _clear_of_gate(est, cfg, k))
    scaled_ref, scaled_est = (AudioBuffer(b.samples * 2.0**k, FS) for b in (ref, est))
    assert delta_itd(scaled_ref, scaled_est, cfg) == delta_itd(ref, est, cfg)
    assert delta_ild(scaled_ref, scaled_est) == delta_ild(ref, est)


def _swap(buf):
    return AudioBuffer(buf.samples[::-1].copy(), FS)


def _peaks_are_clear(buf, cfg):
    """Every counted ITD frame's correlation peaks at one lag, above every other by more than rounding.

    Swapping the channels conjugates the cross-spectrum, which reverses the
    correlation only to within rounding. A frame without such a peak, say one
    whose channels each hold one sample, of opposite signs, at the same
    place, picks its lag from the rounding, which need not flip.
    """
    for _, corr in oracle.itd_correlations(buf, cfg):
        values = sorted(corr.values())
        if values[-1] - values[-2] <= 1e-9 * max(-values[0], values[-1]):
            return False
    return True


def _top_vote_is_a_plus_minus_tie(buf, cfg):
    """The heaviest ITD vote is shared by a lag and its negation; the tie rule picks the negative one."""
    votes = oracle.itd_votes(buf, cfg)
    top = max(votes.values(), default=None)
    return any(lag and votes.get(-lag) == top for lag, weight in votes.items() if weight == top)


@st.composite
def _pairs(draw):
    """A reference and an estimate of the same length."""
    ref = draw(signals)
    return ref, draw(_signals(n=st.just(ref.num_samples)))


# Only sample 0 of the right channel sounds; the window zeros it while the gate counts the frame.
_WINDOWED_AWAY = _stereo(seed=0, n=100, lag=0, gains=(0.0, 1.0), silence=(1.0, 0.015625))
# Only sample 164 sounds, with opposite signs in the two channels: the correlation has no peak.
_ANTI_PHASE_CLICK = _stereo(seed=4278572, n=165, lag=20, gains=(0.900390625, 1.0), silence=(0.0, 0.99609375))
# Two SSR frames, one with an SRR of +inf and one of -inf: their median has no value.
_SRR_FRAMES_AT_BOTH_INFINITIES = (
    _stereo(seed=0, n=22051, lag=0, gains=(0.0, 1.0), silence=(0.0, 0.5)),
    _stereo(seed=0, n=22051, lag=0, gains=(0.0, 1.0), silence=(1.0, 0.25)),
)


@settings(max_examples=60, deadline=None)
@given(pair=_pairs(), cfg=configs)
@example(pair=(_WINDOWED_AWAY, _WINDOWED_AWAY), cfg=MetricConfig(itd_frame_len=0.02))
@example(pair=(_ANTI_PHASE_CLICK, _ANTI_PHASE_CLICK), cfg=MetricConfig(itd_frame_len=0.02))
@example(pair=_SRR_FRAMES_AT_BOTH_INFINITIES, cfg=MetricConfig(itd_frame_len=0.02))
def test_channel_swap_negates_cues_and_keeps_ratios(pair, cfg):
    """Channels are projected independently and their energies added commutatively,
    so SSR/SRR keep every bit; ITD and ILD change sign.

    ITD is compared only where every counted frame has both windowed
    channels above the gate (a near-silent channel puts the cross-spectrum at
    the PHAT floor, whose lag does not flip) and a clear correlation peak,
    and the heaviest vote is not shared by a lag and its negation (the tie
    rule picks the negative one both times).
    """
    ref, est = pair
    assert [v.as_float().hex() for v in ssr_srr(_swap(ref), _swap(est), cfg)] == [
        v.as_float().hex() for v in ssr_srr(ref, est, cfg)
    ]

    if _clear_of_gate(ref, cfg, 0) and _peaks_are_clear(ref, cfg) and not _top_vote_is_a_plus_minus_tie(ref, cfg):
        lag = signal_itd_lag(ref, cfg)
        assert signal_itd_lag(_swap(ref), cfg) == (None if lag is None else -lag)

    ild, swapped = signal_ild(ref), signal_ild(_swap(ref))
    if ild.is_undefined:
        assert swapped.is_undefined
    elif ild.is_infinite or swapped.is_infinite:
        # A silent channel gives +inf against the -200 dB clamp; an energy ratio
        # past the float range gives +inf against a finite value below -3082 dB.
        mirror = swapped if ild.is_infinite else ild
        assert mirror.is_finite and (mirror.value == -200.0 or mirror.value < -3082.0)
    else:
        assert abs(swapped.value + ild.value) <= 1e-12


def _voting_signal(seed, frame_len, plan, tail, shared):
    """ITD frames of noise, each with its own (lag, gain); the last is cut to ``tail`` samples.

    A negative lag is the positive one with the channels swapped, so with
    ``shared`` noise a frame and its mirror weigh exactly the same and their
    votes can tie exactly. A small gain puts a frame under the gate.
    """
    n = round(frame_len * FS)
    rng = np.random.default_rng(seed)
    block = rng.normal(size=n) * 0.1
    rows = []
    for lag, gain in plan:
        x = block if shared else rng.normal(size=n) * 0.1
        pair = gain * np.stack([x, shift_zero_fill(x, abs(lag))])
        rows.append(pair if lag >= 0 else pair[::-1])
    data = np.concatenate(rows, axis=1)[:, : (len(plan) - 1) * n + min(tail, n)]
    return AudioBuffer(data, FS), MetricConfig(itd_frame_len=frame_len)


voting_signals = st.builds(
    _voting_signal,
    seed=st.integers(0, 2**32 - 1),
    frame_len=st.sampled_from([0.02, 0.1]),
    plan=st.lists(
        st.tuples(st.sampled_from([-9, -4, 0, 4, 9]), st.sampled_from([0.0, 1e-3, 0.5, 1.0])),
        min_size=1,
        max_size=12,
    ),
    tail=st.integers(1, 4410),
    shared=st.booleans(),
)


@settings(max_examples=200, deadline=None)
@given(case=voting_signals)
def test_itd_vote_that_stops_once_decided_picks_the_full_vote_winner(case):
    """Split votes, gated and partial frames, and exact +-lag ties: stopping never changes the lag."""
    buf, cfg = case
    assert signal_itd_lag(buf, cfg) == oracle.itd_winner(oracle.itd_votes(buf, cfg))
