import re
from dataclasses import fields

import numpy as np
import pytest

import oracle_metrics as oracle
from auricle import (
    AudioBuffer,
    MetricConfig,
    delta_ild,
    delta_itd,
    frame_signal,
    gcc_phat_tdoa,
    metrics,
    signal_ild,
    signal_itd,
    signal_itd_lag,
)

from helpers import brute_xcorr_lag, noise_buffer, shift_zero_fill

FS = 44100
CFG = MetricConfig()


def _stereo_frame(left, right, window="tukey"):
    buf = AudioBuffer(np.stack([left, right]), FS)
    return frame_signal(buf, 0.5, 0.5, window=window)[0]


def test_gcc_identical_channels_zero_lag(rng):
    x = rng.normal(size=22050) * 0.1
    assert gcc_phat_tdoa(_stereo_frame(x, x)) == 0


def test_gcc_matches_brute_force_oracle(rng):
    x = rng.normal(size=22050) * 0.1
    for d in (1, 7, 10, 33, -4, -44):
        y = shift_zero_fill(x, d)
        lag = gcc_phat_tdoa(_stereo_frame(x, y))
        # oracle: plain time-domain cross-correlation peak over all lags
        oracle = brute_xcorr_lag(x, y, 44)
        assert lag == oracle == d
    # 10 samples at 44.1 kHz is +226.757 us
    y = shift_zero_fill(x, 10)
    itd = signal_itd(AudioBuffer(np.stack([x, y]), FS))
    assert itd.value * 1e6 == pytest.approx(226.757, abs=1e-3)


def test_gcc_antisymmetric_under_swap(rng):
    x = rng.normal(size=22050) * 0.1
    y = shift_zero_fill(x, 13)
    fwd = gcc_phat_tdoa(_stereo_frame(x, y))
    rev = gcc_phat_tdoa(_stereo_frame(y, x))
    assert fwd == -rev == 13


def test_gcc_gain_invariant(rng):
    x = rng.normal(size=22050) * 0.1
    y = shift_zero_fill(x, 21)
    base = gcc_phat_tdoa(_stereo_frame(x, y))
    scaled = gcc_phat_tdoa(_stereo_frame(5.0 * x, 5.0 * y))
    assert base == scaled


def test_gcc_requires_stereo(rng):
    mono = AudioBuffer(rng.normal(size=22050), FS)
    frame = frame_signal(mono, 0.5, 0.5)[0]
    with pytest.raises(ValueError):
        gcc_phat_tdoa(frame)


def test_itd_known_delay_construction(rng):
    noise = rng.normal(size=3 * FS) * 0.1
    delayed = shift_zero_fill(noise, 21)
    buf = AudioBuffer(np.stack([noise, delayed]), FS)
    itd = signal_itd(buf)
    assert itd.value * 1e6 == pytest.approx(476.19, abs=0.01)
    assert signal_itd_lag(buf) == 21


def test_itd_all_silent_undefined():
    silent = AudioBuffer(np.zeros((2, FS)), FS)
    assert signal_itd(silent).is_undefined


def test_itd_silence_gate_excludes_quiet_frames(rng):
    # first half silent at just under threshold, second half voting lag 5
    noise = rng.normal(size=2 * FS) * 0.1
    left = np.concatenate([np.full(FS, 4e-4), noise[FS:]])
    right = np.concatenate([np.full(FS, 4e-4), shift_zero_fill(noise[FS:], 5)])
    buf = AudioBuffer(np.stack([left, right]), FS)
    assert signal_itd_lag(buf) == 5


def test_itd_weighted_mode_prefers_heavier_frames(rng):
    # loud frames carry lag 3, quiet frames lag -7: the mode must follow weight
    loud = rng.normal(size=FS) * 0.5
    quiet = rng.normal(size=2 * FS) * 0.01
    left = np.concatenate([loud, quiet])
    right = np.concatenate([shift_zero_fill(loud, 3), shift_zero_fill(quiet, -7)])
    buf = AudioBuffer(np.stack([left, right]), FS)
    assert signal_itd_lag(buf) == 3


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(metrics, name)
    monkeypatch.setattr(metrics, name, lambda *args: calls.append(args) or original(*args))
    return calls


def test_itd_vote_stops_once_decided(rng, monkeypatch):
    # 20 frames of equal weight all vote 21; after 11 votes the 9 left cannot catch up
    x = rng.normal(size=10 * FS) * 0.1
    buf = AudioBuffer(np.stack([x, shift_zero_fill(x, 21)]), FS)
    calls = _count_calls(monkeypatch, "gcc_phat_tdoa")
    assert signal_itd_lag(buf) == 21
    assert len(calls) <= 11


def test_itd_vote_with_margin_equal_to_weight_left_votes_every_frame(rng, monkeypatch):
    # Four frames of one weight w vote 9, 9, -9, -9. After two and after three
    # votes the leader's margin (2w, then w) equals the weight still to vote
    # exactly, so no frame is skipped and the tie rule picks the negative lag.
    x = rng.normal(size=FS // 2) * 0.1
    plus = np.stack([x, shift_zero_fill(x, 9)])
    buf = AudioBuffer(np.concatenate([plus, plus, plus[::-1], plus[::-1]], axis=1), FS)
    w = max(np.sqrt(np.mean(plus**2, axis=1)))
    assert oracle.itd_votes(buf, CFG) == {9: 2 * w, -9: 2 * w}
    calls = _count_calls(monkeypatch, "gcc_phat_tdoa")
    assert signal_itd_lag(buf) == -9
    assert len(calls) == 4


def test_ild_examples(rng):
    x = rng.normal(size=FS) * 0.2
    equal = AudioBuffer(np.stack([x, x]), FS)
    assert signal_ild(equal).value == pytest.approx(0.0, abs=1e-12)

    half = AudioBuffer(np.stack([x, 0.5 * x]), FS)
    assert signal_ild(half).value == pytest.approx(10 * np.log10(4), abs=1e-9)
    assert signal_ild(half).value == pytest.approx(6.0206, abs=1e-4)

    swapped = AudioBuffer(np.stack([0.5 * x, x]), FS)
    assert signal_ild(swapped).value == pytest.approx(-signal_ild(half).value, abs=1e-12)


def test_ild_common_gain_invariant(rng):
    buf = noise_buffer(rng, seconds=0.5)
    scaled = AudioBuffer(buf.samples * 3.7, FS)
    assert signal_ild(scaled).value == pytest.approx(signal_ild(buf).value, abs=1e-9)


def test_ild_edge_cases(rng):
    x = rng.normal(size=100) * 0.1
    right_zero = AudioBuffer(np.stack([x, np.zeros(100)]), FS)
    assert signal_ild(right_zero).is_infinite
    left_zero = AudioBuffer(np.stack([np.zeros(100), x]), FS)
    assert signal_ild(left_zero).value == -200.0
    both_zero = AudioBuffer(np.zeros((2, 100)), FS)
    assert signal_ild(both_zero).is_undefined


def test_ild_ratio_past_float_range_saturates(rng):
    x = rng.normal(size=100) * 0.1
    # sum L^2 / sum R^2 overflows to inf: positive infinity, not a "finite" inf
    overflow = AudioBuffer(np.stack([x, 1e-160 * x]), FS)
    assert signal_ild(overflow).is_infinite
    assert delta_ild(overflow, overflow).value == 0.0
    # a nonzero left energy whose ratio underflows to 0: the clamp, not a log10 domain error
    tiny = np.zeros(100)
    tiny[0] = 2.3e-162
    underflow = AudioBuffer(np.stack([tiny, 10 * x]), FS)
    assert np.sum(underflow.left**2) > 0.0
    assert signal_ild(underflow).value == -200.0


def test_delta_itd_identity_and_common_delay(rng):
    ref = noise_buffer(rng, seconds=2.0)
    assert delta_itd(ref, ref).value == 0.0
    # delaying both channels equally preserves the interchannel lag
    shifted = AudioBuffer(
        np.stack([shift_zero_fill(ref.samples[0], 5), shift_zero_fill(ref.samples[1], 5)]), FS
    )
    assert delta_itd(ref, shifted).value == 0.0


def test_delta_itd_one_sample_quantum(rng):
    noise = rng.normal(size=2 * FS) * 0.1
    ref = AudioBuffer(np.stack([noise, noise]), FS)
    est = AudioBuffer(np.stack([noise, shift_zero_fill(noise, -1)]), FS)
    d = delta_itd(ref, est)
    assert d.value == pytest.approx(22.676, abs=1e-3)


def test_delta_itd_symmetry_and_undefined(rng):
    a = noise_buffer(rng, seconds=1.0)
    b = AudioBuffer(
        np.stack([a.samples[0], shift_zero_fill(a.samples[1], 4)]), FS
    )
    assert delta_itd(a, b).value == delta_itd(b, a).value
    silent = AudioBuffer(np.zeros((2, FS)), FS)
    assert delta_itd(a, silent).is_undefined


def test_delta_itd_skips_the_estimate_when_the_reference_is_silent(rng, monkeypatch):
    calls = _count_calls(monkeypatch, "signal_itd_lag")
    assert delta_itd(AudioBuffer(np.zeros((2, FS)), FS), noise_buffer(rng)).is_undefined
    assert len(calls) == 1


def test_delta_itd_rate_mismatch():
    a = AudioBuffer(np.ones((2, 100)), 44100)
    b = AudioBuffer(np.ones((2, 100)), 48000)
    with pytest.raises(ValueError, match="mismatch"):
        delta_itd(a, b)


def test_delta_ild_examples(rng):
    ref = noise_buffer(rng, seconds=0.5)
    assert delta_ild(ref, ref).value == 0.0
    # common gain on both channels cancels
    scaled = AudioBuffer(ref.samples * 0.3, FS)
    assert delta_ild(ref, scaled).value == pytest.approx(0.0, abs=1e-9)
    # scaling the right channel by 10^(-1/20) shifts the ILD by exactly 1 dB
    est = AudioBuffer(np.stack([ref.samples[0], ref.samples[1] * 10 ** (-1 / 20)]), FS)
    assert delta_ild(ref, est).value == pytest.approx(1.0, abs=1e-9)


def test_delta_ild_symmetric(rng):
    a = noise_buffer(rng, seconds=0.5)
    b = AudioBuffer(np.stack([a.samples[0] * 1.3, a.samples[1]]), FS)
    assert delta_ild(a, b).value == delta_ild(b, a).value


def test_delta_ild_undefined_propagates(rng):
    a = noise_buffer(rng, seconds=0.5)
    silent = AudioBuffer(np.zeros((2, a.num_samples)), FS)
    assert delta_ild(a, silent).is_undefined


def test_config_rejects_tukey_alpha_above_one():
    # scipy would silently turn alpha > 1 into a Hann window
    with pytest.raises(ValueError, match=r"tukey_alpha must be at most 1, got 1\.5"):
        MetricConfig(tukey_alpha=1.5)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("name", [f.name for f in fields(MetricConfig)])
def test_config_rejects_non_finite_settings(name, value):
    # a NaN or infinite silence threshold would leave every SSR, SRR and ΔITD undefined with no error
    with pytest.raises(ValueError, match=rf"{name} must be positive and finite, got {value!r}"):
        MetricConfig(**{name: value})


def test_config_accepts_a_full_hann_taper():
    assert MetricConfig(tukey_alpha=1.0).tukey_alpha == 1.0


def test_config_rejects_itd_frame_shorter_than_two_lags():
    with pytest.raises(ValueError, match=r"itd_frame_len 0\.001 s is shorter than 2 \* max_lag"):
        MetricConfig(itd_frame_len=0.001)


def test_gcc_rejects_frame_shorter_than_two_lags(rng):
    # a 1 ms frame cannot hold the ±1 ms lag search, so any lag it gave would be wrong
    x = rng.normal(size=FS) * 0.1
    buf = AudioBuffer(np.stack([x, shift_zero_fill(x, 40)]), FS)
    frame = frame_signal(buf, 0.001, 0.001, window="rectangular")[0]
    with pytest.raises(ValueError, match="shorter than 2 \\* max_lag = 88"):
        gcc_phat_tdoa(frame)


_NOISE = AudioBuffer(np.random.default_rng(3).normal(size=(2, FS // 2)) * 0.1, FS)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: signal_itd_lag(_NOISE, MetricConfig(max_lag=1e-5)), "max_lag 1e-05 s is under one sample at 44100 Hz"),
        (lambda: signal_ild(AudioBuffer(_NOISE.left, FS)), "ILD needs a stereo signal"),
        (lambda: delta_ild(_NOISE, AudioBuffer(_NOISE.left, FS)), "channel counts differ: reference 2 vs estimate 1"),
    ],
    ids=["max_lag under one sample", "ild of mono", "channel-count mismatch"],
)
def test_cue_refusals_are_named(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
