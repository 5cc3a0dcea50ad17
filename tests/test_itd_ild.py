import numpy as np
import pytest

from auricle import (
    AudioBuffer,
    MetricConfig,
    delta_ild,
    delta_itd,
    frame_signal,
    gcc_phat_tdoa,
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
