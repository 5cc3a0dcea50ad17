import numpy as np
import pytest

from auricle import AudioBuffer, MetricConfig, ssr_srr

from helpers import noise_buffer, shift_zero_fill

FS = 44100


def _with_noise(ref, rng, snr_db):
    noise = rng.normal(size=ref.samples.shape)
    scale = np.sqrt(
        np.sum(ref.samples**2, axis=1, keepdims=True)
        / np.sum(noise**2, axis=1, keepdims=True)
    ) * 10 ** (-snr_db / 20)
    return AudioBuffer(ref.samples + scale * noise, FS)


def test_identity_gives_infinite_ratios(rng):
    ref = noise_buffer(rng, seconds=3.0)
    ssr, srr = ssr_srr(ref, ref)
    assert ssr.is_infinite and srr.is_infinite


def test_signal_level_gain_delay_transform(rng):
    # per-channel gain + integer delay applied to the whole signal: the
    # residual is rounding-level only, the spatial error is real
    ref = noise_buffer(rng, seconds=3.0)
    est = np.stack(
        [
            0.8 * shift_zero_fill(ref.samples[0], 5),
            1.2 * shift_zero_fill(ref.samples[1], -9),
        ]
    )
    ssr, srr = ssr_srr(ref, AudioBuffer(est, FS))
    assert ssr.is_finite
    assert srr.is_infinite or srr.value > 100.0


def test_dyadic_gain_transform_is_exactly_infinite(rng):
    # powers of two scale without rounding, so the residual cancels exactly
    ref = noise_buffer(rng, seconds=2.0)
    est = np.stack(
        [
            0.5 * shift_zero_fill(ref.samples[0], 3),
            1.0 * shift_zero_fill(ref.samples[1], 7),
        ]
    )
    ssr, srr = ssr_srr(ref, AudioBuffer(est, FS))
    assert srr.is_infinite
    assert ssr.is_finite


def test_srr_tracks_injected_snr(rng):
    ref = noise_buffer(rng, seconds=3.0)
    for snr in (10.0, 20.0, 30.0):
        _, srr = ssr_srr(ref, _with_noise(ref, rng, snr))
        assert srr.value == pytest.approx(snr, abs=1.0)


def test_noisy_estimate_ssr_high(rng):
    # a = 1, d = 0, so the spatial error is tiny compared to the reference
    ref = noise_buffer(rng, seconds=2.0)
    ssr, _ = ssr_srr(ref, _with_noise(ref, rng, 20.0))
    assert ssr.value >= 40.0


def _ar1_buffer(rng, seconds, pole=0.98, amplitude=0.1):
    # temporally correlated noise: autocorrelation pole**lag, so shifting by
    # more samples decorrelates more (white noise is flat beyond one sample)
    from scipy.signal import lfilter

    n = int(seconds * FS)
    data = lfilter([1.0], [1.0, -pole], rng.normal(size=(2, n)), axis=1)
    data *= amplitude / np.max(np.abs(data))
    return AudioBuffer(data, FS)


def test_ssr_decreases_with_delay_error(rng):
    ref = _ar1_buffer(rng, 2.0)
    medians = []
    for d in (0, 5, 20):
        est = np.stack([ref.samples[0], shift_zero_fill(ref.samples[1], d)])
        est = est + rng.normal(size=est.shape) * 1e-5  # keep ratios finite
        ssr, _ = ssr_srr(ref, AudioBuffer(est, FS))
        medians.append(ssr.value)
    assert medians[0] > medians[1] > medians[2]


def test_all_silent_undefined():
    silent = AudioBuffer(np.zeros((2, 2 * FS)), FS)
    ssr, srr = ssr_srr(silent, silent)
    assert ssr.is_undefined and srr.is_undefined


def test_silent_frames_skipped(rng):
    # half the reference is silent; only the loud half contributes frames
    loud = rng.normal(size=(2, FS)) * 0.1
    ref = AudioBuffer(np.concatenate([np.zeros((2, FS)), loud], axis=1), FS)
    ssr, srr = ssr_srr(ref, ref)
    assert ssr.is_infinite and srr.is_infinite


def test_length_mismatch_rules(rng):
    ref = noise_buffer(rng, seconds=3.0)
    shorter = AudioBuffer(ref.samples[:, : ref.num_samples - 1000], FS)
    with pytest.warns(UserWarning, match="trim"):
        ssr, srr = ssr_srr(ref, shorter)
    assert ssr.is_infinite  # trimmed comparison is still an identity

    way_short = AudioBuffer(ref.samples[:, : ref.num_samples - 2 * FS], FS)
    with pytest.raises(ValueError, match="length mismatch"):
        ssr_srr(ref, way_short)


def test_rate_mismatch_rejected(rng):
    a = noise_buffer(rng, seconds=1.0)
    b = AudioBuffer(a.samples, 48000)
    with pytest.raises(ValueError, match="mismatch"):
        ssr_srr(a, b)


def test_config_windows_respected(rng):
    # shorter windows mean more frames but the identity result is unchanged
    ref = noise_buffer(rng, seconds=2.0)
    cfg = MetricConfig(ssr_window=0.25, ssr_hop=0.125)
    ssr, srr = ssr_srr(ref, ref, cfg)
    assert ssr.is_infinite and srr.is_infinite


def test_config_rejects_hop_longer_than_window():
    # a hop past the window would leave audio between frames unscored
    with pytest.raises(ValueError, match=r"ssr_hop 0\.6 s exceeds ssr_window 0\.5"):
        MetricConfig(ssr_window=0.5, ssr_hop=0.6)
