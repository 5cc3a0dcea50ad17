import numpy as np
import pytest

from auricle import AudioBuffer, MetricConfig, rms_weight, signal_itd_lag, ssr_srr
from auricle import metrics

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


@pytest.mark.parametrize("tail", [4410, 2000])  # a full last frame and a short one
def test_itd_and_ssr_frames_pass_one_gate(rng, tail):
    """A frame whose own weight is the threshold passes both metric gates; one float higher, neither."""
    samples = np.zeros((2, 4410 + tail))
    samples[:, 4410:] = rng.normal(size=(2, tail)) * 0.1
    sig = AudioBuffer(samples, FS)
    weight = rms_weight(samples[:, 4410:])  # unwindowed RMS of the real samples, louder channel
    for threshold, kept in ((weight, True), (np.nextafter(weight, np.inf), False)):
        cfg = MetricConfig(itd_frame_len=0.1, ssr_window=0.1, ssr_hop=0.1, silence_threshold=float(threshold))
        assert (signal_itd_lag(sig, cfg) is not None) is kept
        assert [v.is_undefined for v in ssr_srr(sig, sig, cfg)] == [not kept] * 2


def test_overlapping_frames_share_segments(rng, monkeypatch):
    """At the default 1 s window and 0.5 s hop, 10 s has 20 frames of 2 segments but 21 distinct segments."""
    calls = []
    terms = metrics._segment_terms
    monkeypatch.setattr(metrics, "_segment_terms", lambda *args: calls.append(args[2:4]) or terms(*args))
    ref = noise_buffer(rng, seconds=10.0)
    ssr_srr(ref, ref)
    assert sorted(calls) == [(k * FS // 2, (k + 1) * FS // 2) for k in range(21)]


@pytest.mark.parametrize("hop", [0.02, 0.01, 0.0073, 0.0049])
def test_frame_segments_are_the_grid_cuts_inside_it(rng, monkeypatch, hop):
    """Each frame sums the terms of the segments between the grid starts and ends inside it, each computed once."""
    cfg = MetricConfig(ssr_window=0.02, ssr_hop=hop)
    n, step = cfg.ssr_frame_samples(FS)
    ref = noise_buffer(rng, seconds=0.2)
    ids = {}

    def tagged_terms(ref_, est_, a, b, max_delay):
        # Segment k's terms are 2**k everywhere, so a frame's sum names its segments exactly.
        assert (a, b) not in ids
        ids[a, b] = len(ids)
        return np.full((2, 2, 2 * max_delay + 1), 2.0 ** ids[a, b])

    sums = {}
    project = metrics._project

    def spy(ref_, est_, start, n_, max_delay, terms):
        sums[start] = terms[0, 0, 0]
        return project(ref_, est_, start, n_, max_delay, terms)

    monkeypatch.setattr(metrics, "_segment_terms", tagged_terms)
    monkeypatch.setattr(metrics, "_project", spy)
    ssr_srr(ref, ref, cfg)
    grid = range(0, ref.num_samples, step)
    assert list(sums) == list(grid)
    for start in grid:
        inside = range(start, start + n + 1)
        cuts = sorted({g for g in grid if g in inside} | {g + n for g in grid if g + n in inside})
        assert sums[start] == sum(2.0 ** ids[ab] for ab in zip(cuts, cuts[1:]))


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


@pytest.mark.parametrize(
    "window, hop, message",
    [
        (1e-5, 1e-5, r"ssr_window 1e-05 s is under one sample at 44100 Hz"),
        (3e-5, 1e-5, r"ssr_hop 1e-05 s is under one sample at 44100 Hz"),
    ],
)
def test_frame_or_hop_under_one_sample_named(window, hop, message):
    # a zero-sample frame or hop must name its field, not fail inside range()
    ref = AudioBuffer(np.ones((2, 441)), FS)
    cfg = MetricConfig(ssr_window=window, ssr_hop=hop)
    with pytest.raises(ValueError, match=message):
        ssr_srr(ref, ref, cfg)


def test_disjoint_estimate_clamps_srr(rng):
    # the reference sounds in [0, 0.4) s and the estimate in [0.6, 1.0) s: no frame
    # projects any estimate energy onto the reference, so SRR's numerator is zero
    ref = np.zeros((2, FS))
    est = np.zeros((2, FS))
    ref[:, : int(0.4 * FS)] = 0.1 * rng.normal(size=(2, int(0.4 * FS)))
    est[:, int(0.6 * FS) :] = 0.1 * rng.normal(size=(2, FS - int(0.6 * FS)))
    ssr, srr = ssr_srr(AudioBuffer(ref, FS), AudioBuffer(est, FS))
    assert ssr.is_finite and ssr.value == 0.0
    assert srr.is_finite and srr.value == metrics.NEG_DB_CLAMP == -200.0


def test_srr_between_minus_and_plus_inf_frames_is_undefined(rng):
    # Two frames: the estimate equals the reference in the first (SRR +inf) and,
    # in the second, sounds only after the reference has stopped (SRR -inf).
    # Their median has no value; it must come out undefined, with no warning.
    half = FS // 2
    ref = 0.1 * rng.normal(size=(2, FS))
    est = ref.copy()
    est[:, half:] = 0.0
    est[:, half + int(0.3 * FS) :] = 0.1 * rng.normal(size=(2, half - int(0.3 * FS)))
    ref[:, half + int(0.2 * FS) :] = 0.0
    ssr, srr = ssr_srr(AudioBuffer(ref, FS), AudioBuffer(est, FS), MetricConfig(ssr_window=0.5, ssr_hop=0.5))
    assert ssr.is_infinite and srr.is_undefined


def test_srr_ratio_underflowing_to_zero_clamps():
    """A projection so small that projected / residual energy underflows to 0 gives SRR NEG_DB_CLAMP, not an error."""
    rng = np.random.default_rng(1)
    ref = np.zeros((2, FS))
    ref[:, : FS // 2] = rng.normal(size=(2, FS // 2))
    loud = np.zeros((2, FS))
    loud[:, 22250:] = 300 * rng.normal(size=(2, FS - 22250))
    ssr, srr = ssr_srr(AudioBuffer(ref, FS), AudioBuffer(loud + 1e-160 * ref, FS))
    assert srr.is_finite and srr.value == metrics.NEG_DB_CLAMP == -200.0
