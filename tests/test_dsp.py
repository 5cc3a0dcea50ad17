import numpy as np
import pytest

from auricle import AudioBuffer, fft_convolve, frame_signal, rms_weight

from helpers import direct_convolve


def test_convolve_identity_with_impulse(rng):
    x = rng.normal(size=500)
    delta = np.zeros(32)
    delta[0] = 1.0
    out = fft_convolve(x, delta)
    assert out.shape == (531,)
    assert np.allclose(out[:500], x, atol=1e-12)
    assert np.allclose(out[500:], 0.0, atol=1e-12)
    # convolving the impulse with a kernel returns the kernel verbatim
    h = rng.normal(size=64)
    assert np.allclose(fft_convolve([1.0], h), h, atol=1e-12)


def test_convolve_matches_direct_oracle(rng):
    for _ in range(25):
        n = int(rng.integers(1, 10_000))
        m = int(rng.integers(1, 512))
        x = rng.normal(size=n)
        k = rng.normal(size=m)
        got = fft_convolve(x, k)
        want = direct_convolve(x, k)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-9


def test_convolve_linearity(rng):
    x = rng.normal(size=300)
    y = rng.normal(size=300)
    h = rng.normal(size=50)
    a, b = 0.7, -1.3
    lhs = fft_convolve(a * x + b * y, h)
    rhs = a * fft_convolve(x, h) + b * fft_convolve(y, h)
    assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_convolve_rejects_empty():
    with pytest.raises(ValueError):
        fft_convolve([], [1.0])
    with pytest.raises(ValueError):
        fft_convolve([1.0], [])


def test_frame_count_no_overlap(rng):
    fs = 44100
    buf = AudioBuffer(rng.normal(size=(2, 2 * fs)), fs)
    frames = frame_signal(buf, 0.5, 0.5)
    assert len(frames) == 4
    # frame t starts at sample t * hop: a rectangular-framed ramp shows it
    ramp = AudioBuffer(np.tile(np.arange(2.0 * fs), (2, 1)), fs)
    starts = [f.samples[0, 0] for f in frame_signal(ramp, 0.5, 0.5, window="rectangular")]
    assert starts == [0, 22050, 44100, 66150]
    # general rule: ceil(N / hop) frames when frame_len == hop
    buf2 = AudioBuffer(rng.normal(size=(2, 2 * fs + 1)), fs)
    assert len(frame_signal(buf2, 0.5, 0.5)) == 5


def test_short_signal_single_padded_frame():
    buf = AudioBuffer(np.ones((2, 100)) * 0.5, 44100)
    frames = frame_signal(buf, 0.5, 0.5, window="rectangular")
    assert len(frames) == 1
    assert frames[0].length == 22050
    # weight uses the 100 real samples only, not the padding
    assert frames[0].weight == pytest.approx(0.5)
    assert np.all(frames[0].samples[:, 100:] == 0.0)


def test_all_zero_signal_zero_weights():
    buf = AudioBuffer(np.zeros((2, 44100)), 44100)
    for frame in frame_signal(buf, 0.5, 0.5):
        assert frame.weight == 0.0


def test_tukey_window_applied():
    fs = 44100
    buf = AudioBuffer(np.ones((1, fs)), fs)
    frames = frame_signal(buf, 0.5, 0.5, window="tukey", tukey_alpha=0.5)
    frame = frames[0]
    # taper at the edges, flat in the middle, weight from unwindowed samples
    assert frame.samples[0, 0] == pytest.approx(0.0, abs=1e-10)
    assert frame.samples[0, frame.length // 2] == pytest.approx(1.0)
    assert frame.weight == pytest.approx(1.0)


def test_rms_weight_values(rng):
    assert rms_weight(np.zeros((2, 100))) == 0.0
    block = np.stack([np.full(64, 0.8), np.full(64, 0.2)])
    assert rms_weight(block) == pytest.approx(0.8)
    const = np.full((2, 128), 0.5)
    assert rms_weight(const) == pytest.approx(0.5)
    noise = rng.normal(size=22050) * 0.1
    assert rms_weight(noise) == pytest.approx(0.1, rel=0.05)
