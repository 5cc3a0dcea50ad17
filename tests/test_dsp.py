import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len
from scipy.signal import windows

import auricle.dsp
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


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6000),
    m=st.sampled_from([1, 2, 128, 1024]) | st.integers(1, 8000),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=1, m=1, seed=0)
@example(n=1, m=1024, seed=1)
@example(n=100, m=1024, seed=2)
@example(n=6000, m=128, seed=3)
def test_convolve_equals_direct_oracle_property(n, m, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    k = rng.normal(size=m)
    got = fft_convolve(x, k)
    want = direct_convolve(x, k)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-9


@settings(max_examples=80, deadline=None)
@given(
    leaf=st.sampled_from([128, 1 << 10, 1 << 16]),
    leaves=st.integers(1, 5),
    offset=st.integers(-9, 9),
    seed=st.integers(0, 2**32 - 1),
)
@example(leaf=1 << 16, leaves=1, offset=0, seed=0)
@example(leaf=1 << 16, leaves=2, offset=1, seed=1)
@example(leaf=128, leaves=1, offset=-9, seed=2)
def test_dot_has_the_bits_of_one_pairwise_reduce(leaf, leaves, offset, seed):
    """Lengths on and around the leaf size and the tree's split points give the bits of ``np.add.reduce(a * b)``."""
    rng = np.random.default_rng(seed)
    n = max(1, leaves * leaf + offset)
    a, b = (rng.normal(size=n) * np.exp2(rng.integers(-30, 30, size=n)) for _ in range(2))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(auricle.dsp, "_DOT_LEAF", leaf)
        for x, y in ((a, a), (a, b)):
            assert auricle.dsp._dot(x, y).hex() == float(np.add.reduce(x * y)).hex()


def test_convolve_linearity(rng):
    x = rng.normal(size=300)
    y = rng.normal(size=300)
    h = rng.normal(size=50)
    a, b = 0.7, -1.3
    lhs = fft_convolve(a * x + b * y, h)
    rhs = a * fft_convolve(x, h) + b * fft_convolve(y, h)
    assert np.max(np.abs(lhs - rhs)) <= 1e-9


@pytest.mark.parametrize("n, m", [(250_000, 100), (300_001, 1024)])
def test_convolve_across_passes_matches_numpy(rng, n, m):
    # Both signals take three passes of FFT blocks, so block tails cross the
    # joins between passes.
    x = rng.normal(size=n)
    k = rng.normal(size=m)
    got = fft_convolve(x, k)
    assert got.shape == (n + m - 1,)
    assert np.max(np.abs(got - np.convolve(x, k))) <= 1e-9


def test_convolve_rejects_empty():
    with pytest.raises(ValueError):
        fft_convolve([], [1.0])
    with pytest.raises(ValueError):
        fft_convolve([1.0], [])


_ONES = AudioBuffer(np.ones((2, 1000)), 1000)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: rms_weight(np.zeros((2, 0))), "cannot compute RMS of an empty block"),
        (lambda: frame_signal(_ONES, 0.1, 0.1, window="hann"), "unknown window 'hann'; use 'tukey' or 'rectangular'"),
        (lambda: frame_signal(_ONES, 0.001, 0.001), "frame of 0.001 s is under 2 samples at 1000 Hz"),
        (lambda: frame_signal(_ONES, 0.1, 0.0004), "hop of 0.0004 s is under 1 sample at 1000 Hz"),
        (lambda: fft_convolve(np.ones((2, 4)), np.ones(3)), "fft_convolve takes 1-D sequences"),
    ],
    ids=["empty rms block", "unknown window", "frame under 2 samples", "hop under 1 sample", "2-d convolve input"],
)
def test_dsp_refusals_are_named(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_convolve_out_rejects_wrong_arrays():
    x, k = np.ones(10), np.ones(3)
    read_only = np.zeros(12)
    read_only.flags.writeable = False
    for out, named in [
        ([0.0] * 12, "list"),
        (np.zeros(12, dtype=np.float32), r"float32 \(12,\)"),
        (np.zeros((1, 12)), r"float64 \(1, 12\)"),
        (np.zeros(11), r"float64 \(11,\)"),
    ]:
        with pytest.raises(ValueError, match=r"shape \(12,\), got " + named):
            fft_convolve(x, k, out=out)
    with pytest.raises(ValueError, match="writable"):
        fft_convolve(x, k, out=read_only)
    shared = np.ones(20)
    with pytest.raises(ValueError, match="share no memory"):
        fft_convolve(shared[8:18], k, out=shared[:12])


@pytest.mark.parametrize("n, m", [(1, 1), (500, 32), (200_003, 1024)])
def test_convolve_overwrites_out(rng, n, m):
    x, k = rng.normal(size=n), rng.normal(size=m)
    out = np.full(n + m - 1, np.nan)
    assert fft_convolve(x, k, out=out) is out
    assert np.array_equal(out, fft_convolve(x, k))


@pytest.mark.parametrize("m", [1, 128, 1024])
def test_convolve_bits_do_not_depend_on_pass_size(rng, monkeypatch, m):
    # Long enough for several passes at the default size; a zero stretch
    # across pass joins checks that no -0.0 reaches the output either way.
    x = rng.normal(size=200_003)
    x[60_000:140_000] = 0.0
    k = rng.normal(size=m)
    want = fft_convolve(x, k)
    assert not np.any(np.signbit(want[want == 0.0]))
    for pass_samples in (1, 2048, 12_345, 1 << 18):
        monkeypatch.setattr(auricle.dsp, "_PASS_SAMPLES", pass_samples)
        got = fft_convolve(x, k)
        assert got.tobytes() == want.tobytes(), pass_samples


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


def test_frames_match_eager_loop_oracle(rng):
    """Frames built on demand equal an eager loop over the starts, weights bit for bit."""
    fs = 8000
    buf = AudioBuffer(rng.normal(size=(2, 3 * fs + 123)), fs)
    frames = frame_signal(buf, 0.25, 0.1, window="tukey", tukey_alpha=0.5)
    n, hop = 2000, 800
    win = windows.tukey(n, alpha=0.5, sym=False)
    oracle = []
    for start in range(0, buf.num_samples, hop):
        block = buf.samples[:, start : start + n]
        padded = np.pad(block, ((0, 0), (0, n - block.shape[1])))
        oracle.append((padded * win, float(np.max(np.sqrt(np.mean(block**2, axis=1))))))
    assert len(frames) == len(oracle) == 31
    for frame, (samples, weight) in zip(frames, oracle):
        assert np.array_equal(frame.samples, samples) and frame.weight == weight
    assert np.array_equal(frames[-1].samples, oracle[-1][0])
    with pytest.raises(IndexError):
        frames[31]


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


_WINDOW_LENGTHS = [*range(2, 71), 1000, 1001, 4410, 22050, 22051, 44100, 88200]
_TAPERS = [1e-9, 1e-3, 0.1, 0.25, 1 / 3, 0.5, 0.7, 0.999, 1 - 1e-7, 1.0]


def _tukey_of_frame_signal(n, alpha):
    """The window frame_signal applies to an n-sample frame: the frame of a signal of ones."""
    return frame_signal(AudioBuffer(np.ones(n), n), 1.0, 1.0, tukey_alpha=alpha)[0].samples[0]


@pytest.mark.parametrize("alpha", _TAPERS)
def test_tukey_window_equals_scipy_bytes_on_grid(alpha):
    for n in _WINDOW_LENGTHS:
        want = windows.tukey(n, alpha, sym=False)
        assert _tukey_of_frame_signal(n, alpha).tobytes() == want.tobytes(), (n, alpha)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 100_000),
    alpha=st.floats(0, 1, exclude_min=True) | st.just(1.0),
)
def test_tukey_window_equals_scipy_bytes_property(n, alpha):
    with np.errstate(over="ignore", invalid="ignore"):  # scipy's dropped last sample overflows at tiny alpha
        want = windows.tukey(n, alpha, sym=False)
    assert _tukey_of_frame_signal(n, alpha).tobytes() == want.tobytes()


@pytest.mark.parametrize("alpha", [0.0, -0.1, 1.5, float("nan")])
def test_frame_signal_rejects_taper_outside_unit_interval(alpha):
    # scipy would silently give a rectangular window at alpha <= 0 and a Hann window above 1
    buf = AudioBuffer(np.ones((2, 1000)), 1000)
    with pytest.raises(ValueError, match=rf"tukey_alpha must lie in \(0, 1\], got {alpha!r}"):
        frame_signal(buf, 0.5, 0.5, tukey_alpha=alpha)


def test_rms_weight_values(rng):
    assert rms_weight(np.zeros((2, 100))) == 0.0
    block = np.stack([np.full(64, 0.8), np.full(64, 0.2)])
    assert rms_weight(block) == pytest.approx(0.8)
    const = np.full((2, 128), 0.5)
    assert rms_weight(const) == pytest.approx(0.5)
    noise = rng.normal(size=22050) * 0.1
    assert rms_weight(noise) == pytest.approx(0.1, rel=0.05)


def test_next_fast_len_equals_scipy_up_to_200000():
    got = [auricle.dsp._next_fast_len(t) for t in range(1, 200_001)]
    assert got == [next_fast_len(t) for t in range(1, 200_001)]


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 10**8))
def test_next_fast_len_equals_scipy_up_to_1e8(target):
    assert auricle.dsp._next_fast_len(target) == next_fast_len(target)
