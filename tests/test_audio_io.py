import numpy as np
import pytest
from scipy.io import wavfile

from auricle import AudioBuffer, read_wav, write_wav


def _pcm24_bytes(codes, rate, channels=1):
    """Minimal RIFF writer for 24-bit PCM (scipy cannot write it)."""
    data = b"".join(int(c).to_bytes(3, "little", signed=True) for c in codes)
    block = channels * 3
    return (
        b"RIFF"
        + (36 + len(data)).to_bytes(4, "little")
        + b"WAVEfmt "
        + (16).to_bytes(4, "little")
        + (1).to_bytes(2, "little")
        + channels.to_bytes(2, "little")
        + rate.to_bytes(4, "little")
        + (rate * block).to_bytes(4, "little")
        + block.to_bytes(2, "little")
        + (24).to_bytes(2, "little")
        + b"data"
        + len(data).to_bytes(4, "little")
        + data
    )


def test_buffer_invariants():
    buf = AudioBuffer(np.zeros((2, 10)), 44100)
    assert buf.num_channels == 2 and buf.num_samples == 10
    assert buf.duration == pytest.approx(10 / 44100)
    with pytest.raises(ValueError):
        AudioBuffer(np.zeros((2, 0)), 44100)
    with pytest.raises(ValueError):
        AudioBuffer(np.zeros(5), 0)
    with pytest.raises(ValueError):
        AudioBuffer(np.array([0.0, np.nan]), 44100)
    with pytest.raises(ValueError):
        AudioBuffer(np.array([0.0, np.inf]), 44100)


def test_float32_roundtrip_bit_exact(tmp_path, rng):
    data = rng.normal(size=(2, 2000)).astype(np.float32).astype(np.float64)
    buf = AudioBuffer(data, 44100)
    write_wav(tmp_path / "x.wav", buf, encoding="float32")
    back = read_wav(tmp_path / "x.wav")
    assert back.sample_rate == 44100
    assert back.num_channels == 2
    assert np.array_equal(back.samples, data)


def test_pcm16_roundtrip_quantization_bound(tmp_path, rng):
    data = np.clip(rng.normal(size=(2, 2000)) * 0.3, -1, 1)
    buf = AudioBuffer(data, 44100)
    write_wav(tmp_path / "x.wav", buf, encoding="pcm16")
    back = read_wav(tmp_path / "x.wav")
    assert np.max(np.abs(back.samples - data)) <= 2**-15


def test_pcm16_code_normalization(tmp_path):
    wavfile.write(str(tmp_path / "c.wav"), 44100, np.array([16384, -16384, 0], dtype=np.int16))
    buf = read_wav(tmp_path / "c.wav")
    assert buf.samples[0, 0] == 0.5
    assert buf.samples[0, 1] == -0.5
    assert buf.samples[0, 2] == 0.0


def test_pcm16_clipping_warns(tmp_path):
    buf = AudioBuffer(np.array([0.0, 1.2, -1.5]), 44100)
    with pytest.warns(UserWarning, match="clip"):
        write_wav(tmp_path / "clip.wav", buf, encoding="pcm16")
    back = read_wav(tmp_path / "clip.wav")
    # clipped to the extreme 16-bit codes
    assert back.samples[0, 1] == 32767 / 32768
    assert back.samples[0, 2] == -1.0


def test_pcm24_read(tmp_path):
    codes = [0, 2**22, -(2**23), 2**23 - 1]
    (tmp_path / "p24.wav").write_bytes(_pcm24_bytes(codes, 44100))
    buf = read_wav(tmp_path / "p24.wav")
    expected = np.array(codes) / 2**23
    assert np.array_equal(buf.samples[0], expected)


def test_stereo_musdb_like_file(tmp_path, rng):
    data = np.clip(rng.normal(size=(2, 44100)) * 0.2, -1, 1)
    write_wav(tmp_path / "stem.wav", AudioBuffer(data, 44100), encoding="pcm16")
    buf = read_wav(tmp_path / "stem.wav")
    assert buf.sample_rate == 44100 and buf.num_channels == 2


def test_mono_roundtrip(tmp_path):
    buf = AudioBuffer(np.linspace(-0.5, 0.5, 100, dtype=np.float32), 22050)
    write_wav(tmp_path / "m.wav", buf, encoding="float32")
    back = read_wav(tmp_path / "m.wav")
    assert back.num_channels == 1
    assert np.array_equal(back.samples, buf.samples)


_WRITERS = {  # name -> (write float data (n, 2) in [-1, 1) to a file, divisor on read)
    "pcm16": (lambda p, d: wavfile.write(str(p), 44100, (d * 2**15).astype(np.int16)), 2**15),
    "pcm24": (lambda p, d: p.write_bytes(_pcm24_bytes((d * 2**23).astype(int).ravel(), 44100, 2)), 2**31),
    "int32": (lambda p, d: wavfile.write(str(p), 44100, (d * 2**31).astype(np.int32)), 2**31),
    "float32": (lambda p, d: wavfile.write(str(p), 44100, d.astype(np.float32)), 1),
    "mono": (lambda p, d: wavfile.write(str(p), 44100, (d[:, 0] * 2**15).astype(np.int16)), 2**15),
}


@pytest.mark.parametrize("encoding", list(_WRITERS))
def test_read_rows_contiguous_and_exact(tmp_path, rng, encoding):
    """Channel rows are C-contiguous and equal the file's codes / divisor bit for bit."""
    write, divisor = _WRITERS[encoding]
    write(tmp_path / "x.wav", rng.uniform(-1, 1, size=(500, 2)))
    _, data = wavfile.read(str(tmp_path / "x.wav"))
    buf = read_wav(tmp_path / "x.wav")
    assert buf.samples.flags.c_contiguous
    expected = np.atleast_2d((data.astype(np.float64) / divisor).T)
    assert buf.samples.shape == expected.shape == ((1, 500) if encoding == "mono" else (2, 500))
    assert [float.hex(v) for v in buf.samples.ravel()] == [float.hex(v) for v in expected.ravel()]


@pytest.mark.parametrize(
    "dtype, scale",
    [(np.int16, 2**15), (np.int32, 2**31), (np.float32, None)],
)
def test_read_scales_codes_exactly(tmp_path, rng, dtype, scale):
    """Integer codes, extremes included, read as code / 2^(bits-1); float32 passes through unchanged."""
    if scale is None:
        tiny = np.finfo(np.float32).smallest_subnormal
        edges = np.array([0.0, -0.0, tiny, -tiny, 1.0, -1.0, np.finfo(np.float32).max], dtype=np.float32)
        noise = rng.normal(size=994).astype(np.float32)
    else:
        info = np.iinfo(dtype)
        edges = np.array([0, 1, -1, info.min, info.max, info.min + 1, info.max - 1], dtype=dtype)
        noise = rng.integers(info.min, info.max, size=994, endpoint=True, dtype=dtype)
    data = np.stack([np.concatenate([edges, noise]), np.concatenate([noise, edges])], axis=1)
    wavfile.write(str(tmp_path / "x.wav"), 44100, data)
    buf = read_wav(tmp_path / "x.wav")
    expected = data.T.astype(np.float64) / (scale or 1)
    assert [float.hex(v) for v in buf.samples.ravel()] == [float.hex(v) for v in expected.ravel()]


def test_read_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_wav(tmp_path / "missing.wav")
    (tmp_path / "junk.wav").write_bytes(b"RIFFxxxxWAVE" + b"\x00" * 20)
    with pytest.raises(ValueError):
        read_wav(tmp_path / "junk.wav")
    # truncated data chunk of zero length
    empty = _pcm24_bytes([], 44100)
    (tmp_path / "empty.wav").write_bytes(empty)
    with pytest.raises(ValueError):
        read_wav(tmp_path / "empty.wav")


@pytest.mark.parametrize("channels", [1, 2])
def test_float32_write_equals_casting_the_transpose(tmp_path, rng, channels):
    """The written samples are the bytes of ``samples.T.astype(np.float32, order="C")``."""
    big = float(np.finfo(np.float32).max)
    tiny = float(np.finfo(np.float32).smallest_subnormal)
    edges = [0.0, -0.0, tiny, -tiny, 0.6 * tiny, 3e-39, 0.1, 1 / 3, -2 / 3, 1 + 2**-24, 1 + 3 * 2**-25, big, -big]
    data = np.stack([np.concatenate([edges, rng.normal(size=987)])[::k] for k in (1, -1)][:channels])
    buf = AudioBuffer(data, 44100)
    write_wav(tmp_path / "x.wav", buf, encoding="float32")
    _, back = wavfile.read(str(tmp_path / "x.wav"))
    want = buf.samples.T.astype(np.float32, order="C")
    assert back.tobytes() == (want[:, 0] if channels == 1 else want).tobytes()


def test_write_unknown_encoding(tmp_path):
    buf = AudioBuffer(np.zeros(8), 44100)
    with pytest.raises(ValueError):
        write_wav(tmp_path / "x.wav", buf, encoding="mp3")
