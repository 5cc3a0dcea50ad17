import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.io import wavfile

import auricle.audio
from auricle import AudioBuffer, read_wav, write_wav

BLOCK = auricle.audio._BLOCK_FRAMES
# A WAVE_FORMAT_EXTENSIBLE sub-format GUID is the format tag followed by these 12 bytes
GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def _riff(*chunks, form=b"RIFF"):
    """A WAV file of (id, body) chunks; an odd-sized body is followed by its pad byte."""
    body = b"".join(cid + struct.pack("<I", len(b)) + b + b"\0" * (len(b) % 2) for cid, b in chunks)
    return form + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def _fmt(tag, channels, bits, extensible=False, block_align=None):
    align = channels * bits // 8 if block_align is None else block_align
    head = struct.pack("<HHIIHH", 0xFFFE if extensible else tag, channels, 44100, 44100 * align, align, bits)
    return head + struct.pack("<HHII", 22, bits, 0, tag) + GUID_TAIL if extensible else head


def _pcm24_bytes(codes, rate, channels=1):
    """Minimal RIFF writer for 24-bit PCM (scipy cannot write it)."""
    data = b"".join(int(c).to_bytes(3, "little", signed=True) for c in codes)
    block = channels * 3
    fmt = struct.pack("<HHIIHH", 1, channels, rate, rate * block, block, 24)
    return _riff((b"fmt ", fmt), (b"data", data))


def _scipy_rows(path):
    """scipy's codes of ``path`` as float64 rows, scaled by the full scale of their dtype."""
    _, data = wavfile.read(str(path))
    scale = {np.int16: 2**15, np.int32: 2**31}.get(data.dtype.type, 1)
    return np.atleast_2d((data.astype(np.float64) / scale).T)


def _assert_reads_as_scipy(path):
    buf = read_wav(path)
    want = _scipy_rows(path)
    assert buf.samples.shape == want.shape and buf.samples.flags.c_contiguous
    assert [float.hex(v) for v in buf.samples.ravel()] == [float.hex(v) for v in want.ravel()]


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


def test_buffer_rejects_non_integer_rate():
    with pytest.raises(ValueError, match="positive integer, got 44100.5"):
        AudioBuffer(np.ones(8), 44100.5)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("index", [0, 500, -1])
def test_buffer_rejects_every_non_finite_sample(value, index):
    samples = np.zeros((2, 1001))
    samples[1, index] = value
    with pytest.raises(ValueError, match="NaN or Inf"):
        AudioBuffer(samples, 44100)


def test_buffer_finiteness_check_allocates_no_mask():
    samples = np.zeros((2, 10**6))
    tracemalloc.start()
    try:
        AudioBuffer(samples, 44100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6, f"peak {peak / 1e6:.2f} MB"


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
    "float64": (lambda p, d: wavfile.write(str(p), 44100, d), 1),
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
    with warnings.catch_warnings():
        warnings.simplefilter("error")
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


_STEREO16 = np.arange(-40, 40, dtype="<i2").tobytes()  # 20 frames of 2 pcm16 channels
_BROKEN = {  # name -> (file bytes, what the error names besides the path)
    "truncated data": (_riff((b"fmt ", _fmt(1, 2, 16)), (b"data", _STEREO16))[:-6], "data chunk ends after 154 of 160 bytes"),
    "block align": (_riff((b"fmt ", _fmt(1, 2, 16, block_align=6)), (b"data", _STEREO16)), "block align 6"),
    "no fmt": (_riff((b"data", _STEREO16)), "no fmt chunk"),
    "no data": (_riff((b"fmt ", _fmt(1, 2, 16)), (b"LIST", b"INFO")), "no data chunk"),
    "8-bit": (_riff((b"fmt ", _fmt(1, 2, 8)), (b"data", _STEREO16)), "8-bit PCM"),
    "int64": (_riff((b"fmt ", _fmt(1, 2, 64)), (b"data", _STEREO16)), "64-bit PCM"),
    "mu-law": (_riff((b"fmt ", _fmt(7, 2, 8)), (b"data", _STEREO16)), "mu-law"),
    "extensible mu-law": (_riff((b"fmt ", _fmt(7, 2, 8, extensible=True)), (b"data", _STEREO16)), "mu-law"),
    "RF64": (_riff((b"fmt ", _fmt(1, 2, 16)), (b"data", _STEREO16), form=b"RF64"), "RF64"),
    "not WAVE": (b"RIFF" + struct.pack("<I", 4) + b"AVI ", "not a RIFF WAVE file (starts b'RIFF')"),
    "short fmt": (_riff((b"fmt ", _fmt(1, 2, 16)[:14]), (b"data", _STEREO16)), "fmt chunk of 14 bytes"),
    "partial frame": (
        _riff((b"fmt ", _fmt(1, 2, 16)), (b"data", _STEREO16[:-2])),
        "data chunk of 158 bytes is not a whole number of 4-byte frames",
    ),
}


@pytest.mark.parametrize("case", list(_BROKEN))
def test_unreadable_file_raises_naming_path_and_cause(tmp_path, case):
    data, cause = _BROKEN[case]
    path = tmp_path / "broken.wav"
    path.write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(str(path))) as err:
            read_wav(path)
    assert cause in str(err.value)


def _stereo_codes(rng, dtype, frames):
    if np.dtype(dtype).kind == "f":
        return rng.normal(size=(frames, 2)).astype(dtype)
    info = np.iinfo(dtype)
    return rng.integers(info.min, info.max, size=(frames, 2), endpoint=True, dtype=dtype)


@pytest.mark.parametrize("tag, dtype", [(1, "<i2"), (1, "pcm24"), (1, "<i4"), (3, "<f4"), (3, "<f8")])
def test_read_matches_scipy_on_extensible_files(tmp_path, rng, tag, dtype):
    if dtype == "pcm24":
        bits, data = 24, rng.integers(0, 256, size=777 * 6, dtype=np.uint8).tobytes()
    else:
        bits, data = 8 * np.dtype(dtype).itemsize, _stereo_codes(rng, np.dtype(dtype), 777).tobytes()
    path = tmp_path / "x.wav"
    path.write_bytes(_riff((b"fmt ", _fmt(tag, 2, bits, extensible=True)), (b"data", data)))
    _assert_reads_as_scipy(path)


@pytest.mark.parametrize("info", [b"INFOISFT\x04\x00\x00\x00abc\x00", b"INFOINAM\x03\x00\x00\x00ab\x00"])
@pytest.mark.parametrize("where", ["before fmt", "before data", "after data"])
def test_read_skips_list_chunks_of_even_and_odd_size(tmp_path, rng, info, where):
    """A LIST chunk anywhere, of 16 bytes or of 15 with a pad byte, leaves the samples as scipy reads them."""
    chunks = [(b"fmt ", _fmt(1, 2, 16)), (b"data", _stereo_codes(rng, np.int16, 301).tobytes())]
    chunks.insert({"before fmt": 0, "before data": 1, "after data": 2}[where], (b"LIST", info))
    (tmp_path / "x.wav").write_bytes(_riff(*chunks))
    _assert_reads_as_scipy(tmp_path / "x.wav")


@pytest.mark.parametrize("frames", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK])
@pytest.mark.parametrize("encoding", ["int16", "pcm24", "float32"])
def test_read_matches_scipy_across_block_edges(tmp_path, rng, frames, encoding):
    path = tmp_path / "x.wav"
    if encoding == "pcm24":
        data = rng.integers(0, 256, size=frames * 6, dtype=np.uint8).tobytes()
        path.write_bytes(_riff((b"fmt ", _fmt(1, 2, 24)), (b"data", data)))
    else:
        wavfile.write(str(path), 44100, _stereo_codes(rng, np.dtype(encoding), frames))
    buf = read_wav(path)
    assert buf.samples.tobytes() == _scipy_rows(path).tobytes()


@pytest.mark.parametrize("encoding", ["float32", "pcm16"])
def test_read_holds_no_more_than_a_block_besides_its_output(tmp_path, rng, encoding):
    write_wav(tmp_path / "x.wav", AudioBuffer(rng.uniform(-1, 1, size=(2, 60 * 44100)), 44100), encoding=encoding)
    tracemalloc.start()
    try:
        buf = read_wav(tmp_path / "x.wav")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= buf.samples.nbytes + 2e6, f"peak {peak / 1e6:.2f} MB for a {buf.samples.nbytes / 1e6:.1f} MB output"


@pytest.mark.parametrize("frames", [1, 1000, 2 * BLOCK + 1])
@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("encoding", ["float32", "pcm16"])
def test_write_equals_scipy_bytes(tmp_path, rng, encoding, channels, frames):
    """Header and samples are the bytes scipy writes for the float32 cast or the rounded, clipped pcm16 codes."""
    samples = rng.uniform(-1.2, 1.2, size=(channels, frames))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the pcm16 clip warning
        write_wav(tmp_path / "ours.wav", AudioBuffer(samples, 22050), encoding=encoding)
    if encoding == "float32":
        data = samples.T.astype(np.float32)
    else:
        data = np.clip(np.round(samples.T * 32768), -32768, 32767).astype(np.int16)
    wavfile.write(str(tmp_path / "scipy.wav"), 22050, data[:, 0] if channels == 1 else data)
    assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()


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


def test_write_refuses_more_than_a_riff_file_holds(tmp_path):
    buf = object.__new__(AudioBuffer)  # 4 GiB of float32 frames without checking 2**30 samples
    buf.samples, buf.sample_rate = np.broadcast_to(0.0, (2, 2**29)), 44100
    with pytest.raises(ValueError, match="536870912 frames of 2 channels exceed a RIFF file's 4 GiB"):
        write_wav(tmp_path / "big.wav", buf)
    assert not (tmp_path / "big.wav").exists()
