"""Audio buffers and WAV file I/O.

Samples are held as 64-bit floats everywhere inside the library; quantization
happens only when a file is written. Integer PCM is normalized to [-1, 1) by
dividing by 2^(bits-1) on read.
"""

import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["AudioBuffer", "read_wav", "write_wav"]

PCM16_SCALE = 32768.0

# Frames converted per step of read_wav and write_wav, so a file's raw bytes are never held whole
_BLOCK_FRAMES = 1 << 15
_PCM, _FLOAT, _EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
# The sub-format GUID of WAVE_FORMAT_EXTENSIBLE is the format tag followed by these 12 bytes
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
_CODES = {  # (format tag, bits per sample) -> (dtype of one code, full scale)
    (_PCM, 16): ("<i2", 2**15),
    (_PCM, 24): ("<i4", 2**31),  # widened into the top three bytes of an int32
    (_PCM, 32): ("<i4", 2**31),
    (_FLOAT, 32): ("<f4", 1),
    (_FLOAT, 64): ("<f8", 1),
}
_TAG_NAMES = {_PCM: "PCM", _FLOAT: "float", 0x0006: "A-law", 0x0007: "mu-law"}


@dataclass
class AudioBuffer:
    """Multichannel audio: ``samples`` has shape (channels, num_samples).

    A 1-D array is promoted to a single channel. All channels share one
    length, the sample rate is positive, and every sample is finite; violating
    any of these raises ValueError at construction.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.samples, dtype=np.float64))
        if arr.ndim != 2:
            raise ValueError("samples must be a 1-D or 2-D array")
        if arr.shape[1] == 0:
            raise ValueError("audio buffer has zero length")
        if not isinstance(self.sample_rate, (int, np.integer)) or self.sample_rate <= 0:
            raise ValueError(f"sample rate must be a positive integer, got {self.sample_rate!r}")
        # NaN propagates through min and max, so two reductions see every sample without a mask-sized temporary
        if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
            raise ValueError("audio buffer contains NaN or Inf samples")
        self.samples = arr
        self.sample_rate = int(self.sample_rate)

    @property
    def num_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def num_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def duration(self) -> float:
        """Length in seconds."""
        return self.num_samples / self.sample_rate

    @property
    def left(self) -> np.ndarray:
        return self.samples[0]

    @property
    def right(self) -> np.ndarray:
        if self.num_channels < 2:
            raise ValueError("buffer has no right channel")
        return self.samples[1]


def read_wav(path) -> AudioBuffer:
    """Read a little-endian RIFF WAV file of PCM-16, PCM-24, PCM-32, float32 or float64 samples.

    WAVE_FORMAT_EXTENSIBLE files of those sample formats are read too, and
    chunks other than ``fmt `` and ``data`` are skipped. Integer codes are
    scaled to [-1, 1); float data is passed through unchanged, so a float32
    write/read roundtrip is bit-exact. Any other format (8-bit or 64-bit PCM,
    mu-law, RF64, ...) and a truncated or malformed file raise ValueError
    naming the path.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such audio file: {path}")
    try:
        with open(path, "rb") as f:
            return _read_riff(f)
    except ValueError as exc:
        raise ValueError(f"unsupported or corrupt WAV file {path}: {exc}") from exc


def _read_riff(f) -> AudioBuffer:
    """Walk the chunks of an open WAV file to its samples and convert them a block of frames at a time."""
    head = f.read(12)
    if head[:4] in (b"RF64", b"RIFX"):
        raise ValueError(f"{head[:4].decode()} files are not supported")
    if head[:4] != b"RIFF" or head[8:] != b"WAVE":
        raise ValueError(f"not a RIFF WAVE file (starts {head[:4]!r})")
    fmt = None
    while True:
        header = f.read(8)
        if len(header) < 8:
            raise ValueError("no fmt chunk" if fmt is None else "no data chunk")
        chunk, size = struct.unpack("<4sI", header)
        if chunk == b"data":
            break
        if chunk == b"fmt ":
            fmt = f.read(size)
            f.seek(size % 2, 1)  # a chunk of odd size is followed by a pad byte
        else:
            f.seek(size + size % 2, 1)
    if fmt is None:
        raise ValueError("no fmt chunk before the data chunk")
    if len(fmt) < 16:
        raise ValueError(f"fmt chunk of {len(fmt)} bytes")
    tag, channels, rate, _, block_align, bits = struct.unpack_from("<HHIIHH", fmt)
    if tag == _EXTENSIBLE and fmt[28:40] == _GUID_TAIL:
        tag = struct.unpack_from("<I", fmt, 24)[0]
    if (tag, bits) not in _CODES:
        raise ValueError(f"unsupported sample format {bits}-bit {_TAG_NAMES.get(tag, f'format tag {tag:#06x}')}")
    dtype, scale = _CODES[tag, bits]
    width = bits // 8
    if channels < 1 or block_align != channels * width:
        raise ValueError(f"block align {block_align} is not {channels} channels x {width} bytes")
    if size % block_align:
        raise ValueError(f"data chunk of {size} bytes is not a whole number of {block_align}-byte frames")

    frames = size // block_align
    samples = np.empty((channels, frames))
    for first in range(0, frames, _BLOCK_FRAMES):
        count = min(_BLOCK_FRAMES, frames - first)
        raw = f.read(count * block_align)
        if len(raw) < count * block_align:
            raise ValueError(f"data chunk ends after {first * block_align + len(raw)} of {size} bytes")
        if width == 3:
            wide = np.zeros((count * channels, 4), np.uint8)
            wide[:, 1:] = np.frombuffer(raw, np.uint8).reshape(-1, 3)
            raw = wide
        codes = np.frombuffer(raw, dtype).reshape(count, channels)
        # Converts, scales and transposes in one pass; the scales are powers of two, so times 1 / scale is exact.
        np.multiply(codes.T, 1 / scale, out=samples[:, first : first + count])
    return AudioBuffer(samples, rate)


def write_wav(path, buffer: AudioBuffer, encoding: str = "float32") -> None:
    """Write ``buffer`` to ``path`` as float32 (lossless) or pcm16.

    The header is laid out as ``scipy.io.wavfile.write`` lays it out. pcm16
    amplitudes outside [-1, 1] are clipped to the nearest code and a warning
    is emitted.
    """
    if not isinstance(buffer, AudioBuffer):
        raise TypeError("write_wav expects an AudioBuffer")
    samples = buffer.samples
    channels, frames = samples.shape

    if encoding == "float32":
        tag, dtype = _FLOAT, np.dtype("<f4")
    elif encoding == "pcm16":
        tag, dtype = _PCM, np.dtype("<i2")
        peak = max(samples.max(), -samples.min())
        if peak > 1.0:
            warnings.warn(f"pcm16 write clipped samples (peak {peak:.4f} > 1.0) in {path}", stacklevel=2)
    else:
        raise ValueError(f"unknown encoding {encoding!r}; use 'float32' or 'pcm16'")

    align = channels * dtype.itemsize
    size = frames * align
    fmt = struct.pack("<HHIIHH", tag, channels, buffer.sample_rate, buffer.sample_rate * align, align, 8 * dtype.itemsize)
    fact = b""
    if tag == _FLOAT:  # non-PCM data: a cbSize field and a fact chunk with the frame count
        fmt += b"\0\0"
        fact = struct.pack("<4sII", b"fact", 4, frames)
    riff_size = 4 + 8 + len(fmt) + len(fact) + 8 + size  # WAVE, then the fmt, fact and data chunks
    if riff_size > 0xFFFFFFFF:
        raise ValueError(f"{frames} frames of {channels} channels exceed a RIFF file's 4 GiB")

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    block = np.empty((min(_BLOCK_FRAMES, frames), channels), dtype)
    with open(path, "wb") as f:
        f.write(struct.pack("<4sI4s4sI", b"RIFF", riff_size, b"WAVE", b"fmt ", len(fmt)) + fmt + fact)
        f.write(struct.pack("<4sI", b"data", size))
        for first in range(0, frames, _BLOCK_FRAMES):
            out = block[: frames - first]
            # One channel at a time: the same bytes as casting the strided transpose, in less than half the time.
            for c, row in enumerate(samples[:, first : first + len(out)]):
                out[:, c] = row if tag == _FLOAT else np.clip(np.round(row * PCM16_SCALE), -32768, 32767)
            f.write(out.data)
