"""Framing, windowing, FFT convolution and RMS energy primitives."""

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.signal import oaconvolve, windows

from .audio import AudioBuffer

__all__ = ["Frame", "frame_signal", "fft_convolve", "rms_weight"]


@dataclass
class Frame:
    """One analysis frame of a signal.

    ``samples`` (channels, length) already has the analysis window applied;
    ``weight`` is the silence-gating RMS weight computed from the unwindowed
    samples, max over channels.
    """

    samples: np.ndarray
    weight: float
    sample_rate: int

    @property
    def num_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def length(self) -> int:
        return self.samples.shape[1]


class _Frames(Sequence):
    """The frames of one signal, each cut, weighed and windowed when indexed."""

    def __init__(self, buffer: AudioBuffer, starts: range, win: np.ndarray):
        self._buffer, self._starts, self._win = buffer, starts, win

    def __len__(self) -> int:
        return len(self._starts)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return _Frames(self._buffer, self._starts[index], self._win)
        start, n = self._starts[index], len(self._win)
        block = self._buffer.samples[:, start : start + n]
        weight = rms_weight(block)
        if block.shape[1] < n:
            block = np.pad(block, ((0, 0), (0, n - block.shape[1])))
        return Frame(block * self._win, weight, self._buffer.sample_rate)


def rms_weight(samples) -> float:
    """Max over channels of sqrt(mean(x^2)). Accepts (n,) or (channels, n)."""
    arr = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    if arr.shape[1] == 0:
        raise ValueError("cannot compute RMS of an empty block")
    return float(np.max(np.sqrt(np.mean(arr**2, axis=1))))


def _make_window(name: str, length: int, tukey_alpha: float) -> np.ndarray:
    if name == "tukey":
        return windows.tukey(length, alpha=tukey_alpha, sym=False)
    if name == "rectangular":
        return np.ones(length)
    raise ValueError(f"unknown window {name!r}; use 'tukey' or 'rectangular'")


def frame_signal(
    buffer: AudioBuffer,
    frame_len: float,
    hop: float,
    window: str = "tukey",
    tukey_alpha: float = 0.5,
) -> Sequence[Frame]:
    """Cut ``buffer`` into frames of ``frame_len`` seconds every ``hop`` seconds.

    Frame t starts at sample t*hop*fs. The last frame is zero-padded to full
    length but its weight is computed from the real samples only; a signal
    shorter than one frame yields a single padded frame. Weights are taken
    before windowing so the silence gate is not biased by edge taper. Each
    frame is built when indexed, so only the frames in use are held.
    """
    fs = buffer.sample_rate
    n = int(round(frame_len * fs))
    h = int(round(hop * fs))
    if n < 2:
        raise ValueError(f"frame of {frame_len} s is under 2 samples at {fs} Hz")
    if h < 1:
        raise ValueError(f"hop of {hop} s is under 1 sample at {fs} Hz")

    return _Frames(buffer, range(0, buffer.num_samples, h), _make_window(window, n, tukey_alpha))


def fft_convolve(signal, kernel) -> np.ndarray:
    """Linear convolution of two 1-D sequences by overlap-add FFT blocks.

    Output length is len(signal) + len(kernel) - 1, matching direct
    time-domain convolution to within float64 rounding.
    """
    x = np.asarray(signal, dtype=np.float64)
    k = np.asarray(kernel, dtype=np.float64)
    if x.ndim != 1 or k.ndim != 1:
        raise ValueError("fft_convolve takes 1-D sequences")
    if x.size == 0 or k.size == 0:
        raise ValueError("fft_convolve inputs must be non-empty")
    return oaconvolve(x, k)
