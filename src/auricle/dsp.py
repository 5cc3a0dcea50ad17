"""Framing, windowing, FFT convolution and RMS energy primitives."""

import math
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache

import numpy as np

from .audio import AudioBuffer

__all__ = ["Frame", "frame_signal", "fft_convolve", "rms_weight"]

# FFT samples in one pass of fft_convolve (512 KiB of float64; two stems render at once)
_PASS_SAMPLES = 1 << 16
# Samples in one leaf of _dot's pairwise tree: the largest product it builds (512 KiB of float64)
_DOT_LEAF = 1 << 16


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
    """One signal's frames ``[start, start + n)``, every ``hop`` samples from 0: every metric's frame grid and gate.

    A frame is cut, zero-filled past the signal's end and windowed when indexed. ``weights``, all taken up
    front from the real samples, feed the gate: ``live(threshold)`` gives the indices of the frames that pass.
    """

    def __init__(self, buffer: AudioBuffer, n: int, hop: int, win: np.ndarray | None = None):
        self._buffer, self._n, self._win = buffer, n, win
        self.starts = range(0, buffer.num_samples, hop)
        self.weights = [rms_weight(buffer.samples[:, start : start + n]) for start in self.starts]

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, index: int) -> Frame:
        start = self.starts[index]
        block = _span(self._buffer.samples, start, start + self._n)
        if self._win is not None:
            block = block * self._win
        return Frame(block, self.weights[index], self._buffer.sample_rate)

    def live(self, threshold: float) -> list[int]:
        return [i for i, weight in enumerate(self.weights) if weight >= threshold]


def _span(x: np.ndarray, start: int, stop: int) -> np.ndarray:
    """``x[..., start:stop]`` reading zeros outside the signal; a view when inside it."""
    length = x.shape[-1]
    if start >= 0 and stop <= length:
        return x[..., start:stop]
    out = np.zeros(x.shape[:-1] + (stop - start,))
    lo, hi = max(start, 0), min(stop, length)
    if lo < hi:
        out[..., lo - start : hi - start] = x[..., lo:hi]
    return out


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Dot product of two 1-D arrays with the bits of ``np.add.reduce(a * b)``, never BLAS: numpy's pairwise
    sum split the same way, at n // 2 rounded down to a multiple of 8, into leaves of at most ``_DOT_LEAF``."""
    n = a.shape[0]
    if n <= _DOT_LEAF:
        return float(np.add.reduce(a * b))
    half = n // 2 - n // 2 % 8
    return _dot(a[:half], b[:half]) + _dot(a[half:], b[half:])


def rms_weight(samples) -> float:
    """Max over channels of sqrt(mean(x^2)). Accepts (n,) or (channels, n)."""
    arr = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    if arr.shape[1] == 0:
        raise ValueError("cannot compute RMS of an empty block")
    return max(math.sqrt(_dot(row, row) / arr.shape[1]) for row in arr)


def _tukey(length: int, alpha: float) -> np.ndarray:
    """``scipy.signal.windows.tukey(length, alpha, sym=False)`` for 0 < alpha <= 1, by scipy's operations.

    That is scipy's symmetric window of length + 1 samples less the last, which the taper branch never computes.
    """
    if alpha == 1:  # scipy's Hann window
        return (0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, length + 1)))[:-1]
    n = np.arange(length, dtype=np.float64)
    width = int(math.floor(alpha * length / 2.0))
    head = 0.5 * (1 + np.cos(np.pi * (-1 + 2.0 * n[: width + 1] / alpha / length)))
    tail = 0.5 * (1 + np.cos(np.pi * (-2.0 / alpha + 1 + 2.0 * n[length - width :] / alpha / length)))
    return np.concatenate((head, np.ones(length - 2 * width - 1), tail))


@cache
def _smooth_numbers(bits: int) -> tuple[int, ...]:
    """The 2·3·5·7·11-smooth integers below 2**bits, ascending."""
    numbers = [1]
    for prime in (2, 3, 5, 7, 11):
        more = []
        for n in numbers:
            while n < 1 << bits:
                more.append(n)
                n *= prime
        numbers = more
    return tuple(sorted(numbers))


def _next_fast_len(target: int) -> int:
    """The smallest 2·3·5·7·11-smooth integer >= target >= 1: ``scipy.fft.next_fast_len(target)``.

    2**target.bit_length() is one such integer, so the answer lies in the memoized table below twice that.
    """
    table = _smooth_numbers(target.bit_length() + 1)
    return table[bisect_left(table, target)]


def _make_window(name: str, length: int, tukey_alpha: float) -> np.ndarray:
    if name == "tukey":
        return _tukey(length, tukey_alpha)
    if name == "rectangular":
        return np.ones(length)
    raise ValueError(f"unknown window {name!r}; use 'tukey' or 'rectangular'")


def frame_signal(
    buffer: AudioBuffer,
    frame_len: float,
    hop: float,
    window: str = "tukey",
    tukey_alpha: float = 0.5,
) -> _Frames:
    """Cut ``buffer`` into frames of ``frame_len`` seconds every ``hop`` seconds.

    Frame t starts at sample t*hop*fs. The last frame is zero-padded to full
    length but its weight is computed from the real samples only; a signal
    shorter than one frame yields a single padded frame. Weights are taken
    before windowing so the silence gate is not biased by edge taper, and all
    at once (``weights``); each frame is built when indexed. ``tukey_alpha``, the
    tapered fraction of a Tukey frame, lies in (0, 1]; 1 gives a Hann window.
    """
    fs = buffer.sample_rate
    n = int(round(frame_len * fs))
    h = int(round(hop * fs))
    if n < 2:
        raise ValueError(f"frame of {frame_len} s is under 2 samples at {fs} Hz")
    if h < 1:
        raise ValueError(f"hop of {hop} s is under 1 sample at {fs} Hz")
    if not 0 < tukey_alpha <= 1:
        raise ValueError(f"tukey_alpha must lie in (0, 1], got {tukey_alpha!r}")

    return _Frames(buffer, n, h, _make_window(window, n, tukey_alpha))


def fft_convolve(signal, kernel, out=None) -> np.ndarray:
    """Linear convolution of two 1-D sequences by overlap-add FFT blocks.

    Output length is len(signal) + len(kernel) - 1, matching direct
    time-domain convolution to within float64 rounding. Blocks are
    transformed a few at a time, so besides the output only a fixed,
    frame-sized set of temporaries is alive. ``out``, a writable 1-D float64
    array of the output length apart from the inputs, is overwritten if given.
    """
    x = np.asarray(signal, dtype=np.float64)
    k = np.asarray(kernel, dtype=np.float64)
    if x.ndim != 1 or k.ndim != 1:
        raise ValueError("fft_convolve takes 1-D sequences")
    if x.size == 0 or k.size == 0:
        raise ValueError("fft_convolve inputs must be non-empty")
    n, taps = x.size, k.size
    size = n + taps - 1
    if out is None:
        out = np.empty(size)
    elif not isinstance(out, np.ndarray) or out.dtype != np.float64 or out.shape != (size,):
        got = f"{out.dtype} {out.shape}" if isinstance(out, np.ndarray) else type(out).__name__
        raise ValueError(f"out must be a float64 array of shape ({size},), got {got}")
    elif not out.flags.writeable or np.may_share_memory(out, x) or np.may_share_memory(out, k):
        raise ValueError("out must be writable and share no memory with signal or kernel")
    # One block when the output fits in max(8 kernel lengths, 1024) samples,
    # else blocks of that size. A block is at least twice the kernel, so its
    # tail (taps - 1 samples) overlaps only the next block.
    nfft = _next_fast_len(max(min(size, max(8 * taps, 1024)), 2 * taps))
    step = nfft - taps + 1  # signal samples per block
    per_pass = max(1, _PASS_SAMPLES // nfft) * step
    spectrum = np.fft.rfft(k, nfft)
    for first in range(0, n, per_pass):
        chunk = x[first : first + per_pass]
        count = -(-chunk.size // step)
        # Blocks carry their own zero padding: numpy.fft pads a short row more slowly than it transforms a full one.
        blocks = np.zeros((count, nfft))
        full = chunk.size // step
        blocks[:full, :step] = chunk[: full * step].reshape(full, step)
        blocks[full:, : chunk.size - full * step] = chunk[full * step :]
        y = np.fft.irfft(np.fft.rfft(blocks) * spectrum, nfft)
        # Block i starts at i * step; its last taps - 1 samples overlap block i + 1.
        acc = np.zeros((count + 1) * step)
        acc[: count * step] = y[:, :step].reshape(-1)
        acc[step:].reshape(count, step)[:, : taps - 1] += y[:, step:]
        span = min(acc.size, size - first)
        # The last pass wrote its last block's tail over this pass's first
        # taps - 1 samples. + 0.0 maps -0.0 to 0.0, as adding into zeros did.
        held = 0 if first == 0 else taps - 1
        out[first : first + held] += acc[:held]
        np.add(acc[held:span], 0.0, out=out[first + held : first + span])
    return out
