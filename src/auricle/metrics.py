"""Interaural-cue and energy-ratio metrics for spatial fidelity.

Five quantities are computed between a reference stem and an estimated stem:

* ITD, the interaural time difference: the RMS-weighted mode of frame-wise
  GCC-PHAT lags, positive when the left channel leads.
* ILD, the interaural level difference: the decibel ratio of whole-signal
  channel energies.
* delta-ITD / delta-ILD: absolute changes of the cues, in microseconds / dB.
* SSR and SRR: frame-wise energy ratios built from a per-channel gain+delay
  projection of the reference onto the estimate. SSR compares the reference
  against the spatial error (projection minus reference), SRR compares the
  projection against the residual (estimate minus projection). Both report
  the median over non-silent frames.
"""

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.fft import next_fast_len

from .audio import AudioBuffer
from .dsp import Frame, frame_signal, rms_weight

__all__ = [
    "MetricConfig",
    "MetricStatus",
    "MetricValue",
    "SpatialDecomposition",
    "align_pair",
    "gcc_phat_tdoa",
    "signal_itd",
    "signal_itd_lag",
    "signal_ild",
    "delta_itd",
    "delta_ild",
    "project_gain_delay",
    "ssr_srr",
]

# Floor applied to dB values whose energy ratio underflows to zero.
NEG_DB_CLAMP = -200.0


@dataclass(frozen=True)
class MetricConfig:
    """Analysis constants shared by all metrics.

    ITD framing uses non-overlapping Tukey-windowed frames; the SSR/SRR
    framing is rectangular with 50% overlap. Frames whose reference RMS falls
    below ``silence_threshold`` are excluded everywhere.
    """

    itd_frame_len: float = 0.5
    itd_hop: float = 0.5
    tukey_alpha: float = 0.5
    silence_threshold: float = 5e-4
    max_lag: float = 1e-3
    ssr_window: float = 1.0
    ssr_hop: float = 0.5
    proj_max_delay: float = 1e-3
    phat_floor: float = 1e-15

    def __post_init__(self):
        for name in (
            "itd_frame_len",
            "itd_hop",
            "tukey_alpha",
            "silence_threshold",
            "max_lag",
            "ssr_window",
            "ssr_hop",
            "proj_max_delay",
            "phat_floor",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        if self.ssr_hop > self.ssr_window:
            raise ValueError(
                f"ssr_hop {self.ssr_hop!r} s exceeds ssr_window {self.ssr_window!r} s; "
                "frames would skip audio"
            )
        if self.tukey_alpha > 1:
            raise ValueError(f"tukey_alpha must be at most 1, got {self.tukey_alpha!r}")
        if self.itd_frame_len < 2 * self.max_lag:
            raise ValueError(
                f"itd_frame_len {self.itd_frame_len!r} s is shorter than "
                f"2 * max_lag = {2 * self.max_lag!r} s"
            )

    def max_lag_samples(self, sample_rate: int) -> int:
        lags = int(math.floor(self.max_lag * sample_rate))
        if lags < 1:
            raise ValueError(f"max_lag {self.max_lag} s is under one sample at {sample_rate} Hz")
        return lags

    def proj_delay_samples(self, sample_rate: int) -> int:
        return int(math.floor(self.proj_max_delay * sample_rate))


DEFAULT_CONFIG = MetricConfig()


class MetricStatus(str, Enum):
    FINITE = "finite"
    POSITIVE_INFINITE = "positive-infinite"
    UNDEFINED = "undefined"


@dataclass(frozen=True)
class MetricValue:
    """A metric result that may be finite, infinite (perfect) or undefined.

    Undefined carries no number (e.g. an all-silent signal has no ITD).
    Positive infinity marks a zero-error denominator and sorts above every
    finite value when medians are taken.
    """

    value: float | None
    status: MetricStatus
    unit: str = ""

    @classmethod
    def finite(cls, value: float, unit: str = "") -> "MetricValue":
        return cls(float(value), MetricStatus.FINITE, unit)

    @classmethod
    def infinite(cls, unit: str = "") -> "MetricValue":
        return cls(None, MetricStatus.POSITIVE_INFINITE, unit)

    @classmethod
    def undefined(cls, unit: str = "") -> "MetricValue":
        return cls(None, MetricStatus.UNDEFINED, unit)

    @classmethod
    def from_float(cls, value: float, unit: str = "") -> "MetricValue":
        if math.isnan(value):
            return cls.undefined(unit)
        if value == math.inf:
            return cls.infinite(unit)
        if value == -math.inf:
            return cls.finite(NEG_DB_CLAMP, unit)
        return cls.finite(value, unit)

    def as_float(self) -> float:
        if self.status is MetricStatus.FINITE:
            return self.value
        if self.status is MetricStatus.POSITIVE_INFINITE:
            return math.inf
        return math.nan

    @property
    def is_finite(self) -> bool:
        return self.status is MetricStatus.FINITE

    @property
    def is_infinite(self) -> bool:
        return self.status is MetricStatus.POSITIVE_INFINITE

    @property
    def is_undefined(self) -> bool:
        return self.status is MetricStatus.UNDEFINED


def gcc_phat_tdoa(frame: Frame, cfg: MetricConfig = DEFAULT_CONFIG) -> int:
    """Frame-wise TDOA in samples via phase-transform-weighted cross-correlation.

    The cross-spectrum of the (windowed) channels is magnitude-normalized,
    then inverse-transformed; the returned lag maximizes the correlation over
    lags within +-max_lag. A positive lag means the sound reaches the left
    ear first. The frame must span at least 2 * max_lag samples.
    """
    if frame.num_channels != 2:
        raise ValueError("GCC-PHAT needs a stereo frame")
    n = frame.length
    max_shift = cfg.max_lag_samples(frame.sample_rate)
    if n < 2 * max_shift:
        raise ValueError(f"frame of {n} samples is shorter than 2 * max_lag = {2 * max_shift}")
    nfft = next_fast_len(2 * n)
    spec_l = np.fft.rfft(frame.samples[0], nfft)
    spec_r = np.fft.rfft(frame.samples[1], nfft)
    cross = spec_l * np.conj(spec_r)
    cross /= np.maximum(np.abs(cross), cfg.phat_floor)
    cc = np.fft.irfft(cross, nfft)

    ring = np.concatenate((cc[-max_shift:], cc[: max_shift + 1]))
    # ring index i corresponds to correlation shift i - max_shift; a left lead
    # of d samples peaks at shift -d, so the lag axis is negated.
    return max_shift - int(np.argmax(ring))


def signal_itd_lag(buffer: AudioBuffer, cfg: MetricConfig = DEFAULT_CONFIG) -> int | None:
    """Whole-signal ITD as an integer lag in samples, or None if all silent.

    The signal is framed (Tukey window, no overlap by default), silent frames
    are dropped, and each remaining frame votes for its GCC-PHAT lag with its
    RMS weight. The winning lag is the weighted mode; ties go to the smaller
    magnitude, then to the negative lag.
    """
    if buffer.num_channels != 2:
        raise ValueError("ITD needs a stereo signal")
    frames = frame_signal(buffer, cfg.itd_frame_len, cfg.itd_hop, "tukey", cfg.tukey_alpha)
    votes: dict[int, float] = {}
    for frame in frames:
        if frame.weight < cfg.silence_threshold:
            continue
        lag = gcc_phat_tdoa(frame, cfg)
        votes[lag] = votes.get(lag, 0.0) + frame.weight
    if not votes:
        return None
    return max(votes.items(), key=lambda kv: (kv[1], -abs(kv[0]), -kv[0]))[0]


def signal_itd(buffer: AudioBuffer, cfg: MetricConfig = DEFAULT_CONFIG) -> MetricValue:
    """Whole-signal ITD in seconds; undefined when every frame is silent."""
    lag = signal_itd_lag(buffer, cfg)
    if lag is None:
        return MetricValue.undefined("s")
    return MetricValue.finite(lag / buffer.sample_rate, "s")


def signal_ild(buffer: AudioBuffer) -> MetricValue:
    """Whole-signal level difference 10*log10(sum L^2 / sum R^2) in dB."""
    if buffer.num_channels != 2:
        raise ValueError("ILD needs a stereo signal")
    energy_l = float(np.sum(buffer.left**2))
    energy_r = float(np.sum(buffer.right**2))
    if energy_l == 0.0 and energy_r == 0.0:
        return MetricValue.undefined("dB")
    if energy_r == 0.0:
        return MetricValue.infinite("dB")
    if energy_l == 0.0:
        return MetricValue.finite(NEG_DB_CLAMP, "dB")
    return MetricValue.finite(10.0 * math.log10(energy_l / energy_r), "dB")


def _check_comparable(reference: AudioBuffer, estimate: AudioBuffer):
    if reference.sample_rate != estimate.sample_rate:
        raise ValueError(
            f"sample-rate mismatch: reference {reference.sample_rate} Hz "
            f"vs estimate {estimate.sample_rate} Hz"
        )
    if reference.num_channels != estimate.num_channels:
        raise ValueError("reference and estimate channel counts differ")


def align_pair(
    reference: AudioBuffer, estimate: AudioBuffer, cfg: MetricConfig = DEFAULT_CONFIG
) -> tuple[AudioBuffer, AudioBuffer]:
    """Check that two signals are comparable and trim them to a common length.

    Sample rates and channel counts must match. Lengths may differ by at most
    one ssr_window; the longer signal is trimmed with a warning.
    """
    _check_comparable(reference, estimate)
    fs = reference.sample_rate
    diff = abs(reference.num_samples - estimate.num_samples)
    if diff > int(round(cfg.ssr_window * fs)):
        raise ValueError(
            f"length mismatch of {diff} samples exceeds one {cfg.ssr_window} s frame; "
            "refusing to compare misaligned signals"
        )
    if diff:
        warnings.warn(f"trimming {diff} trailing samples to align signals", stacklevel=2)
        total = min(reference.num_samples, estimate.num_samples)
        reference = AudioBuffer(reference.samples[:, :total], fs)
        estimate = AudioBuffer(estimate.samples[:, :total], fs)
    return reference, estimate


def delta_itd(
    reference: AudioBuffer, estimate: AudioBuffer, cfg: MetricConfig = DEFAULT_CONFIG
) -> MetricValue:
    """|ITD(reference) - ITD(estimate)| in microseconds.

    Computed on integer lags, so every finite value is an exact multiple of
    one sample period. Undefined if either signal is all silent.
    """
    _check_comparable(reference, estimate)
    lag_ref = signal_itd_lag(reference, cfg)
    lag_est = signal_itd_lag(estimate, cfg)
    if lag_ref is None or lag_est is None:
        return MetricValue.undefined("us")
    return MetricValue.finite(abs(lag_ref - lag_est) * 1e6 / reference.sample_rate, "us")


def delta_ild(reference: AudioBuffer, estimate: AudioBuffer) -> MetricValue:
    """|ILD(reference) - ILD(estimate)| in dB; a common gain cancels out."""
    _check_comparable(reference, estimate)
    ild_ref = signal_ild(reference)
    ild_est = signal_ild(estimate)
    if ild_ref.is_undefined or ild_est.is_undefined:
        return MetricValue.undefined("dB")
    if ild_ref.is_infinite and ild_est.is_infinite:
        # Both signals are fully left; the cue is degenerate but unchanged.
        return MetricValue.finite(0.0, "dB")
    if ild_ref.is_infinite or ild_est.is_infinite:
        return MetricValue.infinite("dB")
    return MetricValue.finite(abs(ild_ref.value - ild_est.value), "dB")


@dataclass
class SpatialDecomposition:
    """Per-channel gain+delay projection of a reference frame onto an estimate.

    ``projected + residual_error == estimate`` holds exactly by construction;
    ``spatial_error == projected - reference``. ``gain`` and ``delay`` are the
    per-channel least-squares parameters; channels whose reference is all
    zero are flagged in ``reference_silent`` and projected to zero.
    """

    projected: np.ndarray
    spatial_error: np.ndarray
    residual_error: np.ndarray
    gain: np.ndarray
    delay: np.ndarray
    reference_silent: np.ndarray


def _project(context: np.ndarray, offset: int, est: np.ndarray, max_delay: int):
    """Least-squares per-channel gain+delay projection of a reference block onto est.

    ``context[:, offset : offset + n]`` is the undelayed reference block for
    an ``(channels, n)`` estimate; delay d reads
    ``context[:, offset - d : offset - d + n]`` for |d| <= max_delay, so the
    caller decides whether shifted-in samples are zeros or surrounding
    signal. Ties on the residual go to the smaller |d|, then the negative d.
    A channel whose every shift has zero energy is flagged silent and
    projected to zero.
    """
    channels, n = est.shape
    projected = np.zeros_like(est)
    gain = np.zeros(channels)
    delay = np.zeros(channels, dtype=int)
    silent = np.zeros(channels, dtype=bool)
    for c in range(channels):
        region = context[c, offset - max_delay : offset + max_delay + n]
        corr = np.correlate(region, est[c], mode="valid")  # index i <-> delay d = max_delay - i
        squared = np.cumsum(np.concatenate(([0.0], region**2)))
        energies = squared[n:] - squared[: 2 * max_delay + 1]
        usable = energies > 0.0
        if not np.any(usable):
            silent[c] = True
            continue
        scores = np.full_like(energies, -np.inf)
        scores[usable] = corr[usable] ** 2 / energies[usable]
        delays = max_delay - np.nonzero(scores == scores.max())[0]
        d = int(min(delays, key=lambda t: (abs(t), t)))
        # Recompute the gain with plain dot products on the winning segment:
        # when est is exactly the (scaled) segment this reproduces the scale
        # exactly, so the residual cancels to zero rather than to rounding noise.
        seg = context[c, offset - d : offset - d + n]
        gain[c] = np.dot(seg, est[c]) / np.dot(seg, seg)
        delay[c] = d
        projected[c] = gain[c] * seg
    return SpatialDecomposition(
        projected=projected,
        spatial_error=projected - context[:, offset : offset + n],
        residual_error=est - projected,
        gain=gain,
        delay=delay,
        reference_silent=silent,
    )


def project_gain_delay(
    ref_frame: Frame, est_frame: Frame, cfg: MetricConfig = DEFAULT_CONFIG
) -> SpatialDecomposition:
    """Decompose an estimate frame into projection, spatial and residual error.

    Each channel independently searches integer delays within
    +-proj_max_delay (reference shifted with zero fill) and applies the
    closed-form least-squares gain. For estimates that really are per-channel
    gain+delay copies of the reference frame, the residual is zero.
    """
    ref = ref_frame.samples
    est = est_frame.samples
    if ref.shape != est.shape:
        raise ValueError(f"frame shapes differ: {ref.shape} vs {est.shape}")
    max_delay = cfg.proj_delay_samples(ref_frame.sample_rate)
    context = np.pad(ref, ((0, 0), (max_delay, max_delay)))
    return _project(context, max_delay, est, max_delay)


def _energy(block: np.ndarray) -> float:
    return sum(float(np.dot(row, row)) for row in block)


def _energy_ratio_db(numerator: float, denominator: float) -> float:
    if denominator == 0.0:
        return math.inf
    if numerator == 0.0:
        return -math.inf
    return 10.0 * math.log10(numerator / denominator)


def ssr_srr(
    reference: AudioBuffer, estimate: AudioBuffer, cfg: MetricConfig = DEFAULT_CONFIG
) -> tuple[MetricValue, MetricValue]:
    """Median frame-wise spatial and residual distortion ratios, in dB.

    Signals are cut into rectangular frames (ssr_window / ssr_hop); frames
    whose reference RMS is below the silence threshold are skipped. Per frame
    and channel the reference is projected onto the estimate with the best
    gain and integer delay, drawing shifted samples from the surrounding
    signal so a globally delayed estimate incurs no frame-boundary penalty.
    Frame values with a zero error denominator are positive infinity and sort
    above all finite values in the median. Lengths may differ by at most one
    frame (see ``align_pair``).
    """
    reference, estimate = align_pair(reference, estimate, cfg)
    fs = reference.sample_rate
    n = int(round(cfg.ssr_window * fs))
    hop = int(round(cfg.ssr_hop * fs))
    max_delay = cfg.proj_delay_samples(fs)
    # Right padding covers the last frame window plus the largest shift.
    context = np.pad(reference.samples, ((0, 0), (max_delay, max_delay + n)))

    ssr_frames = []
    srr_frames = []
    for start in range(0, reference.num_samples, hop):
        if rms_weight(reference.samples[:, start : start + n]) < cfg.silence_threshold:
            continue
        est_block = estimate.samples[:, start : start + n]
        if est_block.shape[1] < n:
            est_block = np.pad(est_block, ((0, 0), (0, n - est_block.shape[1])))
        offset = max_delay + start
        dec = _project(context, offset, est_block, max_delay)
        ref_energy = _energy(context[:, offset : offset + n])
        ssr_frames.append(_energy_ratio_db(ref_energy, _energy(dec.spatial_error)))
        srr_frames.append(_energy_ratio_db(_energy(dec.projected), _energy(dec.residual_error)))

    if not ssr_frames:
        return MetricValue.undefined("dB"), MetricValue.undefined("dB")
    return (
        MetricValue.from_float(float(np.median(ssr_frames)), "dB"),
        MetricValue.from_float(float(np.median(srr_frames)), "dB"),
    )
