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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, fields
from enum import Enum
from itertools import accumulate

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio import AudioBuffer
from .dsp import Frame, _dot, _Frames, _next_fast_len, _span, frame_signal

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
# Floor on cross-spectrum magnitudes; guards the PHAT division against zero bins.
PHAT_FLOOR = 1e-15


@dataclass(frozen=True)
class MetricConfig:
    """Analysis constants shared by all metrics.

    ITD framing uses non-overlapping Tukey-windowed frames; the SSR/SRR
    framing is rectangular with 50% overlap. Frames whose reference RMS falls
    below ``silence_threshold`` are excluded everywhere.
    """

    itd_frame_len: float = 0.5
    tukey_alpha: float = 0.5
    silence_threshold: float = 5e-4
    max_lag: float = 1e-3
    ssr_window: float = 1.0
    ssr_hop: float = 0.5
    proj_max_delay: float = 1e-3

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if not 0 < value < math.inf:  # NaN fails too
                raise ValueError(f"{field.name} must be positive and finite, got {value!r}")
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

    def ssr_frame_samples(self, sample_rate: int) -> tuple[int, int]:
        """SSR/SRR frame length and hop in samples."""
        window, hop = (int(round(s * sample_rate)) for s in (self.ssr_window, self.ssr_hop))
        for name, size in (("ssr_window", window), ("ssr_hop", hop)):
            if size < 1:
                raise ValueError(f"{name} {getattr(self, name)!r} s is under one sample at {sample_rate} Hz")
        return window, hop

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

    @classmethod
    def finite(cls, value: float) -> "MetricValue":
        return cls(float(value) + 0.0, MetricStatus.FINITE)  # -0.0 + 0.0 is +0.0: one zero

    @classmethod
    def infinite(cls) -> "MetricValue":
        return cls(None, MetricStatus.POSITIVE_INFINITE)

    @classmethod
    def undefined(cls) -> "MetricValue":
        return cls(None, MetricStatus.UNDEFINED)

    @classmethod
    def from_float(cls, value: float) -> "MetricValue":
        if math.isnan(value):
            return cls.undefined()
        if value == math.inf:
            return cls.infinite()
        if value == -math.inf:
            return cls.finite(NEG_DB_CLAMP)
        return cls.finite(value)

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
    nfft = _next_fast_len(2 * n)  # part of the metric: PHAT makes the bin grid shape the ITD vote
    spec_l = np.fft.rfft(frame.samples[0], nfft)
    spec_r = np.fft.rfft(frame.samples[1], nfft)
    cross = spec_l * np.conj(spec_r)
    cross /= np.maximum(np.abs(cross), PHAT_FLOOR)
    cc = np.fft.irfft(cross, nfft)

    ring = np.concatenate((cc[-max_shift:], cc[: max_shift + 1]))
    # ring index i corresponds to correlation shift i - max_shift; a left lead
    # of d samples peaks at shift -d, so the lag axis is negated.
    return max_shift - int(np.argmax(ring))


def signal_itd_lag(buffer: AudioBuffer, cfg: MetricConfig = DEFAULT_CONFIG) -> int | None:
    """Whole-signal ITD as an integer lag in samples, or None if all silent.

    The signal is framed (Tukey window, no overlap), silent frames
    are dropped, and each remaining frame votes for its GCC-PHAT lag with its
    RMS weight. The winning lag is the weighted mode; ties go to the smaller
    magnitude, then to the negative lag. Frames vote in time order, and the
    vote stops once it is decided, when the leader is ahead of every other lag
    by more than the weight still to vote; the lag is identical to the one
    that voting every frame gives.
    """
    if buffer.num_channels != 2:
        raise ValueError("ITD needs a stereo signal")
    frames = frame_signal(buffer, cfg.itd_frame_len, cfg.itd_frame_len, "tukey", cfg.tukey_alpha)
    live = frames.live(cfg.silence_threshold)
    # rest[k] is the weight of live frames k onwards. The stop survives rounding
    # (eps = 2**-53; m live frames of total weight W; q frames left, of exact
    # weight R). Adding a positive weight never lowers a float sum, so the
    # leader keeps at least its votes. The frames left raise any other lag by
    # at most R + 1.01 q eps W, and rest and the comparison round by at most
    # 1.01 (q + 1) eps W; the slack, 4 m eps W with m > q, covers both. So a
    # stop means the leader strictly wins the full vote: an exact tie never
    # stops early, and the tie rule decides as before.
    rest = [*accumulate((frames.weights[i] for i in reversed(live)), initial=0.0)][::-1]
    slack = 4 * len(live) * rest[0] * 2.0**-53
    votes: dict[int, float] = {}
    for k, i in enumerate(live):
        frame = frames[i]
        lag = gcc_phat_tdoa(frame, cfg)
        votes[lag] = votes.get(lag, 0.0) + frame.weight
        leader = max(votes, key=votes.get)
        runner_up = max((v for other, v in votes.items() if other != leader), default=0.0)
        if votes[leader] > runner_up + rest[k + 1] + slack:
            return leader
    return max(votes, key=lambda lag: (votes[lag], -abs(lag), -lag), default=None)


def signal_itd(buffer: AudioBuffer, cfg: MetricConfig = DEFAULT_CONFIG) -> MetricValue:
    """Whole-signal ITD in seconds; undefined when every frame is silent."""
    lag = signal_itd_lag(buffer, cfg)
    if lag is None:
        return MetricValue.undefined()
    return MetricValue.finite(lag / buffer.sample_rate)


def signal_ild(buffer: AudioBuffer) -> MetricValue:
    """Whole-signal level difference 10*log10(sum L^2 / sum R^2) in dB.

    An infinite ratio (silent right channel) or one past the float range is
    positive infinity; a zero or underflowing ratio is NEG_DB_CLAMP.
    """
    if buffer.num_channels != 2:
        raise ValueError("ILD needs a stereo signal")
    energy_l, energy_r = (_dot(x, x) for x in buffer.samples)
    if energy_l == 0.0 and energy_r == 0.0:
        return MetricValue.undefined()
    return MetricValue.from_float(_energy_ratio_db(energy_l, energy_r))


def _energy_ratio_db(numerator: float, denominator: float) -> float:
    """10*log10(numerator / denominator): +inf for a zero denominator, -inf for a ratio that is or underflows to 0."""
    ratio = numerator / denominator if denominator else math.inf
    return 10.0 * math.log10(ratio) if ratio else -math.inf


def _check_comparable(reference: AudioBuffer, estimate: AudioBuffer):
    if reference.sample_rate != estimate.sample_rate:
        raise ValueError(
            f"sample-rate mismatch: reference {reference.sample_rate} Hz "
            f"vs estimate {estimate.sample_rate} Hz"
        )
    if reference.num_channels != estimate.num_channels:
        raise ValueError(f"channel counts differ: reference {reference.num_channels} vs estimate {estimate.num_channels}")


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
    if diff > cfg.ssr_frame_samples(fs)[0]:
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
    lag_est = None if lag_ref is None else signal_itd_lag(estimate, cfg)
    if lag_est is None:
        return MetricValue.undefined()
    return MetricValue.finite(abs(lag_ref - lag_est) * 1e6 / reference.sample_rate)


def delta_ild(reference: AudioBuffer, estimate: AudioBuffer) -> MetricValue:
    """|ILD(reference) - ILD(estimate)| in dB; a common gain cancels out."""
    _check_comparable(reference, estimate)
    ild_ref = signal_ild(reference)
    ild_est = signal_ild(estimate)
    if ild_ref.is_undefined or ild_est.is_undefined:
        return MetricValue.undefined()
    if ild_ref.is_infinite and ild_est.is_infinite:
        # Both signals are fully left; the cue is degenerate but unchanged.
        return MetricValue.finite(0.0)
    if ild_ref.is_infinite or ild_est.is_infinite:
        return MetricValue.infinite()
    return MetricValue.finite(abs(ild_ref.value - ild_est.value))


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


def _energy(block: np.ndarray) -> float:
    return sum(_dot(row, row) for row in block)


def _segment_terms(ref: np.ndarray, est: np.ndarray, a: int, b: int, max_delay: int) -> np.ndarray:
    """Per-lag cross terms and shifted-reference energies of samples [a, b).

    Returns ``terms`` of shape (2, channels, 2 * max_delay + 1); index i
    holds delay d = max_delay - i, and ``terms[0]`` and ``terms[1]`` are the
    sums over k in [a, b) of ``ref[k - d] * est[k]`` and ``ref[k - d] ** 2``,
    reading zeros outside the signals. The cross term is one einsum over
    sliding windows, the energy a cumulative sum over the segment's region.
    """
    lags = 2 * max_delay + 1
    inside = min(b, est.shape[1]) - a  # est samples of the segment inside the signal
    region = _span(ref, a - max_delay, b + max_delay)
    terms = np.zeros((2, ref.shape[0], lags))
    if inside > 0:
        windows = sliding_window_view(region[:, : inside + lags - 1], inside, axis=-1)
        terms[0] = np.einsum("cij,cj->ci", windows, est[:, a : a + inside])
    squared = np.zeros((ref.shape[0], region.shape[1] + 1))
    np.cumsum(region * region, axis=-1, out=squared[:, 1:])
    terms[1] = squared[:, b - a :] - squared[:, :lags]
    return terms


def _project(
    ref: np.ndarray, est: np.ndarray, start: int, n: int, max_delay: int, terms: np.ndarray
) -> SpatialDecomposition:
    """Gain+delay projection of the reference frame at ``start`` onto the estimate frame.

    ``terms`` are the frame's per-lag cross terms and energies (see
    ``_segment_terms``). Ties on the residual go to the smaller |d|, then the
    negative d. A channel whose every shift has zero energy is flagged silent
    and projected to zero.
    """
    channels = ref.shape[0]
    inside = min(n, ref.shape[1] - start)  # frame samples inside the signals
    projected = np.zeros((channels, n))
    gain = np.zeros(channels)
    delay = np.zeros(channels, dtype=int)
    silent = np.zeros(channels, dtype=bool)
    cross, energy = terms
    usable = energy > 0.0
    scores = np.full_like(energy, -np.inf)
    scores[usable] = cross[usable] ** 2 / energy[usable]
    for c in range(channels):
        if not usable[c].any():
            silent[c] = True
            continue
        delays = max_delay - np.nonzero(scores[c] == scores[c].max())[0]
        d = int(min(delays, key=lambda t: (abs(t), t)))
        # Recompute the gain with plain dot products on the winning segment:
        # when est is exactly the (scaled) segment this reproduces the scale
        # exactly, so the residual cancels to zero rather than to rounding noise.
        seg = _span(ref[c], start - d, start - d + n)
        gain[c] = _dot(seg, _span(est[c], start, start + n)) / _dot(seg, seg)
        delay[c] = d
        np.multiply(seg, gain[c], out=projected[c])
    # Past the signals' end both frames read zeros, so the errors there are
    # +-projected; the frames themselves are never copied.
    spatial_error = projected.copy()
    spatial_error[:, :inside] -= ref[:, start : start + inside]
    residual_error = np.negative(projected)
    residual_error[:, :inside] += est[:, start : start + inside]
    return SpatialDecomposition(
        projected=projected,
        spatial_error=spatial_error,
        residual_error=residual_error,
        gain=gain,
        delay=delay,
        reference_silent=silent,
    )


def _projections(ref: np.ndarray, est: np.ndarray, grid, n: int, max_delay: int, starts):
    """Yield ``(start, decomposition)`` for each frame start in ``starts``.

    Frames are ``[start, start + n)`` for ``start`` in ``grid``, reading
    zeros past the signals' ends; ``starts`` is an increasing subset of the
    grid. Delay d reads the reference ``d`` samples earlier, from the
    surrounding signal. Every grid frame's start and end cuts the signal, so
    frames that overlap share the segments between cuts: each segment gets
    its per-lag terms computed once, and a frame's scores are the sum of its
    segments' terms in segment order. Only the current frame's segments are
    held, and one frame's arrays are built at a time.
    """
    cuts = sorted({*grid, *(g + n for g in grid)})
    terms = {}
    for start in starts:
        inner = cuts[bisect_left(cuts, start) : bisect_right(cuts, start + n)]
        spans = list(zip(inner, inner[1:]))
        terms = {ab: terms[ab] if ab in terms else _segment_terms(ref, est, *ab, max_delay) for ab in spans}
        yield start, _project(ref, est, start, n, max_delay, sum(terms[ab] for ab in spans))


def project_gain_delay(
    ref_frame: Frame, est_frame: Frame, cfg: MetricConfig = DEFAULT_CONFIG
) -> SpatialDecomposition:
    """Decompose an estimate frame into projection, spatial and residual error.

    Each channel independently searches integer delays within
    +-proj_max_delay (reference shifted with zero fill) and applies the
    closed-form least-squares gain. For estimates that really are per-channel
    gain+delay copies of the reference frame, the residual is zero. This is
    ``ssr_srr``'s kernel on one frame that is one segment.
    """
    ref = ref_frame.samples
    est = est_frame.samples
    if ref.shape != est.shape:
        raise ValueError(f"frame shapes differ: {ref.shape} vs {est.shape}")
    n = ref.shape[1]
    max_delay = cfg.proj_delay_samples(ref_frame.sample_rate)
    _, dec = next(_projections(ref, est, [0], n, max_delay, [0]))
    return dec


def ssr_srr(
    reference: AudioBuffer, estimate: AudioBuffer, cfg: MetricConfig = DEFAULT_CONFIG
) -> tuple[MetricValue, MetricValue]:
    """Median frame-wise spatial and residual distortion ratios, in dB.

    Signals are cut into rectangular frames (ssr_window / ssr_hop) on the
    frame grid and silence gate that the ITD frames use too: a frame is
    skipped when the RMS of the reference's real samples, louder channel, is
    below the silence threshold. Per frame
    and channel the reference is projected onto the estimate with the best
    gain and integer delay, drawing shifted samples from the surrounding
    signal so a globally delayed estimate incurs no frame-boundary penalty.
    Frame values with a zero error denominator are positive infinity and sort
    above all finite values in the median. Lengths may differ by at most one
    frame (see ``align_pair``). Overlapping frames share the per-lag sums of
    the segments between frame boundaries, and no sum goes through BLAS, so
    the bits do not depend on the host's BLAS.
    """
    reference, estimate = align_pair(reference, estimate, cfg)
    fs = reference.sample_rate
    n, hop = cfg.ssr_frame_samples(fs)
    frames = _Frames(reference, n, hop)
    starts = [frames.starts[i] for i in frames.live(cfg.silence_threshold)]
    ref, est = reference.samples, estimate.samples

    ssr_frames = []
    srr_frames = []
    for start, dec in _projections(ref, est, frames.starts, n, cfg.proj_delay_samples(fs), starts):
        ssr_frames.append(_energy_ratio_db(_energy(ref[:, start : start + n]), _energy(dec.spatial_error)))
        srr_frames.append(_energy_ratio_db(_energy(dec.projected), _energy(dec.residual_error)))
        del dec  # free this frame's arrays before the next frame's are built

    if not ssr_frames:
        return MetricValue.undefined(), MetricValue.undefined()
    with np.errstate(invalid="ignore"):  # middle frames of -inf and +inf have no median: undefined
        return tuple(MetricValue.from_float(float(np.median(v))) for v in (ssr_frames, srr_frames))
