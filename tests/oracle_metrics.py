"""Slow, exact oracle for the gain+delay projection and the SSR/SRR ratios.

Plain loops over frames, channels and delays, written from the rules that
README.md documents, sharing no code with ``auricle``. Every sum is exact:
float samples are scaled by a common power of two to Python integers, so
dot products and energies carry no rounding at all, the delay search
compares scores exactly, and each float that leaves the oracle (gain, energy
ratio) is rounded once from its exact value. That makes the oracle exactly
rounded and independent of the host's BLAS, SIMD and thread count.

Signals are lists of channels, each a list of Python floats.

``itd_votes`` is the full ITD vote: a plain loop in which every counted frame
of ``itd_correlations`` votes, with its own framing, gate, GCC-PHAT and lag
pick. It is not exact: each frame's weight and correlation use the same numpy
operations as the library, so they carry the library's bits.
"""

import math
from fractions import Fraction

import numpy as np
from scipy.fft import next_fast_len
from scipy.signal.windows import tukey


def _integers(values):
    """``(ints, k)`` with ``values[i] == ints[i] / 2**k`` exactly."""
    ratios = [float(v).as_integer_ratio() for v in values]
    k = max((den.bit_length() - 1 for _, den in ratios), default=0)
    return [num << (k - den.bit_length() + 1) for num, den in ratios], k


def _exact_energy(values):
    """sum(x * x) as an exact Fraction."""
    ints, k = _integers(values)
    return Fraction(sum(x * x for x in ints), 1 << (2 * k))


def _span(row, start, stop):
    """row[start:stop] with zeros for indices outside the row."""
    return [row[i] if 0 <= i < len(row) else 0.0 for i in range(start, stop)]


def project_channel(context, est, max_delay):
    """Best gain and delay for one channel.

    ``context`` holds the reference from ``max_delay`` samples before the
    frame to ``max_delay`` samples after it; delay d reads
    ``context[max_delay - d : max_delay - d + len(est)]``. The score of a
    delay is cross**2 / energy over delays with nonzero energy; ties go to
    the smaller |d|, then the negative d.

    Returns ``(delays, gain, projected, fragile)``. ``delays`` lists every
    delay with the top score in tie-rule order, so ``delays[0]`` is the
    pick; it is empty, and the projection zero, when every shift is silent.
    The gain and projection are for the pick. ``fragile`` marks an estimate
    exactly proportional to the picked segment with a gain that is neither
    zero nor a power of two: its exact residual is zero, but whether a float
    residual cancels to zero depends on how the gain was rounded.
    """
    n = len(est)
    ref_ints, k_ref = _integers(context)
    est_ints, k_est = _integers(est)
    scored = []
    for d in sorted(range(-max_delay, max_delay + 1), key=lambda t: (abs(t), t)):
        offset = max_delay - d
        cross = sum(ref_ints[offset + i] * est_ints[i] for i in range(n))
        energy = sum(ref_ints[offset + i] ** 2 for i in range(n))
        if energy:
            scored.append((Fraction(cross * cross, energy), d, cross, energy))
    if not scored:
        return [], 0.0, [0.0] * n, False
    top = max(score for score, *_ in scored)
    tied = [entry for entry in scored if entry[0] == top]
    _, d, cross, energy = tied[0]
    # dot(seg, est) / dot(seg, seg) = (cross / 2**(k_ref + k_est)) / (energy / 2**(2 k_ref))
    exact_gain = Fraction(cross, energy) * Fraction(2) ** (k_ref - k_est)
    proportional = cross * cross == energy * sum(x * x for x in est_ints)  # Cauchy-Schwarz equality
    dyadic = all(v & (v - 1) == 0 for v in (abs(exact_gain.numerator), exact_gain.denominator))
    gain = float(exact_gain)
    seg = context[max_delay - d : max_delay - d + n]
    return [entry[1] for entry in tied], gain, [gain * x for x in seg], proportional and not dyadic


def project_frame(ref, est, max_delay):
    """Zero-fill projection of an estimate frame: ``project_channel``'s result per channel."""
    return [
        project_channel([0.0] * max_delay + list(r) + [0.0] * max_delay, list(e), max_delay)
        for r, e in zip(ref, est)
    ]


def _ratio_db(numerator, denominator):
    if denominator == 0:
        return math.inf
    if numerator == 0:
        return -math.inf
    return 10.0 * math.log10(float(numerator / denominator))


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def ssr_srr(ref, est, window, hop, max_delay, threshold):
    """Median frame SSR and SRR in dB (nan when every frame is silent) and an ambiguity flag.

    Frames of ``window`` samples start every ``hop`` samples from 0 to the
    end of the signal; samples past the end read as zeros. A frame counts
    when its louder reference channel has an RMS, over the frame's real
    samples, of at least ``threshold``. Each channel's shifted reference is
    read from the surrounding signal, zero past its ends. -inf is returned
    as is; the library reports it as its clamp value. The flag marks results
    that float arithmetic may legitimately get otherwise: in some counted
    frame a channel has several delays with the top score and that score is
    not zero (a silent estimate channel ties everywhere, harmlessly), or is
    fragile in ``project_channel``'s sense.
    """
    length = len(ref[0])
    ssr_frames, srr_frames = [], []
    ambiguous = False
    for start in range(0, length, hop):
        real = [row[start : start + window] for row in ref]
        if max(math.sqrt(math.fsum(x * x for x in row) / len(row)) for row in real) < threshold:
            continue
        ref_energy = spatial_energy = projected_energy = residual_energy = Fraction(0)
        for r, e in zip(ref, est):
            frame = _span(r, start, start + window)
            est_frame = _span(e, start, start + window)
            context = _span(r, start - max_delay, start + window + max_delay)
            delays, _, projected, fragile = project_channel(context, est_frame, max_delay)
            ambiguous = ambiguous or fragile or (len(delays) > 1 and any(est_frame))
            ref_energy += _exact_energy(frame)
            spatial_energy += _exact_energy([p - x for p, x in zip(projected, frame)])
            projected_energy += _exact_energy(projected)
            residual_energy += _exact_energy([y - p for y, p in zip(est_frame, projected)])
        ssr_frames.append(_ratio_db(ref_energy, spatial_energy))
        srr_frames.append(_ratio_db(projected_energy, residual_energy))
    if not ssr_frames:
        return math.nan, math.nan, ambiguous
    return _median(ssr_frames), _median(srr_frames), ambiguous


def itd_correlations(buf, cfg):
    """Every counted ITD frame's ``(weight, {lag: correlation})``, in time order.

    Frames of ``cfg.itd_frame_len`` seconds start every frame length from 0;
    the last one is zero-padded. A frame counts when its louder channel's RMS
    over its real samples is at least ``cfg.silence_threshold``; that RMS is
    its weight. The correlation at each lag within +-max_lag is the
    PHAT-weighted cross-correlation of its Tukey-windowed channels (a lag is
    positive when the left channel leads).
    """
    fs = buf.sample_rate
    n = int(round(cfg.itd_frame_len * fs))
    max_lag = int(math.floor(cfg.max_lag * fs))
    nfft = next_fast_len(2 * n)
    window = tukey(n, alpha=cfg.tukey_alpha, sym=False)
    for start in range(0, buf.samples.shape[1], n):
        real = buf.samples[:, start : start + n]
        weight = max(float(np.sqrt(np.mean(row**2))) for row in real)
        if weight < cfg.silence_threshold:
            continue
        left, right = (np.fft.rfft(np.pad(row, (0, n - row.size)) * window, nfft) for row in real)
        cross = left * np.conj(right)
        cross /= np.maximum(np.abs(cross), 1e-15)
        cc = np.fft.irfft(cross, nfft)
        # A left lead of d samples peaks at correlation shift -d, index -d of cc.
        yield weight, {d: cc[-d] for d in range(-max_lag, max_lag + 1)}


def itd_votes(buf, cfg):
    """Every counted ITD frame's vote, summed in time order: ``{lag: weight}``.

    Each frame of ``itd_correlations`` votes its weight for the lag where its
    correlation peaks (the larger lag on equal peaks).
    """
    votes = {}
    for weight, corr in itd_correlations(buf, cfg):
        lag = max(corr, key=lambda d: (corr[d], d))
        votes[lag] = votes.get(lag, 0.0) + weight
    return votes


def itd_winner(votes):
    """The weighted mode of ``itd_votes``, None when no frame voted.

    Equal vote totals go to the smaller |lag|, then to the negative lag.
    """
    return max(votes, key=lambda lag: (votes[lag], -abs(lag), -lag), default=None)
