"""Property tests for the interaural-cue deltas on lazily framed signals.

Signals are noise with a per-channel gain, an interaural delay and a silent
span, at several ITD frame lengths, so frames are gated, partial at the end
or carry a silent channel.
"""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from auricle import AudioBuffer, MetricConfig, delta_ild, delta_itd, frame_signal, signal_ild, signal_itd_lag

from helpers import shift_zero_fill

FS = 44100


def _stereo(seed, n, lag, gains, silence):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n) * 0.1
    data = np.stack([gains[0] * x, gains[1] * shift_zero_fill(x, lag)])
    lo, hi = sorted(int(f * n) for f in silence)
    data[:, lo:hi] = 0.0
    return AudioBuffer(data, FS)


signals = st.builds(
    _stereo,
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(100, int(1.2 * FS)),
    lag=st.integers(-60, 60),
    gains=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    silence=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
)
configs = st.sampled_from([MetricConfig(itd_frame_len=t) for t in (0.02, 0.1, 0.5)])


@settings(max_examples=60, deadline=None)
@given(ref=signals, cfg=configs)
def test_deltas_zero_when_estimate_equals_reference(ref, cfg):
    est = AudioBuffer(ref.samples.copy(), FS)
    itd = delta_itd(ref, est, cfg)
    ild = delta_ild(ref, est)
    assert itd.is_undefined if signal_itd_lag(ref, cfg) is None else itd.value == 0.0
    assert ild.is_undefined if signal_ild(ref).is_undefined else ild.value == 0.0


@settings(max_examples=60, deadline=None)
@given(ref=signals, est=signals, cfg=configs)
def test_deltas_symmetric_under_swap(ref, est, cfg):
    assert delta_itd(ref, est, cfg) == delta_itd(est, ref, cfg)
    assert delta_ild(ref, est) == delta_ild(est, ref)


def _clear_of_gate(buf, cfg, k):
    """Each ITD frame is exact silence, or every channel is above the gate at both scales.

    Frame weights take the louder channel, so a counted frame may carry a
    near-silent channel; its cross-spectrum then sits at the PHAT floor,
    which does not scale, and the frame's lag can move with the gain.
    """
    for frame in frame_signal(buf, cfg.itd_frame_len, cfg.itd_frame_len, "tukey", cfg.tukey_alpha):
        quietest = np.sqrt(np.mean(frame.samples**2, axis=1)).min() * min(1.0, 2.0**k)
        if np.any(frame.samples) and quietest < cfg.silence_threshold:
            return False
    return True


# Most drawn pairs fall outside _clear_of_gate's domain (about three in four);
# the signal strategy stays the broad one the other properties use.
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(ref=signals, est=signals, cfg=configs, k=st.integers(-4, 4))
def test_deltas_unchanged_by_common_power_of_two_gain(ref, est, cfg, k):
    """A power-of-two scale is exact, so GCC-PHAT spectra and energy ratios keep their bits."""
    assume(_clear_of_gate(ref, cfg, k) and _clear_of_gate(est, cfg, k))
    scaled_ref, scaled_est = (AudioBuffer(b.samples * 2.0**k, FS) for b in (ref, est))
    assert delta_itd(scaled_ref, scaled_est, cfg) == delta_itd(ref, est, cfg)
    assert delta_ild(scaled_ref, scaled_est) == delta_ild(ref, est)
