"""Property tests: project_gain_delay is the zero-context case of ssr_srr.

A signal exactly one SSR window long (hop = window) gives ssr_srr a single
frame whose shifted-in samples are all zeros, which is the zero-fill
projection that project_gain_delay performs on a frame.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from auricle import AudioBuffer, MetricConfig, frame_signal, project_gain_delay, ssr_srr

from helpers import shift_zero_fill

FS = 44100
WINDOW = 0.05  # 2205 samples keeps each example fast
CFG = MetricConfig(ssr_window=WINDOW, ssr_hop=WINDOW)
MAX_DELAY = CFG.proj_delay_samples(FS)

channel = st.tuples(
    st.floats(0.25, 4.0) | st.floats(-4.0, -0.25),
    st.integers(-MAX_DELAY, MAX_DELAY),
)


def _signals(seed, channels, noise):
    rng = np.random.default_rng(seed)
    n = int(round(WINDOW * FS))
    x = rng.normal(size=(2, n)) * 0.1
    est = np.stack([g * shift_zero_fill(x[c], d) for c, (g, d) in enumerate(channels)])
    return x, est + noise * rng.normal(size=est.shape)


def _frame(samples):
    return frame_signal(AudioBuffer(samples, FS), WINDOW, WINDOW, window="rectangular")[0]


def _ratio_db(numerator, denominator):
    if denominator == 0.0:
        return math.inf
    return 10.0 * math.log10(numerator / denominator)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    channels=st.tuples(channel, channel),
    noise=st.sampled_from([0.0, 1e-3, 3e-2]),
)
def test_ssr_srr_matches_zero_context_projection(seed, channels, noise):
    x, est = _signals(seed, channels, noise)
    dec = project_gain_delay(_frame(x), _frame(est), CFG)
    ssr, srr = ssr_srr(AudioBuffer(x, FS), AudioBuffer(est, FS), CFG)
    want_ssr = _ratio_db(np.sum(x**2), np.sum(dec.spatial_error**2))
    want_srr = _ratio_db(np.sum(dec.projected**2), np.sum(dec.residual_error**2))
    for got, want in ((ssr, want_ssr), (srr, want_srr)):
        if math.isinf(want):
            assert got.is_infinite
        else:
            assert math.isclose(got.value, want, rel_tol=0.0, abs_tol=1e-9)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), channels=st.tuples(channel, channel))
def test_gain_delay_copies_leave_no_residual(seed, channels):
    x, est = _signals(seed, channels, 0.0)
    dec = project_gain_delay(_frame(x), _frame(est), CFG)
    assert list(dec.delay) == [d for _, d in channels]
    assert np.sum(dec.residual_error**2) <= 1e-24 * np.sum(est**2)
