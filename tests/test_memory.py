"""Metric working memory stays at frame scale, not signal scale.

The frames here are short (0.1 s), so what a metric holds per frame is a few
percent of one 20 s signal; only a copy of a whole signal (a padded
reference, a list of every windowed frame) can cross the bound.
"""

import tracemalloc

import numpy as np
import pytest

from auricle import MetricConfig, signal_ild, signal_itd_lag, ssr_srr

from helpers import noise_buffer

CFG = MetricConfig(itd_frame_len=0.1, ssr_window=0.1, ssr_hop=0.05)


@pytest.fixture(scope="module")
def pair():
    rng = np.random.default_rng(12)
    return noise_buffer(rng, seconds=20.0), noise_buffer(rng, seconds=20.0)


@pytest.mark.parametrize(
    "metric",
    [
        lambda ref, est: ssr_srr(ref, est, CFG),
        lambda ref, est: signal_itd_lag(ref, CFG),
        lambda ref, est: signal_ild(ref),
    ],
    ids=["ssr_srr", "signal_itd_lag", "signal_ild"],
)
def test_peak_allocation_below_a_tenth_of_one_signal(pair, metric):
    ref, est = pair
    tracemalloc.start()
    try:
        metric(ref, est)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * ref.samples.nbytes, f"peak {peak / 1e6:.2f} MB for a {ref.samples.nbytes / 1e6:.1f} MB signal"
