"""ssr_srr at its default 1 s window holds one frame's arrays at a time.

One frame's decomposition (projection, spatial and residual error) of a
stereo 1 s window at 44.1 kHz is 2.1 MB. Holding the previous frame's next
to the one being built doubles that, so the bound sits between one and two
frames.
"""

import tracemalloc

import numpy as np

from auricle import ssr_srr

from helpers import noise_buffer


def test_default_config_peak_is_one_frame():
    rng = np.random.default_rng(12)
    ref, est = noise_buffer(rng, seconds=20.0), noise_buffer(rng, seconds=20.0)
    tracemalloc.start()
    try:
        ssr_srr(ref, est)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.0e6, f"peak {peak / 1e6:.2f} MB"
