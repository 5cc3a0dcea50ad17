"""The projection and SSR/SRR against the exact slow oracle in oracle_metrics.py.

Short signals at 8 kHz keep the oracle fast: a 0.02 s window is 160 samples
and the 1 ms delay range is 17 lags. Hops include one that does not divide
the window (58 and 39 samples against 160), and lengths are drawn off the
hop grid. Delays and every inf/undefined state must agree exactly; finite
SSR/SRR values within ULP_BOUND. Where several delays tie exactly, rounding,
not the tie rule, picks one (both in this kernel and in the np.dot one it
replaced), so such examples only check that the pick is one of the tied
delays.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle_metrics as oracle
from auricle import AudioBuffer, MetricConfig, project_gain_delay, ssr_srr
from auricle.dsp import Frame

from helpers import shift_zero_fill

FS = 8000
CONFIGS = [MetricConfig(ssr_window=0.02, ssr_hop=hop) for hop in (0.02, 0.01, 0.0073, 0.0049)]
# |got - want| in units of ulp(max(|want|, 1 dB)); values under 1 dB are
# counted in ulps of 1 dB because a ratio near 1 has a log near 0. Over 8400
# drawn examples the largest seen was 32 (SSR) for the np.dot/np.correlate
# kernel this replaced and 22 (SRR) for the current one; the bound is twice 32.
ULP_BOUND = 64


def _samples(cfg):
    return int(round(cfg.ssr_window * FS)), int(round(cfg.ssr_hop * FS)), cfg.proj_delay_samples(FS)


def make_pair(seed, length, ref_kind, est_kind, silent):
    """Reference and estimate rows for one example; see the strategies below."""
    rng = np.random.default_rng(seed)
    if ref_kind == "noise":
        ref = rng.normal(size=(2, length)) * 0.1
    else:  # periodic: one random period of 1..40 samples, tiled
        period = rng.normal(size=(2, int(rng.integers(1, 41)))) * 0.1
        ref = np.tile(period, (1, length // period.shape[1] + 1))[:, :length]
    if est_kind == "noise":
        est = rng.normal(size=(2, length)) * 0.1
    else:
        delays = rng.integers(-8, 9, size=2)
        if est_kind == "copy":  # power-of-two gains scale exactly
            gains = 2.0 ** rng.integers(-2, 3, size=2)
        else:
            gains = rng.uniform(0.25, 4.0, size=2) * rng.choice([-1.0, 1.0], size=2)
        est = np.stack([g * shift_zero_fill(ref[c], int(d)) for c, (g, d) in enumerate(zip(gains, delays))])
        if est_kind == "noisy copy":
            est = est + rng.normal(size=est.shape) * 1e-2
    if silent == "ref channel":
        ref[1] = 0.0
    elif silent == "est channel":
        est[0] = 0.0
    elif silent == "ref span":
        lo, hi = sorted(rng.integers(0, length + 1, size=2))
        ref[:, lo:hi] = 0.0
    return ref, est


pairs = st.builds(
    make_pair,
    seed=st.integers(0, 2**32 - 1),
    length=st.integers(1, 600),
    ref_kind=st.sampled_from(["noise", "periodic"]),
    est_kind=st.sampled_from(["noise", "copy", "noisy copy"]),
    silent=st.sampled_from([None, "ref channel", "est channel", "ref span"]),
)


def ulps(got, want):
    return abs(got - want) / math.ulp(max(abs(want), 1.0))


def assert_matches(got, want):
    """A MetricValue against an oracle float: states exactly, values within ULP_BOUND."""
    if math.isnan(want):
        assert got.is_undefined
    elif want == math.inf:
        assert got.is_infinite
    elif want == -math.inf:
        assert got.is_finite and got.value == -200.0
    else:
        assert got.is_finite and ulps(got.value, want) <= ULP_BOUND, (got.value, want)


@settings(max_examples=150, deadline=None)
@given(pair=pairs, cfg=st.sampled_from(CONFIGS))
def test_ssr_srr_matches_oracle(pair, cfg):
    ref, est = pair
    n, hop, max_delay = _samples(cfg)
    *want, ambiguous = oracle.ssr_srr(ref.tolist(), est.tolist(), n, hop, max_delay, cfg.silence_threshold)
    assume(not ambiguous)  # rounding decides exact delay ties and non-dyadic exact copies
    got = ssr_srr(AudioBuffer(ref, FS), AudioBuffer(est, FS), cfg)
    for g, w in zip(got, want):
        assert_matches(g, w)


@settings(max_examples=150, deadline=None)
@given(pair=pairs)
def test_projection_matches_oracle(pair):
    ref, est = pair
    cfg = CONFIGS[0]
    max_delay = cfg.proj_delay_samples(FS)
    dec = project_gain_delay(Frame(ref, 1.0, FS), Frame(est, 1.0, FS), cfg)
    for c, (delays, gain, _, _) in enumerate(oracle.project_frame(ref.tolist(), est.tolist(), max_delay)):
        assert dec.reference_silent[c] == (not delays)
        if len(delays) == 1 or (delays and not est[c].any()):  # a silent channel ties at score 0
            assert dec.delay[c] == delays[0]
            assert ulps(dec.gain[c], gain) <= ULP_BOUND
        elif delays:  # rounding, not the tie rule, picks among exactly tied delays
            assert dec.delay[c] in delays


def test_coprime_window_and_hop_match_oracle():
    """Window 2205 and hop 542 samples at 44.1 kHz share no factor; frames cut 37- and 505-sample segments."""
    fs = 44100
    cfg = MetricConfig(ssr_window=0.05, ssr_hop=0.0123)
    rng = np.random.default_rng(3)
    ref = rng.normal(size=(2, 4000)) * 0.1
    est = np.stack([0.8 * shift_zero_fill(ref[0], 5), -1.3 * shift_zero_fill(ref[1], -30)])
    est += 0.02 * rng.normal(size=est.shape)
    n, hop, max_delay = 2205, 542, cfg.proj_delay_samples(fs)
    *want, ambiguous = oracle.ssr_srr(ref.tolist(), est.tolist(), n, hop, max_delay, cfg.silence_threshold)
    assert not ambiguous
    for got, w in zip(ssr_srr(AudioBuffer(ref, fs), AudioBuffer(est, fs), cfg), want):
        assert_matches(got, w)
