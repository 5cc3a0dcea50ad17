"""End-to-end golden for the metric pipeline: synthesize, degrade, evaluate.

A two-song tree is rendered with the sphere HRIR set, a scripted separator
degrades each stem (gain error, channel delay, mixture bleed, noise; one
exact copy, one silent estimate and one silent reference stem cover the
infinite and undefined states), and ``evaluate_tree`` scores it. The rows
must match ``tests/data/metrics_golden.csv``: ΔITD and every infinite or
undefined state exactly, finite SSR/SRR/ΔILD within 1e-9 dB.

Regenerate the golden only when metric values are meant to change:

    PYTHONPATH=src:tests python tests/test_metrics_golden.py
"""

import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from auricle import (
    STEM_NAMES,
    AudioBuffer,
    evaluate_tree,
    read_rows_csv,
    read_wav,
    spherical_head_database,
    synthesize_dataset,
    write_rows_csv,
    write_wav,
)
from auricle.evaluate import METRIC_FIELDS

from helpers import make_song_dir

GOLDEN = Path(__file__).parent / "data" / "metrics_golden.csv"
TOLERANCE_DB = 1e-9


def _build_tree(root: Path) -> None:
    for i, name in enumerate(("song0", "song1")):
        make_song_dir(root / "musdb" / "test", name, np.random.default_rng(300 + i), seconds=3.0)
    # a silent reference stem: its ITD, ILD and SSR/SRR are undefined
    silent = AudioBuffer(np.zeros((2, 3 * 44100)), 44100)
    write_wav(root / "musdb" / "test" / "song1" / "bass.wav", silent, encoding="pcm16")
    synthesize_dataset(root / "musdb", spherical_head_database(), root / "ref", master_seed=11)


def _separate(root: Path) -> None:
    """Scripted separator in the style of demos/04_batch_pipeline.py."""
    rng = np.random.default_rng(404)
    for song in sorted((root / "ref" / "test").iterdir()):
        mixture = read_wav(song / "mixture.wav")
        out = root / "est" / "test" / song.name
        for stem in STEM_NAMES:
            ref = read_wav(song / f"{stem}.wav")
            est = ref.samples.copy()
            if (song.name, stem) == ("song1", "vocals"):
                pass  # exact copy: SSR and SRR are infinite
            elif (song.name, stem) == ("song1", "drums"):
                est[:] = 0.0  # silent estimate: ΔITD and ΔILD are undefined
            else:
                est += 0.05 * mixture.samples
                est[1] *= 10 ** (rng.uniform(-2.0, 2.0) / 20)
                d = int(rng.integers(1, 6))
                est[1, d:] = est[1, :-d].copy()
                est[1, :d] = 0.0
                est += 0.003 * rng.normal(size=est.shape)
            write_wav(out / f"{stem}.wav", AudioBuffer(est, ref.sample_rate))


def golden_rows(work: Path):
    _build_tree(work)
    _separate(work)
    return evaluate_tree(work / "ref", work / "est")


def test_metrics_match_golden(tmp_path):
    rows = golden_rows(tmp_path)
    golden = read_rows_csv(GOLDEN)
    assert [(r.track_id, r.stem, r.azimuth_deg) for r in rows] == [
        (g.track_id, g.stem, g.azimuth_deg) for g in golden
    ]
    for row, want in zip(rows, golden):
        for field in METRIC_FIELDS:
            got, exp = row.metric(field), want.metric(field)
            where = (row.track_id, row.stem, field, got, exp)
            assert got.status is exp.status, where
            if not got.is_finite:
                continue
            if field == "delta_itd_us":
                assert got.value == exp.value, where
            else:
                assert math.isclose(got.value, exp.value, rel_tol=0.0, abs_tol=TOLERANCE_DB), where


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        write_rows_csv(golden_rows(Path(work)), GOLDEN)
    print(f"wrote {GOLDEN}", file=sys.stderr)
