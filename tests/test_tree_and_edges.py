import re

import numpy as np
import pytest

from auricle import (
    AudioBuffer,
    binauralize,
    evaluate_track,
    read_wav,
    sample_layout,
    save_hrir_database,
    signal_itd,
    synthesize_dataset,
    synthesize_track,
    write_wav,
)
from auricle.cli import run_cli
from auricle.scene import STEM_NAMES

from helpers import make_song_dir


def test_evaluate_trims_small_length_mismatch(tmp_path, sphere_db, rng):
    song = make_song_dir(tmp_path / "in", "s", rng, seconds=1.5)
    ref_dir = tmp_path / "ref"
    synthesize_track(song, sphere_db, sample_layout(1), ref_dir)
    est_dir = tmp_path / "est"
    for stem in STEM_NAMES:
        buf = read_wav(ref_dir / f"{stem}.wav")
        shorter = AudioBuffer(buf.samples[:, :-2000], buf.sample_rate)
        write_wav(est_dir / f"{stem}.wav", shorter)
    with pytest.warns(UserWarning, match="trim"):
        rows = evaluate_track(ref_dir, est_dir)
    # trimmed self-comparison is still an identity
    assert all(r.srr_db.is_infinite for r in rows)


def test_evaluate_rejects_large_length_mismatch(tmp_path, sphere_db, rng):
    song = make_song_dir(tmp_path / "in", "s", rng, seconds=2.5)
    ref_dir = tmp_path / "ref"
    synthesize_track(song, sphere_db, sample_layout(1), ref_dir)
    est_dir = tmp_path / "est"
    for stem in STEM_NAMES:
        buf = read_wav(ref_dir / f"{stem}.wav")
        way_short = AudioBuffer(buf.samples[:, : buf.num_samples - 2 * 44100], buf.sample_rate)
        write_wav(est_dir / f"{stem}.wav", way_short)
    with pytest.raises(ValueError, match="frame"):
        evaluate_track(ref_dir, est_dir)


def test_evaluate_rejects_rate_mismatch(tmp_path, sphere_db, rng):
    song = make_song_dir(tmp_path / "in", "s", rng, seconds=1.0)
    ref_dir = tmp_path / "ref"
    synthesize_track(song, sphere_db, sample_layout(1), ref_dir)
    est_dir = tmp_path / "est"
    for stem in STEM_NAMES:
        buf = read_wav(ref_dir / f"{stem}.wav")
        write_wav(est_dir / f"{stem}.wav", AudioBuffer(buf.samples, 48000))
    with pytest.raises(ValueError, match="sample-rate"):
        evaluate_track(ref_dir, est_dir)


def test_signal_itd_requires_stereo(rng):
    mono = AudioBuffer(rng.normal(size=44100), 44100)
    with pytest.raises(ValueError, match="stereo"):
        signal_itd(mono)


def test_binauralize_linear_in_signal(sphere_db, rng):
    pair = sphere_db[-50]
    x = AudioBuffer(rng.normal(size=2000) * 0.1, 44100)
    y = AudioBuffer(rng.normal(size=2000) * 0.1, 44100)
    mixed = AudioBuffer(0.6 * x.samples[0] - 1.7 * y.samples[0], 44100)
    lhs = binauralize(mixed, pair).samples
    rhs = 0.6 * binauralize(x, pair).samples - 1.7 * binauralize(y, pair).samples
    assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_synthesize_dataset_splits(tmp_path, sphere_db, rng):
    make_song_dir(tmp_path / "data" / "train", "tr1", rng, seconds=0.8)
    make_song_dir(tmp_path / "data" / "test", "te1", rng, seconds=0.8)
    manifests = synthesize_dataset(tmp_path / "data", sphere_db, tmp_path / "out", 5)
    assert {m.song_id for m in manifests} == {"tr1", "te1"}
    assert (tmp_path / "out" / "train" / "tr1" / "mixture.wav").exists()
    assert (tmp_path / "out" / "test" / "te1" / "mixture.wav").exists()

    only_test = synthesize_dataset(tmp_path / "data" / "test", sphere_db, tmp_path / "out2" / "test", 5)
    assert [m.song_id for m in only_test] == ["te1"]
    assert _tree_bytes(tmp_path / "out2" / "test") == _tree_bytes(tmp_path / "out" / "test")

    with pytest.raises(FileNotFoundError):
        synthesize_dataset(tmp_path / "empty", sphere_db, tmp_path / "out3", 5)


def _tree_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_synthesize_skips_a_directory_without_stems(tmp_path, sphere_db, rng):
    make_song_dir(tmp_path / "data" / "test", "te1", rng, seconds=0.8)
    (tmp_path / "data" / "test" / "notes").mkdir()
    (tmp_path / "data" / "test" / "notes" / "readme.txt").write_text("not a song")
    (tmp_path / "data" / "test" / "empty").mkdir()
    manifests = synthesize_dataset(tmp_path / "data", sphere_db, tmp_path / "out", 5)
    assert [m.song_id for m in manifests] == ["te1"]
    assert sorted(p.name for p in (tmp_path / "out" / "test").iterdir()) == ["te1"]


def test_song_lacking_a_stem_fails_before_any_file_is_written(tmp_path, sphere_db, rng):
    for name in ("a_full", "b_partial"):
        make_song_dir(tmp_path / "data" / "test", name, rng, seconds=0.8)
    (tmp_path / "data" / "test" / "b_partial" / "drums.wav").unlink()
    with pytest.raises(FileNotFoundError, match=r"b_partial lacks stems \['drums'\]"):
        synthesize_dataset(tmp_path / "data", sphere_db, tmp_path / "out", 5)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("inside", [".", "binaural", "test/binaural"])
def test_output_inside_the_dataset_is_refused_and_the_sources_kept(tmp_path, sphere_db, rng, inside):
    save_hrir_database(sphere_db, tmp_path / "hrir")
    make_song_dir(tmp_path / "data" / "test", "te1", rng, seconds=0.8)
    before = _tree_bytes(tmp_path / "data")
    out = tmp_path / "data" / inside
    argv = ["synthesize", "--musdb", tmp_path / "data", "--hrir", tmp_path / "hrir", "--out", out, "--seed", "5"]
    with pytest.raises(ValueError, match=f"output root {re.escape(str(out))} lies inside the dataset root {re.escape(str(tmp_path / 'data'))}"):
        synthesize_dataset(tmp_path / "data", sphere_db, out, 5)
    assert run_cli([str(a) for a in argv]) == 1
    assert _tree_bytes(tmp_path / "data") == before


def test_per_song_seeds_differ_between_songs(tmp_path, sphere_db, rng):
    for name in ("a", "b"):
        make_song_dir(tmp_path / "data" / "test", name, rng, seconds=0.8)
    manifests = synthesize_dataset(tmp_path / "data", sphere_db, tmp_path / "out", 9)
    seeds = [m.seed for m in manifests]
    assert seeds[0] != seeds[1]
    layouts = [tuple(m.stems[s]["azimuth_deg"] for s in STEM_NAMES) for m in manifests]
    # not a hard guarantee, but with distinct seeds these should differ here
    assert layouts[0] != layouts[1]
