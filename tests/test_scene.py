import hashlib
import json
import multiprocessing
import re

import numpy as np
import pytest

import auricle.scene
from auricle import (
    STEM_NAMES,
    AudioBuffer,
    Manifest,
    binauralize,
    downmix_mono,
    fft_convolve,
    mix_and_normalize,
    read_manifest,
    read_wav,
    sample_layout,
    signal_itd,
    signal_itd_lag,
    spherical_head_database,
    synthesize_track,
    write_wav,
)
from auricle.hrir import GRID_DEGREES

from helpers import make_song_dir, noise_buffer


def test_downmix_examples(rng):
    x = rng.normal(size=500)
    same = AudioBuffer(np.stack([x, x]), 44100)
    assert np.allclose(downmix_mono(same).samples[0], x)
    opposite = AudioBuffer(np.stack([x, -x]), 44100)
    assert np.all(downmix_mono(opposite).samples == 0.0)
    const = AudioBuffer(np.stack([np.full(100, 1.0), np.full(100, 0.5)]), 44100)
    assert np.allclose(downmix_mono(const).samples[0], 0.75)
    with pytest.raises(ValueError):
        downmix_mono(AudioBuffer(np.zeros((1, 10)) + 0.1, 44100))


def test_binauralize_impulse_reproduces_hrir(sphere_db):
    impulse = np.zeros(64)
    impulse[0] = 1.0
    out = binauralize(AudioBuffer(impulse, 44100), sphere_db[30])
    assert out.num_samples == 64 + sphere_db[30].num_samples - 1
    assert np.allclose(out.samples[:, : sphere_db[30].num_samples], sphere_db[30].samples, atol=1e-12)


def test_binauralize_delta_hrir_duplicates_signal(rng):
    delta = np.zeros(32)
    delta[0] = 1.0
    pair = AudioBuffer(np.stack([delta, delta]), 44100)
    x = rng.normal(size=400) * 0.2
    out = binauralize(AudioBuffer(x, 44100), pair)
    assert np.allclose(out.left[:400], x, atol=1e-12)
    assert np.allclose(out.right[:400], x, atol=1e-12)


@pytest.mark.parametrize("ir_length", [128, 1024])
def test_binauralize_equals_per_ear_direct_convolution(rng, ir_length):
    db = spherical_head_database(ir_length=ir_length)
    x = rng.normal(size=2 * 44100) * 0.1
    for azimuth in GRID_DEGREES:
        pair = db[azimuth]
        out = binauralize(AudioBuffer(x, 44100), pair)
        assert np.max(np.abs(out.left - np.convolve(x, pair.left))) <= 1e-12
        assert np.max(np.abs(out.right - np.convolve(x, pair.right))) <= 1e-12


@pytest.mark.parametrize("taps", [1, 128, 1024])
def test_binauralize_equals_two_convolutions_in_turn(rng, taps):
    # 200_003 samples take four passes of FFT blocks at every tap count.
    pair = AudioBuffer(rng.normal(size=(2, taps)), 44100)
    for n in (1, 5000, 200_003):
        x = rng.normal(size=n)
        out = binauralize(AudioBuffer(x, 44100), pair)
        assert np.array_equal(out.samples, np.stack([fft_convolve(x, pair.left), fft_convolve(x, pair.right)]))


@pytest.mark.parametrize("channels", [1, 3])
def test_binauralize_rejects_an_hrir_that_is_not_stereo(rng, channels):
    hrir = AudioBuffer(rng.normal(size=(channels, 64)), 44100)
    with pytest.raises(ValueError, match=f"^binauralize expects a stereo HRIR, got {channels} channels$"):
        binauralize(AudioBuffer(rng.normal(size=1000), 44100), hrir)


def test_binauralize_right_ear_failure_propagates(rng, monkeypatch):
    pair = AudioBuffer(rng.normal(size=(2, 64)), 44100)

    def convolve(signal, kernel, out=None):
        if np.shares_memory(kernel, pair.samples[1]):
            raise RuntimeError("right ear failed")
        return fft_convolve(signal, kernel, out)

    monkeypatch.setattr(auricle.scene, "fft_convolve", convolve)
    with pytest.raises(RuntimeError, match="right ear failed"):
        binauralize(AudioBuffer(rng.normal(size=1000), 44100), pair)


def _render_and_exit(mono, pair, want):
    raise SystemExit(0 if np.array_equal(binauralize(mono, pair).samples, want) else 1)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs fork")
def test_binauralize_in_forked_child_after_parent(rng, sphere_db):
    mono = AudioBuffer(rng.normal(size=50_000), 44100)
    want = binauralize(mono, sphere_db[40]).samples
    child = multiprocessing.get_context("fork").Process(target=_render_and_exit, args=(mono, sphere_db[40], want))
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("binauralize hung in a forked child")
    assert child.exitcode == 0


def test_binauralize_rate_mismatch(sphere_db):
    with pytest.raises(ValueError, match="mismatch"):
        binauralize(AudioBuffer(np.ones(100), 48000), sphere_db[0])


def test_far_left_source_itd_plausible(sphere_db, rng):
    mono = noise_buffer(rng, seconds=2.0, channels=1)
    rendered = binauralize(mono, sphere_db[90])
    itd = signal_itd(rendered)
    itd_us = itd.value * 1e6
    assert 500.0 <= itd_us <= 800.0
    # regression pin: the fixture database places 29 samples of lag at +90
    assert signal_itd_lag(rendered) == 29


def test_center_source_itd_zero(sphere_db, rng):
    mono = noise_buffer(rng, seconds=1.0, channels=1)
    rendered = binauralize(mono, sphere_db[0])
    assert signal_itd(rendered).value == 0.0


def test_mix_silent_stems():
    silent = [AudioBuffer(np.zeros((2, 100)), 44100) for _ in range(4)]
    mixture, gain, scaled = mix_and_normalize(silent)
    assert gain == 1.0
    assert np.all(mixture.samples == 0.0)
    assert all(np.all(s.samples == 0.0) for s in scaled)


def test_mix_peak_normalization():
    ones = AudioBuffer(np.ones((2, 50)), 44100)
    zeros = AudioBuffer(np.zeros((2, 50)), 44100)
    mixture, gain, scaled = mix_and_normalize([ones, ones, zeros, zeros])
    assert gain == pytest.approx(0.495)
    assert np.max(np.abs(mixture.samples)) == pytest.approx(0.99)


def test_mix_additivity_exact(rng):
    stems = [noise_buffer(rng, seconds=0.1, amplitude=0.5) for _ in range(4)]
    mixture, gain, scaled = mix_and_normalize(stems)
    total = np.zeros_like(mixture.samples)
    for s in scaled:
        total += s.samples
    assert np.max(np.abs(mixture.samples - total)) <= 1e-12


def test_mix_quiet_signals_not_boosted(rng):
    stems = [noise_buffer(rng, seconds=0.1, amplitude=0.01) for _ in range(4)]
    _, gain, _ = mix_and_normalize(stems)
    assert gain == 1.0


def test_mix_length_mismatch():
    a = AudioBuffer(np.zeros((2, 100)) + 0.1, 44100)
    b = AudioBuffer(np.zeros((2, 99)) + 0.1, 44100)
    with pytest.raises(ValueError):
        mix_and_normalize([a, b])


def test_synthesize_track_outputs(tmp_path, sphere_db, rng):
    song = make_song_dir(tmp_path / "in", "song1", rng)
    layout = sample_layout(11)
    out = tmp_path / "out" / "song1"
    manifest = synthesize_track(song, sphere_db, layout, out)

    for stem in STEM_NAMES:
        assert (out / f"{stem}.wav").exists()
    assert (out / "mixture.wav").exists()

    data = json.loads((out / "layout.json").read_text())
    assert set(data) == {"song_id", "seed", "hrtf_subject", "sample_rate", "normalization_gain", "stems"}
    assert data["song_id"] == "song1"
    assert data["sample_rate"] == 44100
    assert data["normalization_gain"] > 0
    assert set(data["stems"]) == set(STEM_NAMES)
    for stem in STEM_NAMES:
        assert data["stems"][stem]["azimuth_deg"] == layout.assignments[stem]
    assert read_manifest(out / "layout.json").song_id == manifest.song_id


def test_synthesized_mixture_equals_stem_sum(tmp_path, sphere_db, rng):
    song = make_song_dir(tmp_path / "in", "song1", rng)
    out = tmp_path / "out" / "song1"
    synthesize_track(song, sphere_db, sample_layout(3), out)
    mixture = read_wav(out / "mixture.wav")
    total = np.zeros_like(mixture.samples)
    for stem in STEM_NAMES:
        total += read_wav(out / f"{stem}.wav").samples
    assert np.max(np.abs(mixture.samples - total)) <= 1e-6


def test_synthesize_deterministic(tmp_path, sphere_db, rng):
    song = make_song_dir(tmp_path / "in", "song1", rng)
    layout = sample_layout(99)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    synthesize_track(song, sphere_db, layout, out_a)
    synthesize_track(song, sphere_db, layout, out_b)
    for name in [f"{s}.wav" for s in STEM_NAMES] + ["mixture.wav", "layout.json"]:
        ha = hashlib.sha256((out_a / name).read_bytes()).hexdigest()
        hb = hashlib.sha256((out_b / name).read_bytes()).hexdigest()
        assert ha == hb, name


def test_synthesized_center_stem_has_zero_itd(tmp_path, sphere_db, rng):
    song = make_song_dir(tmp_path / "in", "song1", rng)
    layout = sample_layout(5)
    # force vocals to the median plane, keeping the layout valid
    angles = layout.assignments
    if 0 in angles.values():
        swap = next(k for k, v in angles.items() if v == 0)
        angles[swap], angles["vocals"] = angles["vocals"], 0
    else:
        angles["vocals"] = 0
    out = tmp_path / "out"
    synthesize_track(song, sphere_db, layout, out)
    rendered = read_wav(out / "vocals.wav")
    assert signal_itd(rendered).value == 0.0


def test_missing_stem_is_named(tmp_path, sphere_db, rng):
    song = make_song_dir(tmp_path / "in", "song1", rng)
    (song / "drums.wav").unlink()
    with pytest.raises(FileNotFoundError, match="drums"):
        synthesize_track(song, sphere_db, sample_layout(0), tmp_path / "out")


def test_mono_stem_is_named(tmp_path, sphere_db, rng):
    song = make_song_dir(tmp_path / "in", "song1", rng)
    write_wav(song / "bass.wav", noise_buffer(rng, seconds=1.5, channels=1), encoding="pcm16")
    with pytest.raises(ValueError, match=r"bass\.wav: downmix expects 2 channels, got 1"):
        synthesize_track(song, sphere_db, sample_layout(0), tmp_path / "out")


def test_stem_length_mismatch_rejected(tmp_path, sphere_db, rng):
    song = make_song_dir(tmp_path / "in", "song1", rng)
    short = noise_buffer(rng, seconds=0.5)
    write_wav(song / "other.wav", short, encoding="pcm16")
    with pytest.raises(ValueError, match="length"):
        synthesize_track(song, sphere_db, sample_layout(0), tmp_path / "out")


def test_one_stem_at_another_rate_names_the_track(tmp_path, sphere_db, rng):
    song = make_song_dir(tmp_path / "in", "song1", rng)
    n = read_wav(song / "vocals.wav").num_samples
    write_wav(song / "drums.wav", AudioBuffer(0.1 * rng.normal(size=(2, n)), 48000), encoding="pcm16")
    with pytest.raises(ValueError, match=rf"stems in {re.escape(str(song))} differ in sample rate: \[44100, 48000\]"):
        synthesize_track(song, sphere_db, sample_layout(0), tmp_path / "out")


def test_track_rate_off_the_hrir_rate_names_the_track(tmp_path, sphere_db, rng):
    song = make_song_dir(tmp_path / "in", "song1", rng, fs=48000)
    with pytest.raises(ValueError, match=rf"{re.escape(str(song))}: track rate 48000 Hz does not match HRIR rate 44100 Hz"):
        synthesize_track(song, sphere_db, sample_layout(0), tmp_path / "out")


def test_layout_of_numpy_angles_writes_plain_json(tmp_path, sphere_db, rng):
    song = make_song_dir(tmp_path / "in", "song1", rng)
    layout = sample_layout(4)
    numpy_layout = auricle.scene.SceneLayout({s: np.int64(a) for s, a in layout.assignments.items()}, layout.seed)
    synthesize_track(song, sphere_db, numpy_layout, tmp_path / "out")
    stems = json.loads((tmp_path / "out" / "layout.json").read_text())["stems"]
    assert stems == {s: {"azimuth_deg": a} for s, a in layout.assignments.items()}


def _manifest():
    stems = {stem: {"azimuth_deg": angle} for stem, angle in zip(STEM_NAMES, (-30, 0, 40, 90))}
    return Manifest("song1", 7, "sphere", 44100, 0.5, stems)


def test_manifest_write_then_read_is_equal(tmp_path):
    _manifest().write(tmp_path / "layout.json")
    assert read_manifest(tmp_path / "layout.json") == _manifest()


def test_manifest_with_an_unknown_key_loads(tmp_path):
    path = tmp_path / "layout.json"
    _manifest().write(path)
    data = json.loads(path.read_text())
    data["hrir_sha256"] = "0" * 64
    path.write_text(json.dumps(data))
    assert read_manifest(path) == _manifest()


def test_manifest_missing_fields_are_named_with_the_file(tmp_path):
    path = tmp_path / "layout.json"
    _manifest().write(path)
    data = json.loads(path.read_text())
    del data["song_id"], data["normalization_gain"]
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: manifest lacks fields \['song_id', 'normalization_gain'\]"):
        read_manifest(path)


@pytest.mark.parametrize("stems", [{"vocals": {"azimuth_deg": -30}, "bass": {}, "other": {"azimuth_deg": 90}}, []])
def test_manifest_stems_without_an_azimuth_are_named_with_the_file(tmp_path, stems):
    path = tmp_path / "layout.json"
    _manifest().write(path)
    data = json.loads(path.read_text())
    data["stems"] = stems
    path.write_text(json.dumps(data))
    unplaced = ["bass", "drums"] if stems else list(STEM_NAMES)
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: manifest stems lack an azimuth_deg for {re.escape(str(unplaced))}"):
        read_manifest(path)


def test_manifest_that_is_not_json_is_named_with_the_file(tmp_path):
    path = tmp_path / "layout.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: manifest is not valid JSON"):
        read_manifest(path)


@pytest.mark.parametrize("angle", [30.7, -200, 91, "left", True, None])
def test_manifest_azimuth_off_the_integer_range_is_named_with_the_file(tmp_path, angle):
    path = tmp_path / "layout.json"
    _manifest().write(path)
    data = json.loads(path.read_text())
    data["stems"]["drums"]["azimuth_deg"] = angle
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: drums: azimuth_deg must be an integer in \[-90, 90\], got {re.escape(repr(angle))}$"):
        read_manifest(path)
