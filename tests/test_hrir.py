import re

import numpy as np
import pytest

from auricle import (
    GRID_DEGREES,
    AudioBuffer,
    HrirDatabase,
    load_hrir_database,
    read_wav,
    save_hrir_database,
    spherical_head_database,
    write_wav,
)
from auricle.cli import run_cli

from helpers import make_song_dir


def test_grid_is_19_angles():
    assert len(GRID_DEGREES) == 19
    assert GRID_DEGREES[0] == -90 and GRID_DEGREES[-1] == 90


def test_database_requires_full_grid(sphere_db):
    entries = dict(sphere_db.entries)
    del entries[40]
    with pytest.raises(ValueError, match="40"):
        HrirDatabase("partial", entries)


def test_database_rejects_an_off_grid_angle(sphere_db):
    entries = dict(sphere_db.entries)
    entries[45] = sphere_db[40]
    with pytest.raises(ValueError, match=r"off-grid angles \[45\]"):
        HrirDatabase("extra", entries)


@pytest.mark.parametrize(
    "channels, taps, rate, cause",
    [
        (2, 192, 44100, "HRIR set mixes lengths or rates: most azimuths have 128 taps at 44100 Hz, but 40 has 192 taps at 44100 Hz"),
        (2, 128, 48000, "HRIR set mixes lengths or rates: most azimuths have 128 taps at 44100 Hz, but 40 has 128 taps at 48000 Hz"),
        (1, 128, 44100, "HRIRs for azimuths [40] are not stereo"),
    ],
    ids=["taps", "rate", "mono"],
)
def test_database_names_the_angle_unlike_the_set(sphere_db, channels, taps, rate, cause):
    entries = dict(sphere_db.entries)
    entries[40] = AudioBuffer(np.full((channels, taps), 0.1), rate)
    with pytest.raises(ValueError, match=f"^{re.escape(cause)}$"):
        HrirDatabase("mixed", entries)


def test_database_names_every_angle_that_is_not_stereo(sphere_db):
    entries = dict(sphere_db.entries)
    entries[40] = AudioBuffer(sphere_db[40].left, 44100)
    entries[-90] = AudioBuffer(np.full((3, 128), 0.1), 44100)
    with pytest.raises(ValueError, match=r"^HRIRs for azimuths \[-90, 40\] are not stereo$"):
        HrirDatabase("mono", entries)


def test_synthesize_refuses_a_mixed_set_before_writing(tmp_path, sphere_db, rng, capsys):
    save_hrir_database(sphere_db, tmp_path / "hrir")
    write_wav(tmp_path / "hrir" / "azi_40_ele_0.wav", AudioBuffer(np.full((2, 192), 0.1), 44100))
    make_song_dir(tmp_path / "musdb" / "test", "te1", rng, seconds=0.5)
    argv = ["synthesize", "--musdb", tmp_path / "musdb", "--hrir", tmp_path / "hrir", "--out", tmp_path / "out", "--seed", 1]
    assert run_cli([str(a) for a in argv]) == 1
    assert "but 40 has 192 taps at 44100 Hz" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_missing_directory_is_named(tmp_path):
    with pytest.raises(FileNotFoundError, match=f"HRIR directory not found: {re.escape(str(tmp_path / 'nope'))}$"):
        load_hrir_database(tmp_path / "nope")


def test_save_load_roundtrip(tmp_path, sphere_db):
    save_hrir_database(sphere_db, tmp_path / "db")
    loaded = load_hrir_database(tmp_path / "db")
    assert loaded.subject_id == "db"  # the directory names the set
    assert sorted(loaded.entries) == list(GRID_DEGREES)
    for angle in GRID_DEGREES:
        assert np.allclose(loaded[angle].left, sphere_db[angle].left, atol=1e-7)
        assert np.allclose(loaded[angle].right, sphere_db[angle].right, atol=1e-7)


def test_missing_angle_is_named(tmp_path, sphere_db):
    save_hrir_database(sphere_db, tmp_path / "db")
    (tmp_path / "db" / "azi_40_ele_0.wav").unlink()
    with pytest.raises(FileNotFoundError, match="40"):
        load_hrir_database(tmp_path / "db")


def test_sample_rate_mismatch(tmp_path, sphere_db):
    save_hrir_database(sphere_db, tmp_path / "db")
    bad = AudioBuffer(np.zeros((2, 64)) + 0.1, 48000)
    write_wav(tmp_path / "db" / "azi_0_ele_0.wav", bad)
    with pytest.raises(ValueError, match="sample-rate mismatch"):
        load_hrir_database(tmp_path / "db")


def test_mono_file_rejected(tmp_path, sphere_db):
    save_hrir_database(sphere_db, tmp_path / "db")
    write_wav(tmp_path / "db" / "azi_0_ele_0.wav", AudioBuffer(np.ones(64) * 0.1, 44100))
    with pytest.raises(ValueError, match="stereo"):
        load_hrir_database(tmp_path / "db")


def test_saving_a_set_off_the_loader_rate_is_refused_before_writing(tmp_path, sphere_db):
    # A 48 kHz measured set would save, and then load_hrir_database would refuse it.
    entries = {a: AudioBuffer(sphere_db[a].samples, 48000) for a in GRID_DEGREES}
    with pytest.raises(ValueError, match=r"^HRIR set 'D1' is at 48000 Hz; a saved set must be at 44100 Hz$"):
        save_hrir_database(HrirDatabase("D1", entries), tmp_path / "hrir" / "D1")
    assert list(tmp_path.iterdir()) == []


def test_spherical_head_structure(sphere_db):
    center = sphere_db[0]
    assert np.array_equal(center.left, center.right)  # median plane symmetry
    lateral = sphere_db[90]
    # left ear leads for a far-left source, right ear is attenuated
    assert np.argmax(np.abs(lateral.left)) < np.argmax(np.abs(lateral.right))
    assert np.sum(lateral.right**2) < np.sum(lateral.left**2)
    # mirror symmetry
    mirrored = sphere_db[-90]
    assert np.array_equal(mirrored.left, lateral.right)
    assert np.array_equal(mirrored.right, lateral.left)


@pytest.mark.parametrize("ir_length", [1, 6, 34])
def test_sphere_too_short_for_the_far_ear_is_named(ir_length):
    # The far ear's 6-tap pulse starts 29 samples late at +-90 degrees.
    with pytest.raises(ValueError, match=rf"^ir_length must be at least 35 for azimuth -90, got {ir_length}$"):
        spherical_head_database(ir_length=ir_length)
    assert np.flatnonzero(spherical_head_database(ir_length=35)[-90].left)[-1] == 34  # the pulse ends on the last tap


def test_readme_recipe_converts_a_measured_set(tmp_path, sphere_db):
    source = {a: tmp_path / "download" / f"ku100_{a + 90:03d}.wav" for a in GRID_DEGREES}
    for angle, path in source.items():
        write_wav(path, sphere_db[angle])
    # The conversion as README.md gives it
    entries = {a: read_wav(source[a]) for a in GRID_DEGREES}
    save_hrir_database(HrirDatabase("D1", entries), tmp_path / "hrir" / "D1")

    loaded = load_hrir_database(tmp_path / "hrir" / "D1")
    assert loaded.subject_id == "D1"
    for angle in GRID_DEGREES:
        assert (tmp_path / "hrir" / "D1" / f"azi_{angle}_ele_0.wav").read_bytes() == source[angle].read_bytes()
        assert loaded[angle].samples.tobytes() == entries[angle].samples.tobytes()


@pytest.mark.parametrize("wavs", [True, False], ids=["with-wavs", "index-only"])
def test_a_leftover_index_json_is_refused_before_reading(tmp_path, sphere_db, rng, monkeypatch, capsys, wavs):
    if wavs:
        save_hrir_database(sphere_db, tmp_path / "hrir")
    index = tmp_path / "hrir" / "index.json"
    index.parent.mkdir(exist_ok=True)
    index.write_text('{"0": "azi_0_ele_0.wav"}')
    reads = []
    monkeypatch.setattr("auricle.hrir.read_wav", lambda path: reads.append(path))
    with pytest.raises(ValueError, match=f"^{re.escape(str(index))}: an angle-to-file index is not read; "):
        load_hrir_database(tmp_path / "hrir")
    assert reads == []

    make_song_dir(tmp_path / "musdb" / "test", "te1", rng, seconds=0.5)
    argv = ["synthesize", "--musdb", tmp_path / "musdb", "--hrir", tmp_path / "hrir", "--out", tmp_path / "out", "--seed", 1]
    assert run_cli([str(a) for a in argv]) == 1
    assert f"error: {index}: an angle-to-file index is not read" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
