import json
import re

import numpy as np
import pytest

from auricle import (
    GRID_DEGREES,
    AudioBuffer,
    HrirDatabase,
    load_hrir_database,
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


def test_index_json_mapping(tmp_path, sphere_db):
    d = tmp_path / "db"
    d.mkdir()
    mapping = {}
    for angle in GRID_DEGREES:
        name = f"ku100_{angle + 90:03d}.wav"
        write_wav(d / name, sphere_db[angle])
        mapping[str(angle)] = name
    (d / "index.json").write_text(json.dumps({"subject_id": "D1", "files": mapping}))
    loaded = load_hrir_database(d)
    assert sorted(loaded.entries) == list(GRID_DEGREES)
    assert loaded.subject_id == "D1"
    assert np.allclose(loaded[-30].left, sphere_db[-30].left, atol=1e-7)
    (d / "index.json").write_text(json.dumps({"files": mapping}))
    assert load_hrir_database(d).subject_id == "db"  # no subject_id: the directory names the set
    for bad in ("", 7, None):
        (d / "index.json").write_text(json.dumps({"subject_id": bad, "files": mapping}))
        with pytest.raises(ValueError, match=r"index\.json: subject_id must be a non-empty string"):
            load_hrir_database(d)


def test_index_json_off_grid_key_named(tmp_path, sphere_db):
    save_hrir_database(sphere_db, tmp_path / "db")
    mapping = {str(a): f"azi_{a}_ele_0.wav" for a in GRID_DEGREES}
    mapping["45"] = "azi_40_ele_0.wav"
    (tmp_path / "db" / "index.json").write_text(json.dumps({"files": mapping}))
    with pytest.raises(ValueError, match="'45'"):
        load_hrir_database(tmp_path / "db")
    (tmp_path / "db" / "index.json").write_text(json.dumps({"left": "azi_0_ele_0.wav"}))
    with pytest.raises(ValueError, match="'left'"):
        load_hrir_database(tmp_path / "db")


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


@pytest.mark.parametrize(
    "text, cause",
    [
        ("{not json", "not valid JSON"),
        ("[1, 2]", "expected a JSON object, got list"),
        ('{"files": [1]}', "files must map azimuths to file names, got list"),
        ('{"files": {"0": 5}}', "file for azimuth '0' must be a file name, got 5"),
        ('{"subject_id": "D1"}', f"no file for azimuths {list(GRID_DEGREES)}"),
        ('{"files": {"0": "azi_0_ele_0.wav"}}', f"no file for azimuths {[a for a in GRID_DEGREES if a]}"),
    ],
)
def test_bad_index_json_is_named(tmp_path, sphere_db, text, cause):
    save_hrir_database(sphere_db, tmp_path / "db")
    index = tmp_path / "db" / "index.json"
    index.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(index))}: {re.escape(cause)}"):
        load_hrir_database(tmp_path / "db")
