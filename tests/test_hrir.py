import json

import numpy as np
import pytest

from auricle import (
    GRID_DEGREES,
    AudioBuffer,
    HrirDatabase,
    HrirPair,
    load_hrir_database,
    save_hrir_database,
    spherical_head_database,
    write_wav,
)


def test_grid_is_19_angles():
    assert len(GRID_DEGREES) == 19
    assert GRID_DEGREES[0] == -90 and GRID_DEGREES[-1] == 90


def test_pair_validation():
    with pytest.raises(ValueError):
        HrirPair(45, np.zeros(8), np.zeros(8), 44100)  # off-grid
    with pytest.raises(ValueError):
        HrirPair(40, np.zeros(8), np.zeros(4), 44100)  # unequal lengths


def test_pair_rejects_non_integer_rate():
    with pytest.raises(ValueError, match="positive integer, got 44100.5"):
        HrirPair(0, np.ones(8), np.ones(8), 44100.5)


def test_database_requires_full_grid(sphere_db):
    entries = dict(sphere_db.entries)
    del entries[40]
    with pytest.raises(ValueError, match="40"):
        HrirDatabase("partial", entries)


def test_save_load_roundtrip(tmp_path, sphere_db):
    save_hrir_database(sphere_db, tmp_path / "db")
    loaded = load_hrir_database(tmp_path / "db")
    assert len(loaded) == 19
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
        pair = sphere_db[angle]
        name = f"ku100_{angle + 90:03d}.wav"
        write_wav(d / name, AudioBuffer(np.stack([pair.left, pair.right]), 44100))
        mapping[str(angle)] = name
    (d / "index.json").write_text(json.dumps({"subject_id": "D1", "files": mapping}))
    loaded = load_hrir_database(d)
    assert len(loaded) == 19
    assert np.allclose(loaded[-30].left, sphere_db[-30].left, atol=1e-7)


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
