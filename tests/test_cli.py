import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import auricle
from auricle import AudioBuffer, MetricConfig, save_hrir_database, song_seed, spherical_head_database, write_wav
from auricle.cli import run_cli

from helpers import make_song_dir


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(99)
    save_hrir_database(spherical_head_database(), root / "hrir")
    for name in ("song1", "song2"):
        make_song_dir(root / "musdb" / "test", name, rng, seconds=1.0)
    return root


def test_synthesize_evaluate_report_pipeline(workspace, capsys):
    root = workspace
    code = run_cli(
        [
            "synthesize",
            "--musdb", str(root / "musdb"),
            "--hrir", str(root / "hrir"),
            "--out", str(root / "binaural"),
            "--seed", "17",
        ]
    )
    assert code == 0
    assert "synthesized 2 tracks" in capsys.readouterr().out
    for name in ("song1", "song2"):
        song = root / "binaural" / "test" / name
        assert (song / "mixture.wav").exists()
        manifest = json.loads((song / "layout.json").read_text())
        assert manifest["song_id"] == name
        assert manifest["seed"] != 17  # per-song seed derived from the master

    code = run_cli(
        [
            "evaluate",
            "--reference", str(root / "binaural"),
            "--estimates", str(root / "binaural"),
            "--out", str(root / "rows.csv"),
        ]
    )
    assert code == 0
    lines = (root / "rows.csv").read_text().splitlines()
    assert len(lines) == 1 + 8  # header + 2 songs x 4 stems
    assert all(",inf,inf,0.0,0.0" in l for l in lines[1:])

    code = run_cli(
        [
            "report",
            "--in", str(root / "rows.csv"),
            "--out", str(root / "report.csv"),
            "--format", "csv",
            "--by-angle",
        ]
    )
    assert code == 0
    text = (root / "report.csv").read_text()
    assert "group,metric,bass,drums,other,vocals,overall" in text
    assert "all,delta_itd_us,0.00,0.00,0.00,0.00,0.00" in text
    assert "all,ssr_db,inf,inf,inf,inf,inf" in text


def test_same_seed_reproduces_manifests(workspace):
    root = workspace
    for out in ("rep_a", "rep_b"):
        assert run_cli(
            [
                "synthesize",
                "--musdb", str(root / "musdb"),
                "--hrir", str(root / "hrir"),
                "--out", str(root / out),
                "--seed", "123",
            ]
        ) == 0
    for name in ("song1", "song2"):
        a = (root / "rep_a" / "test" / name / "layout.json").read_bytes()
        b = (root / "rep_b" / "test" / name / "layout.json").read_bytes()
        assert a == b


def test_jobs_flag_matches_serial(workspace):
    root = workspace
    for jobs, out in (("1", "serial.csv"), ("2", "parallel.csv")):
        assert run_cli(
            [
                "evaluate",
                "--reference", str(root / "binaural"),
                "--estimates", str(root / "binaural"),
                "--out", str(root / out),
                "--jobs", jobs,
            ]
        ) == 0
    assert (root / "serial.csv").read_bytes() == (root / "parallel.csv").read_bytes()


def test_unknown_subcommand_nonzero(capsys):
    assert run_cli(["frobnicate"]) != 0


def test_error_paths_exit_nonzero(workspace, tmp_path, capsys):
    root = workspace
    code = run_cli(
        [
            "synthesize",
            "--musdb", str(tmp_path / "nope"),
            "--hrir", str(root / "hrir"),
            "--out", str(tmp_path / "x"),
            "--seed", "1",
        ]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err

    code = run_cli(["report", "--in", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "r.csv")])
    assert code == 1


def _mono_stem(song, hrir):
    write_wav(song / "bass.wav", AudioBuffer(np.full(4410, 0.1), 44100))
    return rf"{re.escape(str(song / 'bass.wav'))}: downmix expects 2 channels, got 1"


def _short_stem(song, hrir):
    write_wav(song / "other.wav", AudioBuffer(np.full((2, 4410), 0.1), 44100))
    return rf"{re.escape(str(song))}: stems must share channel count, length and sample rate; .*\(2, 4537, 44100\)\]"


def _one_stem_at_48k(song, hrir):
    write_wav(song / "drums.wav", AudioBuffer(np.full((2, 22050), 0.1), 48000))
    return rf"{re.escape(str(song / 'drums.wav'))}: sample-rate mismatch: signal 48000 Hz vs HRIR 44100 Hz"


def _all_stems_at_48k(song, hrir):
    make_song_dir(song.parent, song.name, np.random.default_rng(2), fs=48000, seconds=0.5)
    return rf"{re.escape(str(song / 'vocals.wav'))}: sample-rate mismatch: signal 48000 Hz vs HRIR 44100 Hz"


def _hrir_set_at_48k(song, hrir):
    for path in hrir.iterdir():
        write_wav(path, AudioBuffer(np.full((2, 128), 0.1), 48000))
    return r"HRIR set 'sphere' is at 48000 Hz; a set must be at 44100 Hz"


def _mixed_hrir_set(song, hrir):
    write_wav(hrir / "azi_30_ele_0.wav", AudioBuffer(np.full((2, 128), 0.1), 48000))
    return r"HRIR set mixes lengths or rates: most azimuths have 128 taps at 44100 Hz, but 30 has 128 taps at 48000 Hz"


@pytest.mark.parametrize(
    "spoil",
    [_mono_stem, _short_stem, _one_stem_at_48k, _all_stems_at_48k, _hrir_set_at_48k, _mixed_hrir_set],
    ids=lambda spoil: spoil.__name__[1:],
)
def test_synthesize_refuses_bad_input_by_name_before_writing(tmp_path, capsys, spoil):
    song = make_song_dir(tmp_path / "musdb", "song1", np.random.default_rng(1), seconds=0.5)
    save_hrir_database(spherical_head_database(), tmp_path / "sphere")
    message = spoil(song, tmp_path / "sphere")
    argv = ["synthesize", "--musdb", tmp_path / "musdb", "--hrir", tmp_path / "sphere", "--out", tmp_path / "out", "--seed", 1]
    assert run_cli([str(a) for a in argv]) == 1
    assert re.fullmatch(f"error: {message}\n", capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def _pair(ref, est, stem):
    return rf"{re.escape(str(ref / stem))} / {re.escape(str(est / stem))}"


def _mono_estimate(ref, est):
    write_wav(est / "drums.wav", AudioBuffer(np.full(22050, 0.1), 44100))
    return rf"{_pair(ref, est, 'drums.wav')}: channel counts differ: reference 2 vs estimate 1"


def _estimate_at_48k(ref, est):
    write_wav(est / "bass.wav", AudioBuffer(np.full((2, 24000), 0.1), 48000))
    return rf"{_pair(ref, est, 'bass.wav')}: sample-rate mismatch: reference 44100 Hz vs estimate 48000 Hz"


def _estimate_50000_samples_longer(ref, est):
    write_wav(est / "other.wav", AudioBuffer(np.full((2, 22050 + 50000), 0.1), 44100))
    return (
        rf"{_pair(ref, est, 'other.wav')}: length mismatch of 50000 samples exceeds one 1\.0 s frame; "
        "refusing to compare misaligned signals"
    )


def _missing_estimate(ref, est):
    (est / "vocals.wav").unlink()
    return rf"no such audio file: {re.escape(str(est / 'vocals.wav'))}"


def _both_mono(ref, est):
    for tree in (ref, est):
        write_wav(tree / "vocals.wav", AudioBuffer(np.full(22050, 0.1), 44100))
    return rf"{_pair(ref, est, 'vocals.wav')}: ITD needs a stereo signal"


@pytest.mark.parametrize(
    "spoil",
    [_mono_estimate, _estimate_at_48k, _estimate_50000_samples_longer, _missing_estimate, _both_mono],
    ids=lambda spoil: spoil.__name__[1:],
)
def test_evaluate_refuses_bad_input_by_name_before_writing(tmp_path, capsys, spoil):
    ref = make_song_dir(tmp_path / "ref", "song1", np.random.default_rng(3), seconds=0.5)
    est = make_song_dir(tmp_path / "est", "song1", np.random.default_rng(4), seconds=0.5)
    message = spoil(ref, est)
    argv = ["evaluate", "--reference", tmp_path / "ref", "--estimates", tmp_path / "est", "--out", tmp_path / "rows.csv"]
    assert run_cli([str(a) for a in argv]) == 1
    assert re.fullmatch(f"error: {message}\n", capsys.readouterr().err)
    assert not (tmp_path / "rows.csv").exists()


def test_a_song_synthesized_as_dot_is_named_after_its_directory(workspace, tmp_path, monkeypatch):
    monkeypatch.chdir(workspace / "musdb" / "test" / "song1")
    argv = ["synthesize", "--musdb", ".", "--hrir", workspace / "hrir", "--out", tmp_path / "out", "--seed", 5]
    assert run_cli([str(a) for a in argv]) == 0
    manifest = json.loads((tmp_path / "out" / "layout.json").read_text())
    assert (manifest["song_id"], manifest["seed"]) == ("song1", song_seed(5, "song1"))


def test_module_run_reaches_main(tmp_path):
    # python -m auricle.cli must run the command, not import the module and exit 0
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(auricle.__file__).parents[1]), env.get("PYTHONPATH")]))
    argv = ["synthesize", "--musdb", "nope", "--hrir", "nope", "--out", "x", "--seed", "1"]
    done = subprocess.run(
        [sys.executable, "-m", "auricle.cli", *argv], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 1
    assert done.stderr.startswith("error: ")
    assert not (tmp_path / "x").exists()


def test_evaluate_rejects_a_nan_setting(tmp_path, capsys):
    # a NaN threshold would otherwise write empty SSR, SRR and ΔITD cells with no error
    argv = ["evaluate", "--reference", str(tmp_path), "--estimates", str(tmp_path), "--out", str(tmp_path / "m.csv")]
    assert run_cli(argv + ["--itd-threshold", "nan"]) == 1
    assert "error: silence_threshold must be positive and finite, got nan" in capsys.readouterr().err
    assert not (tmp_path / "m.csv").exists()


def test_markdown_report(workspace, tmp_path):
    root = workspace
    assert run_cli(
        [
            "report",
            "--in", str(root / "rows.csv"),
            "--out", str(tmp_path / "r.md"),
            "--format", "markdown",
        ]
    ) == 0
    assert "| Metric | Bass |" in (tmp_path / "r.md").read_text()


def test_evaluate_flags_reach_their_config_fields(tmp_path, monkeypatch):
    # every flag set away from its default must land in its own MetricConfig field
    seen = []
    monkeypatch.setattr("auricle.cli.evaluate_tree", lambda ref, est, cfg, jobs: seen.append(cfg) or [])
    base = ["evaluate", "--reference", str(tmp_path), "--estimates", str(tmp_path), "--out", str(tmp_path / "m.csv")]
    flags = [
        "--itd-frame", "0.25",
        "--itd-threshold", "0.002",
        "--max-lag-ms", "0.5",
        "--ssr-window", "0.75",
        "--ssr-hop", "0.25",
        "--proj-max-delay-ms", "0.625",
        "--tukey-alpha", "0.125",
    ]
    assert run_cli(base) == 0
    assert run_cli(base + flags) == 0
    want = MetricConfig(
        itd_frame_len=0.25,
        silence_threshold=0.002,
        max_lag=0.5 / 1000.0,
        ssr_window=0.75,
        ssr_hop=0.25,
        proj_max_delay=0.625 / 1000.0,
        tukey_alpha=0.125,
    )
    assert seen == [MetricConfig(), want]
    assert all(getattr(want, f.name) != getattr(MetricConfig(), f.name) for f in fields(MetricConfig))
