"""Tests of the benchmark itself: inputs, output checks, tracing and metric names.

Run from the repository root: ``python3 -m pytest -q bench/tests``.
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import auricle.cli  # noqa: E402
import auricle.metrics  # noqa: E402
from checks import SynthCheck, compare_tables  # noqa: E402
from inputs import FS, write_float32, write_hrir_set, write_reference, write_separator, write_song_tree  # noqa: E402
from run import END_TO_END, PINNED  # noqa: E402
from tracing import PER_LAYER, Tracer, layer_metrics  # noqa: E402


def _cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return auricle.cli.run_cli([str(a) for a in argv])


def _tree_bytes(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _eval_inputs(root: Path, seed: int) -> tuple[Path, Path, Path]:
    musdb = write_song_tree(root / "musdb", seed, songs=1, seconds=2.0)
    hrir = write_hrir_set(root / "hrir", 128)
    reference = write_reference(musdb, hrir, root / "reference", seed)
    return reference, write_separator(reference, root / "est0", seed, 0), write_separator(reference, root / "est2", seed, 2)


def test_generator_is_deterministic(tmp_path):
    _eval_inputs(tmp_path / "a", 7)
    _eval_inputs(tmp_path / "b", 7)
    _eval_inputs(tmp_path / "c", 8)
    first = _tree_bytes(tmp_path / "a")
    assert first and first == _tree_bytes(tmp_path / "b")
    assert first.keys() == _tree_bytes(tmp_path / "c").keys()
    assert first != _tree_bytes(tmp_path / "c")


def test_table_check_rejects_itd_off_by_one_sample():
    pinned = json.loads(PINNED.read_text())["sets"][0]["system1.csv"]
    assert compare_tables(pinned, pinned) == []
    header, first, *rest = pinned.splitlines(keepends=True)
    cells = first.rstrip("\n").split(",")
    col = header.rstrip("\n").split(",")
    itd, ssr = col.index("delta_itd_us"), col.index("ssr_db")

    within = list(cells)
    within[ssr] = repr(float(cells[ssr]) + 1e-8)
    assert compare_tables("".join([header, ",".join(within) + "\n", *rest]), pinned) == []

    off = list(cells)
    off[itd] = repr(float(cells[itd]) + 1e6 / FS)
    problems = compare_tables("".join([header, ",".join(off) + "\n", *rest]), pinned)
    assert len(problems) == 1 and "col 5" in problems[0]


def test_synth_check_rejects_perturbed_stem(tmp_path):
    musdb = write_song_tree(tmp_path / "musdb", 3, songs=1, seconds=1.0)
    hrir = write_hrir_set(tmp_path / "hrir", 128)
    out = tmp_path / "out"
    assert _cli(["synthesize", "--musdb", musdb, "--hrir", hrir, "--out", out, "--seed", 3]) == 0
    check = SynthCheck(musdb, hrir, out, 3)
    assert check() == []

    wrong_seed = SynthCheck(musdb, hrir, out, 4)
    assert any("manifest azimuths" in p for p in wrong_seed())

    stem = out / "test" / "song00" / "bass.wav"
    _, data = wavfile.read(str(stem))
    write_float32(stem, data.T.astype(np.float64) * 1.001)
    problems = check()
    assert any("bass: excerpt differs" in p for p in problems)
    assert any("mixture differs" in p for p in problems)


def test_tracer_counts_layers_and_restores_functions(tmp_path):
    reference, est0, est2 = _eval_inputs(tmp_path, 5)
    original = auricle.metrics.frame_signal
    tracer = Tracer()
    tracer.install()
    try:
        assert auricle.metrics.frame_signal is not original
        for i, est in enumerate((est0, est2)):
            tracer.op = [0, i, 0]
            assert _cli(["evaluate", "--reference", reference, "--estimates", est, "--out", tmp_path / f"{i}.csv"]) == 0
    finally:
        tracer.uninstall()
    assert auricle.metrics.frame_signal is original

    m = layer_metrics(tracer.spans)
    assert m["evaluate.evaluate_track.calls"] == 2
    assert m["metrics.signal_itd_lag.calls"] == 16
    assert m["metrics.signal_itd_lag.repeat_ratio"] == 0.25  # each reference stem seen twice
    assert m["metrics.ssr_srr.calls"] == 8
    assert m["dsp.frame_signal.calls"] == 16
    assert m["metrics.gcc_phat_tdoa.calls"] + m["metrics.signal_itd_lag.frames_gated"] == m["dsp.frame_signal.frames"]
    assert m["audio.read_wav.calls"] == 16 and m["audio.write_wav.calls"] == 0
    assert m["dsp.fft_convolve.calls"] == 0
    assert 0 < m["cli.run_cli.self_s"] < sum(s["end"] - s["start"] for s in tracer.spans if s["name"] == "cli.run_cli")
    for span in tracer.spans:
        assert span["start"] <= span["end"] and span["op"][1] in (0, 1)


def test_metric_names_and_counts_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    e2e, per_layer = spec["end_to_end"], spec["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(per_layer) <= 128
    for metric in e2e + per_layer:
        assert name.fullmatch(metric["name"]), metric["name"]
    assert [(m["name"], m["unit"], m["better"]) for m in e2e] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in per_layer] == list(PER_LAYER)
    assert all(0 < m["bound"] <= 0.25 for m in e2e)


@pytest.mark.parametrize("trace", [0, 1])
def test_worker_reports_every_metric(tmp_path, trace, monkeypatch):
    """A short synth run produces every metric of its mode and no failures."""
    import run

    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "write_song_tree", lambda root, seed: write_song_tree(root, seed, songs=1, seconds=1.0))
    record = run.run_workload("synth", 2, 0.1, bool(trace))
    assert record["failed"] == 0 and record["attempted"] >= 2
    expected = PER_LAYER if trace else END_TO_END
    assert set(record["metrics"]) == {m for m, _, _ in expected}
    if trace:
        assert record["metrics"]["dsp.fft_convolve.calls"] == 8
        assert (tmp_path / "synth-seed2-trace1-spans.json").exists()
