"""End-to-end and per-layer benchmark of auricle's two jobs: synthesis and evaluation.

Usage, from the repository root:

    python3 bench/run.py --workload synth --seed 1 --seconds 12 --trace 0

``--workload all`` runs every workload in turn. Each run makes its inputs
from ``--seed`` under ``.bench_out/``, runs the workload's ``auricle`` CLI
commands in a fresh interpreter (worker.py), checks every output, writes a
results file with provenance to ``.bench_out/`` and prints one JSON line last.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the traced
pass and reports the per-layer metrics, writing the spans next to the
results. The exit code is 1 when any operation failed.

Workloads (closed loop, one client, one CLI command at a time; songs are
30 s, four pcm16 stems, two songs per tree):

* ``synth``: ``auricle synthesize`` with the 128-tap sphere HRIR set. Time
  goes to convolution and float32 WAV writes; no metrics code runs.
* ``synth_long_ir``: the same with a 1024-tap set. FFT convolution cost is
  not monotone in IR length, so a convolution backend needs both sides.
* ``eval_one``: ``auricle evaluate --jobs 1`` then ``auricle report`` for one
  scripted separator. Each reference is analysed once.
* ``eval_systems``: three scripted separators scored in turn against the same
  reference, so each reference is analysed three times.

Evaluation inputs cycle through ``PINNED_SETS`` input sets (``seed %
PINNED_SETS``) because their CSV and report are compared with text pinned
in ``pinned_eval.json``.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(SRC))

from inputs import SONG_SECONDS, SONGS, write_hrir_set, write_reference, write_separator, write_song_tree  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

PINNED = BENCH / "pinned_eval.json"
PINNED_SETS = 16
END_TO_END = (
    ("realtime_factor", "s/s", "higher"),
    ("cpu_s_per_audio_s", "s/s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)
SETUP_PROBES = 3
WORKER_TIMEOUT_S = 150
PROBE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import auricle
if len(sys.argv) > 2:
    auricle.load_hrir_database(sys.argv[2])
print(time.perf_counter() - start)
"""


def _op(argv, check):
    return {"argv": [str(a) for a in argv], "check": check}


def synth_workload(work: Path, seed: int, ir_length: int) -> dict:
    musdb = write_song_tree(work / "musdb", seed)
    hrir = write_hrir_set(work / f"hrir{ir_length}", ir_length)
    out = work / "binaural"
    check = {"kind": "synth", "musdb": str(musdb), "hrir": str(hrir), "out": str(out), "seed": seed}
    argv = ["synthesize", "--musdb", musdb, "--hrir", hrir, "--out", out, "--seed", seed]
    return {"steps": [{"audio_s": SONGS * SONG_SECONDS, "ops": [_op(argv, check)]}], "hrir": str(hrir)}


def eval_inputs(work: Path, input_set: int, levels) -> tuple[Path, dict]:
    """Reference tree and one estimate tree per separator level; returns (reference, {level: tree})."""
    musdb = write_song_tree(work / "musdb", input_set)
    hrir = write_hrir_set(work / "hrir128", 128)
    reference = write_reference(musdb, hrir, work / "reference", input_set)
    return reference, {k: write_separator(reference, work / f"system{k}", input_set, k) for k in levels}


def _evaluate(reference, estimates, out, jobs, pinned):
    argv = ["evaluate", "--reference", reference, "--estimates", estimates, "--out", out, "--jobs", jobs]
    return _op(argv, {"kind": "table", "path": str(out), "pinned": pinned})


def eval_one_workload(work: Path, seed: int) -> dict:
    pins = _pins(seed)
    reference, systems = eval_inputs(work, seed % PINNED_SETS, [1])
    rows, report = work / "system1.csv", work / "report.csv"
    ops = [
        _evaluate(reference, systems[1], rows, 1, pins["system1.csv"]),
        _op(["report", "--in", rows, "--out", report], {"kind": "table", "path": str(report), "pinned": pins["report.csv"]}),
    ]
    pool = _evaluate(reference, systems[1], work / "pool.csv", 1, pins["system1.csv"])
    return {"steps": [{"audio_s": SONGS * SONG_SECONDS, "ops": ops}], "pool": dict(pool, jobs=1, step=0)}


def eval_systems_workload(work: Path, seed: int) -> dict:
    pins = _pins(seed)
    reference, systems = eval_inputs(work, seed % PINNED_SETS, [0, 1, 2])
    steps = [
        {"audio_s": SONGS * SONG_SECONDS, "ops": [_evaluate(reference, est, work / f"system{k}.csv", 1, pins[f"system{k}.csv"])]}
        for k, est in systems.items()
    ]
    pool = _evaluate(reference, systems[0], work / "pool.csv", 2, pins["system0.csv"])
    return {"steps": steps, "pool": dict(pool, jobs=2, step=0)}


def _pins(seed: int) -> dict:
    return json.loads(PINNED.read_text())["sets"][seed % PINNED_SETS]


WORKLOADS = {
    "synth": lambda work, seed: synth_workload(work, seed, 128),
    "synth_long_ir": lambda work, seed: synth_workload(work, seed, 1024),
    "eval_one": eval_one_workload,
    "eval_systems": eval_systems_workload,
}


def setup_seconds(hrir) -> float:
    """Median over fresh interpreters of ``import auricle`` (+ ``load_hrir_database``)."""
    argv = [sys.executable, "-c", PROBE, str(SRC)] + ([hrir] if hrir else [])
    times = [
        float(subprocess.run(argv, capture_output=True, text=True, check=True, timeout=60).stdout)
        for _ in range(SETUP_PROBES)
    ]
    return statistics.median(times)


def _flush(tree: Path) -> None:
    """Write the generated inputs to disk now, so that writeback does not run during timing."""
    for path in tree.rglob("*"):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def run_worker(spec: dict, spec_path: Path) -> dict:
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), str(spec_path)],
        stdout=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0:
        raise RuntimeError(f"worker exited with {code}")
    return json.loads(Path(spec["result"]).read_text())


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    try:
        top, commit = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=10,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError, ValueError):
        top = commit = None
    if top is None or Path(top).resolve() != ROOT:
        commit = None  # not a git checkout of this repository
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": commit,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "src_loc": sum(len(p.read_text().splitlines()) for p in sorted((SRC / "auricle").glob("*.py"))),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Make inputs, run the worker, and return the results record."""
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    work = OUT / f"work-{stem}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        spec = WORKLOADS[name](work, seed)
        _flush(work)
        spec.update(src=str(SRC), seconds=seconds, trace=trace, result=str(work / "result.json"))
        result = run_worker(spec, work / "spec.json")
        if trace:
            metrics = result.pop("metrics")
            spans = {"metrics": metrics, "spans": result.pop("spans")}
            (OUT / f"{stem}-spans.json").write_text(json.dumps(spans))
        else:
            metrics = dict(result.pop("metrics"), setup_s=setup_seconds(spec.get("hrir")))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {
        "workload": name,
        "seconds": seconds,
        "trace": trace,
        "provenance": provenance(seed),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "error_rate": result["failed"] / result["attempted"],
        "problems": result["problems"],
        "metrics": metrics,
        "details": result,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    # Turn SIGTERM into SystemExit so that cleanup stops the worker and removes the inputs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    units = {name: unit for name, unit, _ in (PER_LAYER if args.trace else END_TO_END)}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        start = time.perf_counter()
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        attempted += record["attempted"]
        failed += record["failed"]
        print(
            f"{name}: {record['attempted']} operations, {record['failed']} failed, "
            f"error_rate {record['error_rate']:.3f}, run took {time.perf_counter() - start:.1f} s"
        )
        for problem in record["problems"]:
            print(f"  FAILED {problem}")
        for metric, unit in units.items():
            value = record["metrics"][metric]
            print(f"  {metric:40s} {value:12.6g} {unit}")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": unit}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
