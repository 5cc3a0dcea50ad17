"""Measuring process: runs one workload's operations through ``auricle.cli.run_cli``.

run.py starts it as a fresh interpreter after the inputs exist, so its CPU
time and peak RSS cover only the program's import, the operations and the
output checks. Usage: ``python3 worker.py SPEC.json``; it writes the result
JSON named in the spec.

A step is one or more operations (CLI commands) that process ``audio_s``
seconds of audio; the loop cycles through the workload's steps. The timed
pass runs one untimed warm-up step, then steps until ``seconds`` have passed,
and reports medians over steps. The traced pass alternates an untraced and a
traced cycle over all steps until ``seconds`` have passed, then times one
evaluate command with the workload's pool size.
"""

import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from checks import SynthCheck, TableCheck
from tracing import PER_LAYER, Tracer, layer_metrics


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _make_check(spec):
    if spec["kind"] == "synth":
        return SynthCheck(spec["musdb"], spec["hrir"], spec["out"], spec["seed"])
    return TableCheck(spec["path"], spec["pinned"])


class Runner:
    def __init__(self, cli, steps):
        self.cli = cli
        self.steps = [
            (step["audio_s"], [(op["argv"], _make_check(op["check"])) for op in step["ops"]]) for step in steps
        ]
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run_op(self, argv, check) -> tuple[float, float]:
        """Run one command, then check its output; returns (wall_s, cpu_s)."""
        self.attempted += 1
        cpu0 = _cpu_s()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.run_cli(argv)
            problems = [] if code == 0 else [f"exit code {code}"]
        except Exception as exc:  # an operation that raises is a failed operation
            problems = [f"raised {exc!r}"]
        wall = time.perf_counter() - start
        cpu = _cpu_s() - cpu0
        if not problems:
            problems = check()
        if problems:
            self.failed += 1
            self.problems.extend(f"{argv[0]}: {p}" for p in problems[:10])
        return wall, cpu

    def run_step(self, index: int, tracer=None, iteration=None) -> dict:
        audio_s, ops = self.steps[index]
        wall = cpu = 0.0
        for op_index, (argv, check) in enumerate(ops):
            if tracer is not None:
                tracer.op = [iteration, index, op_index]
            w, c = self.run_op(argv, check)
            wall += w
            cpu += c
        return {"audio_s": audio_s, "wall_s": wall, "cpu_s": cpu}

    def run_cycle(self, tracer=None, iteration=None) -> float:
        return sum(self.run_step(i, tracer, iteration)["wall_s"] for i in range(len(self.steps)))


def timed_pass(runner: Runner, seconds: float) -> dict:
    runner.run_step(0)
    samples = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        samples.append(runner.run_step(len(samples) % len(runner.steps)))
    return {
        "samples": samples,
        "metrics": {
            "realtime_factor": statistics.median(s["audio_s"] / s["wall_s"] for s in samples),
            "cpu_s_per_audio_s": statistics.median(s["cpu_s"] / s["audio_s"] for s in samples),
            "peak_rss_mb": _peak_rss_mb(),
        },
    }


def traced_pass(runner: Runner, seconds: float, pool) -> dict:
    tracer = Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(runner.run_cycle())
        tracer.install()
        try:
            traced.append(runner.run_cycle(tracer, len(traced)))
        finally:
            tracer.uninstall()
    per_iteration = [layer_metrics([s for s in tracer.spans if s["op"][0] == i]) for i in range(len(traced))]
    metrics = {k: statistics.median(m[k] for m in per_iteration) for k in per_iteration[0]}
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics["evaluate.pool_efficiency"] = 0.0
    if pool is not None:
        # Busy time of the scored tracks in the first traced iteration, over
        # the wall time of evaluate_tree scoring the same system untraced
        # with the workload's pool, times the pool size.
        tree = Tracer(only={"evaluate.evaluate_tree"})
        tree.install()
        try:
            runner.run_op(pool["argv"], _make_check(pool["check"]))
        finally:
            tree.uninstall()
        tree_wall = sum(s["end"] - s["start"] for s in tree.spans)
        busy = sum(
            s["end"] - s["start"]
            for s in tracer.spans
            if s["name"] == "evaluate.evaluate_track" and s["op"][:2] == [0, pool["step"]]
        )
        metrics["evaluate.pool_efficiency"] = busy / (pool["jobs"] * tree_wall)
    missing = {name for name, _, _ in PER_LAYER} - set(metrics)
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {sorted(missing)}")
    return {"traced_wall_s": traced, "untraced_wall_s": untraced, "metrics": metrics, "spans": tracer.spans}


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import auricle.cli

    if not Path(auricle.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"auricle was imported from {auricle.cli.__file__}, not {src}")

    runner = Runner(auricle.cli, spec["steps"])
    if spec["trace"]:
        result = traced_pass(runner, spec["seconds"], spec.get("pool"))
    else:
        result = timed_pass(runner, spec["seconds"])
    result.update(attempted=runner.attempted, failed=runner.failed, problems=runner.problems)
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
