"""Span recorder for the traced benchmark pass, and the per-layer metrics.

``Tracer.install`` wraps every public function of the auricle layer modules
and rebinds the wrapper under each name that any auricle module holds for
it (``auricle.scene.fft_convolve``, ``auricle.evaluate.delta_itd``, ...), so
calls between modules are recorded too. Each span records name, start, end,
CPU time, parent span and operation id; spans stay in memory until the
benchmark writes them out.
"""

import functools
import hashlib
import inspect
import os
import sys
import time

import numpy as np

LAYERS = ("audio", "dsp", "hrir", "scene", "metrics", "evaluate", "report", "cli")

# (name, unit, better). Per-iteration values of the traced pass.
PER_LAYER = (
    ("audio.read_wav.calls", "count", "lower"),
    ("audio.read_wav.busy_s", "s", "lower"),
    ("audio.read_wav.mb", "MB", "lower"),
    ("audio.write_wav.calls", "count", "lower"),
    ("audio.write_wav.busy_s", "s", "lower"),
    ("audio.write_wav.mb", "MB", "lower"),
    ("dsp.fft_convolve.calls", "count", "lower"),
    ("dsp.fft_convolve.busy_s", "s", "lower"),
    ("dsp.frame_signal.calls", "count", "lower"),
    ("dsp.frame_signal.frames", "count", "lower"),
    ("dsp.frame_signal.busy_s", "s", "lower"),
    ("hrir.load_hrir_database.busy_s", "s", "lower"),
    ("scene.downmix_mono.busy_s", "s", "lower"),
    ("scene.binauralize.self_s", "s", "lower"),
    ("scene.mix_and_normalize.busy_s", "s", "lower"),
    ("scene.synthesize_track.self_s", "s", "lower"),
    ("metrics.gcc_phat_tdoa.calls", "count", "lower"),
    ("metrics.gcc_phat_tdoa.busy_s", "s", "lower"),
    ("metrics.signal_itd_lag.calls", "count", "lower"),
    ("metrics.signal_itd_lag.self_s", "s", "lower"),
    ("metrics.signal_itd_lag.frames_gated", "count", "lower"),
    ("metrics.signal_itd_lag.repeat_ratio", "ratio", "lower"),
    ("metrics.ssr_srr.calls", "count", "lower"),
    ("metrics.ssr_srr.busy_s", "s", "lower"),
    ("metrics.ssr_srr.cpu_over_wall", "ratio", "lower"),
    ("metrics.delta_itd.self_s", "s", "lower"),
    ("metrics.delta_ild.busy_s", "s", "lower"),
    ("evaluate.evaluate_track.calls", "count", "lower"),
    ("evaluate.evaluate_track.self_s", "s", "lower"),
    ("evaluate.write_rows_csv.busy_s", "s", "lower"),
    ("evaluate.pool_efficiency", "ratio", "higher"),
    ("report.aggregate_medians.busy_s", "s", "lower"),
    ("report.write_report.busy_s", "s", "lower"),
    ("cli.run_cli.self_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


def _input_hash(args):
    samples = np.ascontiguousarray(args[0].samples)
    return {"input_sha256": hashlib.sha256(samples).hexdigest()}


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


# Counts taken at a layer boundary, outside the span's timed interval.
_BEFORE = {"metrics.signal_itd_lag": _input_hash}
_AFTER = {
    "audio.read_wav": _file_bytes,
    "audio.write_wav": _file_bytes,
    "dsp.frame_signal": lambda args, result: {"frames": len(result)},
}


class Tracer:
    """Records spans while installed; ``op`` tags new spans with an operation id.

    ``only`` limits wrapping to the named functions (``"evaluate.evaluate_tree"``).
    """

    def __init__(self, only=None):
        self.spans = []
        self.op = None
        self._only = only
        self._stack = []
        self._patches = []

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "auricle" or n.startswith("auricle.")]
        for layer in LAYERS:
            module = sys.modules[f"auricle.{layer}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                name = f"{layer}.{attr}"
                if not inspect.isfunction(fn) or (self._only is not None and name not in self._only):
                    continue
                wrapper = self._wrap(name, fn)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._patches.append((holder, key, fn))
                            setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, fn in reversed(self._patches):
            setattr(holder, key, fn)
        self._patches.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        before, after = _BEFORE.get(name), _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            probe = time.perf_counter()
            span = {"id": len(spans), "name": name, "parent": stack[-1] if stack else None, "op": self.op}
            if before:
                span.update(before(args))
            spans.append(span)
            stack.append(span["id"])
            cpu0 = time.process_time()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                span.update(start=start, end=end, cpu=time.process_time() - cpu0)
                stack.pop()
            if after:
                span.update(after(args, result))
            span["probe_s"] = (start - probe) + (time.perf_counter() - end)
            return result

        return wrapper


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced iteration (all its spans).

    Busy time is the summed duration of a function's spans; self time
    subtracts the duration of direct children and the time the tracer spent
    around them (``probe_s``: hashing inputs, sizing files). Calls within one
    thread nest strictly, so the children of a span never overlap.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def of(name):
        return [s for s in spans if s["name"] == name]

    def busy(name):
        return sum(s["end"] - s["start"] for s in of(name))

    def self_time(name):
        return sum(
            (s["end"] - s["start"])
            - sum(c["end"] - c["start"] + c.get("probe_s", 0.0) for c in children.get(s["id"], ()))
            for s in of(name)
        )

    out = {}
    for layer, fn in (("audio", "read_wav"), ("audio", "write_wav")):
        name = f"{layer}.{fn}"
        out[f"{name}.calls"] = len(of(name))
        out[f"{name}.busy_s"] = busy(name)
        out[f"{name}.mb"] = sum(s.get("bytes", 0) for s in of(name)) / 1e6
    for name in ("dsp.fft_convolve", "dsp.frame_signal", "metrics.gcc_phat_tdoa", "metrics.ssr_srr"):
        out[f"{name}.calls"] = len(of(name))
        out[f"{name}.busy_s"] = busy(name)
    out["dsp.frame_signal.frames"] = sum(s.get("frames", 0) for s in of("dsp.frame_signal"))
    for name in (
        "hrir.load_hrir_database",
        "scene.downmix_mono",
        "scene.mix_and_normalize",
        "metrics.delta_ild",
        "evaluate.write_rows_csv",
        "report.aggregate_medians",
        "report.write_report",
    ):
        out[f"{name}.busy_s"] = busy(name)
    for name in (
        "scene.binauralize",
        "scene.synthesize_track",
        "metrics.signal_itd_lag",
        "metrics.delta_itd",
        "evaluate.evaluate_track",
        "cli.run_cli",
    ):
        out[f"{name}.self_s"] = self_time(name)

    itd = of("metrics.signal_itd_lag")
    out["metrics.signal_itd_lag.calls"] = len(itd)
    gated = 0
    for s in itd:
        kids = children.get(s["id"], ())
        gated += sum(c.get("frames", 0) for c in kids if c["name"] == "dsp.frame_signal")
        gated -= sum(1 for c in kids if c["name"] == "metrics.gcc_phat_tdoa")
    out["metrics.signal_itd_lag.frames_gated"] = gated
    seen, repeats = set(), 0
    for s in itd:
        repeats += s["input_sha256"] in seen
        seen.add(s["input_sha256"])
    out["metrics.signal_itd_lag.repeat_ratio"] = repeats / len(itd) if itd else 0.0

    ssr = of("metrics.ssr_srr")
    wall = busy("metrics.ssr_srr")
    out["metrics.ssr_srr.cpu_over_wall"] = sum(s["cpu"] for s in ssr) / wall if wall else 0.0
    out["evaluate.evaluate_track.calls"] = len(of("evaluate.evaluate_track"))
    return out
