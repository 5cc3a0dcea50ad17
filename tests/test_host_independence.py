"""SSR/SRR, ΔITD and ΔILD keep their bits whatever BLAS and SIMD settings the host has.

Each setting is applied only in a child process's environment. The CSV
writes ``repr`` of every value, so equal ``float.hex`` means equal CSV bytes.
A BLAS call in the metric code (``np.dot``, ``np.correlate``, ``@``) makes
the threaded and the emulated-old-CPU runs differ.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import auricle

SRC = str(Path(auricle.__file__).resolve().parents[1])
SIMD_OFF = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"  # single names such as AVX2 are silently ignored

CHILD = """
import numpy as np
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__
from auricle import AudioBuffer, delta_ild, delta_itd, ssr_srr

rng = np.random.default_rng(5)
ref = rng.normal(size=(2, 3 * 44100)) * 0.1
est = 0.7 * np.roll(ref, 3, axis=1) + 0.05 * rng.normal(size=ref.shape)
ref, est = AudioBuffer(ref, 44100), AudioBuffer(est, 44100)
values = [*ssr_srr(ref, est), delta_itd(ref, est), delta_ild(ref, est)]
print(__cpu_features__.get("X86_V3", False))
print(" ".join(v.as_float().hex() for v in values))
"""

SETTINGS = {
    "default": {},
    "one BLAS thread": {"OPENBLAS_NUM_THREADS": "1"},
    "old-CPU BLAS kernels": {"OPENBLAS_CORETYPE": "Prescott"},
    "numpy SIMD off": {"NPY_DISABLE_CPU_FEATURES": SIMD_OFF},
}


def _run(extra):
    env = {k: v for k, v in os.environ.items() if not k.startswith(("OPENBLAS_", "NPY_", "OMP_"))}
    env.update(extra)
    env["PYTHONPATH"] = os.pathsep.join([SRC, env.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    x86_v3, values = done.stdout.splitlines()
    return x86_v3 == "True", values


@pytest.fixture(scope="module")
def results():
    return {name: _run(extra) for name, extra in SETTINGS.items()}


def test_simd_off_setting_takes_effect(results):
    """numpy lists the X86_V3 (AVX2) dispatch target as off, not merely unknown."""
    assert not results["numpy SIMD off"][0]


@pytest.mark.parametrize("name", [name for name in SETTINGS if name != "default"])
def test_metric_bits_do_not_depend_on_host_settings(results, name):
    assert results[name][1] == results["default"][1]
