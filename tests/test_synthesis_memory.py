"""Synthesis holds signal-sized buffers only while they are in use.

Convolution holds its output and a fixed number of FFT blocks, a binaural
render holds its two-row output and the blocks of one ear, a song holds at
most five stereo signals while its stems render two at a time, and the
command-line program hands freed signal-sized buffers back to the system,
so its peak memory is what is alive, not what the heap happened to keep.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import auricle
from auricle import AudioBuffer, binauralize, fft_convolve, sample_layout, spherical_head_database, synthesize_track

from helpers import make_song_dir


def test_convolution_holds_its_output_and_fixed_blocks():
    # One minute of mono: the FFT blocks in flight come to a few MB whatever
    # the length, where whole-signal block arrays would be several signals.
    rng = np.random.default_rng(3)
    x = rng.normal(size=60 * 44100)
    kernel = rng.normal(size=1024)
    tracemalloc.start()
    try:
        out = fft_convolve(x, kernel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    extra = peak - out.nbytes
    assert extra < 0.5 * x.nbytes, f"{extra / 1e6:.2f} MB besides a {out.nbytes / 1e6:.1f} MB output"


def test_binaural_render_holds_its_output_and_fixed_blocks():
    # The ears are written in place, not stacked from copies.
    rng = np.random.default_rng(4)
    x = rng.normal(size=60 * 44100)
    pair = AudioBuffer(rng.normal(size=(2, 1024)), 44100)
    mono = AudioBuffer(x, 44100)
    tracemalloc.start()
    try:
        out = binauralize(mono, pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    extra = peak - out.samples.nbytes
    assert extra < 0.5 * x.nbytes, f"{extra / 1e6:.2f} MB besides a {out.samples.nbytes / 1e6:.1f} MB output"


def test_song_synthesis_holds_five_stereo_signals_and_fixed_blocks(tmp_path):
    # The peak comes as the last two stems render (two rendered stems, two outputs and their sources) and as the
    # stems are mixed (four stems and the mixture): five stereo signals either way, plus the FFT blocks of the two
    # convolutions in flight, about 5.5 MB. Reading four stems at once would hold about 12 MB more.
    seconds = 10
    song = make_song_dir(tmp_path / "in", "song", np.random.default_rng(5), seconds=seconds)
    db = spherical_head_database()
    signal = 2 * (seconds * 44100 + db[0].num_samples - 1) * 8
    tracemalloc.start()
    try:
        synthesize_track(song, db, sample_layout(3), tmp_path / "out")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    extra = peak - 5 * signal
    assert extra < 8e6, f"{extra / 1e6:.2f} MB besides five {signal / 1e6:.1f} MB stereo signals"


RELEASE_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import auricle.cli

def rss():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * 4096

big = np.ones(2 << 20)  # 16 MiB: glibc's own rule would move its threshold here
del big
block = np.ones(1 << 20)  # 8 MiB, on the heap under that rule
held = rss()
del block
print(held - rss())
"""


def _glibc_linux() -> bool:
    try:
        return sys.platform.startswith("linux") and (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError):
        return False


@pytest.mark.skipif(not _glibc_linux(), reason="the allocator setting is made for glibc on Linux")
def test_cli_returns_freed_signal_buffers_to_the_system():
    src = str(Path(auricle.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", RELEASE_CHILD, src], capture_output=True, text=True, check=True)
    assert int(out.stdout) >= 7 << 20, f"{int(out.stdout)} bytes returned after freeing 8 MiB"
