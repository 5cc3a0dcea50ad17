"""Output checks run after every benchmark operation.

A check returns a list of problems; an empty list means the output is
correct. Checks are prepared before timing starts and run outside the timed
part of each operation.
"""

import csv
import io
import json
import math
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from inputs import PEAK_TARGET, STEMS, mono_downmix, read_hrir_set

# Samples compared against the direct-convolution oracle, per stem.
EXCERPT = 4096
# float32 WAV output: each sample is rounded once (<= 6e-8 for |x| <= 1), and
# a mixture compared with the sum of four stems collects five roundings.
FLOAT32_TOL = 1e-6
# SSR, SRR and delta-ILD against the pinned rows, in dB. delta-ITD is a whole
# number of samples and must match exactly.
TOL_DB = 1e-6
EXACT_COLUMNS = ("track_id", "stem", "azimuth_deg", "delta_itd_us")


class SynthCheck:
    """Checks the tree that ``auricle synthesize --seed <seed>`` writes to ``out``.

    For every song it checks that the manifest azimuths equal
    ``sample_layout(song_seed(seed, song))``; that a fixed excerpt of each
    stem equals a direct time-domain convolution of the source downmix,
    scaled by the manifest gain; that mixture == sum(stems); and that the
    mixture peaks at 0.99 whenever the gain is below one.
    """

    def __init__(self, musdb, hrir, out, seed: int):
        from auricle import sample_layout, song_seed

        self.out = Path(out)
        irs = read_hrir_set(Path(hrir))
        ir_len = irs[0][0].size
        self.songs = {}
        for song in sorted(p for p in (Path(musdb) / "test").iterdir() if p.is_dir()):
            layout = sample_layout(song_seed(seed, song.name)).assignments
            stems = {}
            for stem in STEMS:
                mono = mono_downmix(song / f"{stem}.wav")
                start = max(mono.size // 3, ir_len - 1)
                stop = min(start + EXCERPT, mono.size)
                window = mono[start - ir_len + 1 : stop]
                left, right = irs[layout[stem]]
                excerpt = np.stack([np.convolve(window, left, "valid"), np.convolve(window, right, "valid")])
                stems[stem] = (mono.size + ir_len - 1, start, excerpt)
            self.songs[song.name] = (layout, stems)

    def __call__(self) -> list[str]:
        problems = []
        for name, (layout, stems) in self.songs.items():
            song = self.out / "test" / name
            try:
                manifest = json.loads((song / "layout.json").read_text())
                angles = {stem: int(meta["azimuth_deg"]) for stem, meta in manifest["stems"].items()}
                gain = float(manifest["normalization_gain"])
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems.append(f"{name}: unreadable manifest: {exc!r}")
                continue
            if angles != layout:
                problems.append(f"{name}: manifest azimuths {angles} != sample_layout {layout}")
            total = None
            for stem, (length, start, excerpt) in stems.items():
                data = _read_float32(song / f"{stem}.wav", length, problems)
                if data is None:
                    continue
                got = data[:, start : start + excerpt.shape[1]]
                err = float(np.max(np.abs(got - gain * excerpt)))
                if not err <= FLOAT32_TOL:
                    problems.append(f"{name}/{stem}: excerpt differs from direct convolution by {err:.3g}")
                total = data if total is None else total + data
            mixture = _read_float32(song / "mixture.wav", next(iter(stems.values()))[0], problems)
            if mixture is None or total is None:
                continue
            err = float(np.max(np.abs(mixture - total)))
            if not err <= FLOAT32_TOL:
                problems.append(f"{name}: mixture differs from sum of stems by {err:.3g}")
            peak = float(np.max(np.abs(mixture)))
            if peak > PEAK_TARGET + FLOAT32_TOL or (gain < 1.0 and peak < PEAK_TARGET - FLOAT32_TOL):
                problems.append(f"{name}: mixture peak {peak} with gain {gain}")
        return problems


def _read_float32(path: Path, length: int, problems: list):
    try:
        rate, data = wavfile.read(str(path))
    except (OSError, ValueError) as exc:
        problems.append(f"{path}: unreadable: {exc!r}")
        return None
    if data.dtype != np.float32 or data.shape != (length, 2):
        problems.append(f"{path}: {data.dtype} {data.shape}, expected float32 ({length}, 2)")
        return None
    return data.T.astype(np.float64)


def compare_tables(actual: str, pinned: str, exact_columns=EXACT_COLUMNS, tol: float = TOL_DB) -> list[str]:
    """Cell-by-cell comparison of two CSV texts.

    Cells in ``exact_columns`` (named in the pinned header row) and cells
    that are not finite numbers must be equal as text; other numeric cells
    may differ by ``tol``.
    """
    got = list(csv.reader(io.StringIO(actual)))
    want = list(csv.reader(io.StringIO(pinned)))
    if len(got) != len(want):
        return [f"{len(got)} rows, pinned {len(want)}"]
    exact = {i for i, name in enumerate(want[0]) if name in exact_columns}
    problems = []
    for r, (got_row, want_row) in enumerate(zip(got, want)):
        if len(got_row) != len(want_row):
            problems.append(f"row {r}: {got_row} != pinned {want_row}")
            continue
        for c, (g, w) in enumerate(zip(got_row, want_row)):
            if g == w:
                continue
            wv, gv = _finite(w), _finite(g)
            if c in exact or wv is None or gv is None or abs(gv - wv) > tol:
                problems.append(f"row {r} col {c}: {g!r} != pinned {w!r}")
    return problems


def _finite(text: str):
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


class TableCheck:
    """Compares the CSV file at ``path`` with its pinned text."""

    def __init__(self, path, pinned: str):
        self.path = Path(path)
        self.pinned = pinned

    def __call__(self) -> list[str]:
        try:
            actual = self.path.read_text()
        except OSError as exc:
            return [f"{self.path}: unreadable: {exc!r}"]
        return [f"{self.path.name}: {p}" for p in compare_tables(actual, self.pinned)]
