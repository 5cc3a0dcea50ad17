"""Binaural scene construction: source layouts, rendering, mixtures, manifests.

A scene assigns each of the four stems (vocals, bass, drums, other) a static
azimuth on the 10-degree grid, renders each mono-downmixed stem through the
matching HRIR pair, and sums the results into a peak-normalized mixture. The
same gain is applied to the stems so mixture == sum(stems) holds on disk.
"""

import hashlib
import json
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from itertools import repeat
from pathlib import Path

import numpy as np

from .audio import AudioBuffer, read_wav, write_wav
from .dsp import fft_convolve
from .hrir import GRID_DEGREES, HrirDatabase

__all__ = [
    "STEM_NAMES",
    "SceneLayout",
    "Manifest",
    "sample_layout",
    "song_seed",
    "downmix_mono",
    "binauralize",
    "mix_and_normalize",
    "synthesize_track",
    "synthesize_dataset",
    "read_manifest",
    "discover_tracks",
]

STEM_NAMES = ("vocals", "bass", "drums", "other")
PEAK_TARGET = 0.99
MANIFEST_NAME = "layout.json"


@dataclass
class SceneLayout:
    """Stem-name -> azimuth assignment plus the seed that produced it."""

    assignments: dict
    seed: int

    def __post_init__(self):
        if tuple(self.assignments) != STEM_NAMES:
            raise ValueError(f"layout must assign exactly {STEM_NAMES} in order")
        angles = list(self.assignments.values())
        if len(set(angles)) != len(angles):
            raise ValueError(f"stem azimuths must be distinct, got {angles}")
        for a in angles:
            if a not in GRID_DEGREES:
                raise ValueError(f"azimuth {a} is off the 10-degree grid")


@dataclass
class Manifest:
    """Synthesis provenance for one song, stored next to its audio."""

    song_id: str
    seed: int
    hrtf_subject: str
    sample_rate: int
    normalization_gain: float
    stems: dict

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2)
            fh.write("\n")


def _azimuth(value, where) -> int:
    """An azimuth read from a file, a JSON number or CSV text, as an int; it must be an integer in [-90, 90]."""
    try:
        angle = int(value) if isinstance(value, str) else value
    except ValueError:
        angle = None
    if type(angle) is not int or not -90 <= angle <= 90:
        raise ValueError(f"{where}: azimuth_deg must be an integer in [-90, 90], got {value!r}")
    return angle


def read_manifest(path) -> Manifest:
    """Load a ``layout.json`` placing every stem at an integer azimuth in [-90, 90]; unknown keys are ignored."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: manifest is not valid JSON: {exc}") from exc
    names = [f.name for f in fields(Manifest)]
    missing = [name for name in names if not isinstance(data, dict) or name not in data]
    if missing:
        raise ValueError(f"{path}: manifest lacks fields {missing}")
    stems = data["stems"] if isinstance(data["stems"], dict) else {}
    unplaced = [s for s in STEM_NAMES if not isinstance(stems.get(s), dict) or "azimuth_deg" not in stems[s]]
    if unplaced:
        raise ValueError(f"{path}: manifest stems lack an azimuth_deg for {unplaced}")
    for stem in STEM_NAMES:
        stems[stem]["azimuth_deg"] = _azimuth(stems[stem]["azimuth_deg"], f"{path}: {stem}")
    return Manifest(**{name: data[name] for name in names})


def discover_tracks(root) -> list[Path]:
    """Sorted relative paths of every directory under ``root`` holding stem WAVs.

    Directories without stems are passed over; one holding only some stems is
    rejected, naming the missing ones, before any track is read or written.
    """
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"stem tree root not found: {root}")
    tracks = sorted({hit.parent.relative_to(root) for stem in STEM_NAMES for hit in root.rglob(f"{stem}.wav")})
    if not tracks:
        raise FileNotFoundError(f"no stem WAVs found under {root}")
    for track in tracks:
        missing = [stem for stem in STEM_NAMES if not (root / track / f"{stem}.wav").exists()]
        if missing:
            raise FileNotFoundError(f"track {root / track} lacks stems {missing}")
    return tracks


def sample_layout(seed: int) -> SceneLayout:
    """Draw four distinct grid azimuths, in stem order vocals, bass, drums, other.

    Sampling is uniform without replacement over the 19 grid angles, so any
    two stems are at least 10 degrees apart. Only ``Random.random()`` is
    consumed, the one stdlib stream with a cross-version stability guarantee,
    making layouts reproducible from the seed alone.
    """
    rng = random.Random(seed)
    remaining = list(GRID_DEGREES)
    assignments = {}
    for stem in STEM_NAMES:
        idx = int(rng.random() * len(remaining))
        assignments[stem] = remaining.pop(idx)
    return SceneLayout(assignments, seed)


def song_seed(master_seed: int, song_id: str) -> int:
    """Per-song seed derived from the dataset master seed and the song name."""
    digest = hashlib.sha256(f"{master_seed}/{song_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big") & (2**63 - 1)


def downmix_mono(stereo: AudioBuffer) -> AudioBuffer:
    """Average the two channels into one."""
    if stereo.num_channels != 2:
        raise ValueError(f"downmix expects 2 channels, got {stereo.num_channels}")
    mono = stereo.left + stereo.right
    mono /= 2.0
    return AudioBuffer(mono, stereo.sample_rate)


def binauralize(mono: AudioBuffer, hrir: AudioBuffer) -> AudioBuffer:
    """Render a mono signal through a stereo (left, right) HRIR, one ear after the other; output is N + L - 1 long."""
    if mono.num_channels != 1:
        raise ValueError("binauralize expects a mono buffer")
    if hrir.num_channels != 2:
        raise ValueError(f"binauralize expects a stereo HRIR, got {hrir.num_channels} channels")
    if mono.sample_rate != hrir.sample_rate:
        raise ValueError(
            f"sample-rate mismatch: signal {mono.sample_rate} Hz vs HRIR {hrir.sample_rate} Hz"
        )
    x = mono.samples[0]
    out = np.empty((2, x.size + hrir.num_samples - 1))
    fft_convolve(x, hrir.left, out[0])
    fft_convolve(x, hrir.right, out[1])
    return AudioBuffer(out, mono.sample_rate)


def mix_and_normalize(stems) -> tuple[AudioBuffer, float, list[AudioBuffer]]:
    """Sum stems and scale everything so the mixture peaks at 0.99 at most.

    Quiet mixes are left untouched (gain 1.0). Louder stems are scaled in
    place, each buffer once however often it is listed, and summed again, so
    mixture == sum(returned stems) exactly.
    """
    stems = list(stems)
    if not stems:
        raise ValueError("no stems to mix")
    shape = stems[0].samples.shape
    rate = stems[0].sample_rate
    for s in stems[1:]:
        if s.samples.shape != shape or s.sample_rate != rate:
            raise ValueError("stems must share length, channel count and sample rate")

    mix = np.zeros(shape)
    for s in stems:
        mix += s.samples
    peak = float(max(mix.max(), -mix.min()))  # no signal-sized |mix| temporary
    if peak <= PEAK_TARGET:
        return AudioBuffer(mix, rate), 1.0, stems
    gain = PEAK_TARGET / peak
    for samples in {id(s.samples): s.samples for s in stems}.values():
        samples *= gain
    mix[:] = 0.0
    for s in stems:
        mix += s.samples
    return AudioBuffer(mix, rate), gain, stems


def _read_source(path) -> AudioBuffer:
    """The mono downmix of the stereo stem WAV at ``path``; a stem that is not stereo is named."""
    stereo = read_wav(path)
    try:
        return downmix_mono(stereo)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def synthesize_track(
    track_dir,
    db: HrirDatabase,
    layout: SceneLayout,
    out_dir,
    encoding: str = "float32",
) -> Manifest:
    """Binauralize one song directory and write stems, mixture and manifest.

    ``track_dir`` must hold vocals/bass/drums/other WAVs of equal length at
    the database's sample rate. The written stems carry the mixture gain, so
    re-reading them reproduces mixture == sum(stems) up to encoding error.
    """
    track_dir = Path(track_dir)
    out_dir = Path(out_dir)
    # Two stems at a time: reads, downmixes, FFTs and writes release the GIL. A pool
    # per call, as a long-lived worker thread would not survive a fork.
    with ThreadPoolExecutor(max_workers=2) as pool:
        sources = list(pool.map(_read_source, [track_dir / f"{stem}.wav" for stem in STEM_NAMES]))

        lengths = {s.num_samples for s in sources}
        if len(lengths) != 1:
            raise ValueError(f"stems in {track_dir} differ in length: {sorted(lengths)}")
        rates = {s.sample_rate for s in sources}
        if len(rates) != 1:
            raise ValueError(f"stems in {track_dir} differ in sample rate: {sorted(rates)}")
        rate = rates.pop()
        if rate != db.sample_rate:
            raise ValueError(f"{track_dir}: track rate {rate} Hz does not match HRIR rate {db.sample_rate} Hz")

        # Each source is freed once rendered; the stems are this call's, so the mix may scale them in place.
        renders = pool.map(binauralize, sources, [db[layout.assignments[stem]] for stem in STEM_NAMES])
        del sources
        mixture, gain, scaled = mix_and_normalize(list(renders))

        out_dir.mkdir(parents=True, exist_ok=True)
        paths = [out_dir / f"{name}.wav" for name in (*STEM_NAMES, "mixture")]
        list(pool.map(write_wav, paths, [*scaled, mixture], repeat(encoding)))

    manifest = Manifest(
        song_id=track_dir.name,
        seed=layout.seed,
        hrtf_subject=db.subject_id,
        sample_rate=rate,
        normalization_gain=gain,
        stems={stem: {"azimuth_deg": int(layout.assignments[stem])} for stem in STEM_NAMES},
    )
    manifest.write(out_dir / MANIFEST_NAME)
    return manifest


def synthesize_dataset(
    dataset_root,
    db: HrirDatabase,
    out_root,
    master_seed: int,
    encoding: str = "float32",
) -> list[Manifest]:
    """Binauralize every song of a stem tree into the same relative path under ``out_root``.

    A song is any directory holding the four stem WAVs (``discover_tracks``).
    Per-song layouts are derived from ``master_seed`` and the song name, so
    the result is independent of processing order and identical across runs.
    ``out_root`` may not lie inside ``dataset_root``: a re-run would take its
    own renders for songs.
    """
    dataset_root = Path(dataset_root)
    out_root = Path(out_root)
    if out_root.resolve().is_relative_to(dataset_root.resolve()):
        raise ValueError(f"output root {out_root} lies inside the dataset root {dataset_root}")
    manifests = []
    for track in discover_tracks(dataset_root):
        song_dir = dataset_root / track
        layout = sample_layout(song_seed(master_seed, song_dir.name))
        manifests.append(synthesize_track(song_dir, db, layout, out_root / track, encoding))
    return manifests
