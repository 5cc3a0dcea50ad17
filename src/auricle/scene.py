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
from pathlib import Path

import numpy as np

from .audio import AudioBuffer, read_wav, write_wav
from .dsp import fft_convolve
from .hrir import GRID_DEGREES, HrirDatabase, HrirPair

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


def read_manifest(path) -> Manifest:
    """Load a ``layout.json`` that places every stem; keys that ``Manifest`` does not define are ignored."""
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
    return Manifest(**{name: data[name] for name in names})


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


def binauralize(mono: AudioBuffer, pair: HrirPair) -> AudioBuffer:
    """Render a mono signal at the HRIR's direction; output is N + L - 1 long.

    The ears are convolved at once, the right on a worker thread (FFTs release
    the GIL), each into its own row: the bits of two calls in turn.
    """
    if mono.num_channels != 1:
        raise ValueError("binauralize expects a mono buffer")
    if mono.sample_rate != pair.sample_rate:
        raise ValueError(
            f"sample-rate mismatch: signal {mono.sample_rate} Hz vs HRIR {pair.sample_rate} Hz"
        )
    x = mono.samples[0]
    out = np.empty((2, x.size + pair.length - 1))
    # A pool per call: a long-lived worker thread would not survive a fork.
    with ThreadPoolExecutor(max_workers=1) as ear:
        right = ear.submit(fft_convolve, x, pair.right, out[1])
        fft_convolve(x, pair.left, out[0])
        right.result()
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

    sources = {}
    for stem in STEM_NAMES:
        path = track_dir / f"{stem}.wav"
        stereo = read_wav(path)
        try:
            sources[stem] = downmix_mono(stereo)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    # only the mono sources stay alive while the song is rendered
    del stereo

    lengths = {s.num_samples for s in sources.values()}
    if len(lengths) != 1:
        raise ValueError(f"stems in {track_dir} differ in length: {sorted(lengths)}")
    rates = {s.sample_rate for s in sources.values()}
    if len(rates) != 1:
        raise ValueError(f"stems in {track_dir} differ in sample rate: {sorted(rates)}")
    rate = rates.pop()
    if rate != db.sample_rate:
        raise ValueError(f"{track_dir}: track rate {rate} Hz does not match HRIR rate {db.sample_rate} Hz")

    # Sources are freed as rendered; the stems are this call's, so the mix may scale them in place.
    rendered = [binauralize(sources.pop(stem), db[layout.assignments[stem]]) for stem in STEM_NAMES]
    mixture, gain, scaled = mix_and_normalize(rendered)

    out_dir.mkdir(parents=True, exist_ok=True)
    for stem, buf in zip(STEM_NAMES, scaled):
        write_wav(out_dir / f"{stem}.wav", buf, encoding=encoding)
    write_wav(out_dir / "mixture.wav", mixture, encoding=encoding)

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
    split: str = "both",
) -> list[Manifest]:
    """Binauralize a train/test stem dataset tree.

    Per-song layouts are derived from ``master_seed`` and the song name, so
    the result is independent of processing order and identical across runs.
    """
    dataset_root = Path(dataset_root)
    out_root = Path(out_root)
    if split == "both":
        splits = [s for s in ("train", "test") if (dataset_root / s).is_dir()]
        if not splits:
            raise FileNotFoundError(f"no train/ or test/ directory under {dataset_root}")
    elif split in ("train", "test"):
        if not (dataset_root / split).is_dir():
            raise FileNotFoundError(f"split directory {dataset_root / split} not found")
        splits = [split]
    else:
        raise ValueError(f"unknown split {split!r}; use 'train', 'test' or 'both'")

    manifests = []
    for part in splits:
        for song_dir in sorted(p for p in (dataset_root / part).iterdir() if p.is_dir()):
            layout = sample_layout(song_seed(master_seed, song_dir.name))
            manifests.append(
                synthesize_track(song_dir, db, layout, out_root / part / song_dir.name, encoding)
            )
    return manifests
