"""Deterministic benchmark inputs, made from one seed.

Everything here runs before timing starts; the program only ever sees the
files written. The same arguments always give byte-identical files:
content comes from ``numpy.random.default_rng`` streams keyed by the seed
and the song or system index, never from the order of generation.

* ``write_song_tree``: a stem dataset (``test/songNN/{stem}.wav``, pcm16)
  in the style of the test-suite helper ``make_song_dir``.
* ``write_hrir_set``: the rigid-sphere HRIR set saved to disk.
* ``write_reference``: a binaural reference rendered from a song tree by
  direct time-domain convolution, with a ``layout.json`` manifest.
* ``write_separator``: a scripted separator output at one of three levels of
  degradation (gain error, channel delay, mixture bleed and noise).
"""

import json
from pathlib import Path

import numpy as np
from scipy.io import wavfile

FS = 44100
SONG_SECONDS = 30.0
SONGS = 2
STEMS = ("vocals", "bass", "drums", "other")
GRID = tuple(range(-90, 91, 10))
PEAK_TARGET = 0.99

# Per separator level: mixture bleed, max |right-channel gain error| in dB,
# largest right-channel delay in samples, and additive noise amplitude.
SEPARATOR_LEVELS = (
    (0.02, 0.5, 1, 0.001),
    (0.05, 1.0, 2, 0.003),
    (0.10, 2.0, 3, 0.010),
)


def write_pcm16(path: Path, samples: np.ndarray) -> None:
    """Write (channels, n) samples in [-1, 1) as pcm16, rounding to the nearest code."""
    codes = np.clip(np.round(samples * 32768.0), -32768, 32767).astype(np.int16)
    path.parent.mkdir(parents=True, exist_ok=True)
    wavfile.write(str(path), FS, codes.T)


def write_float32(path: Path, samples: np.ndarray) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    wavfile.write(str(path), FS, samples.T.astype(np.float32))


def read_samples(path: Path) -> np.ndarray:
    """(channels, n) float64 samples; pcm16 is scaled by 1/32768 as the program does."""
    _, data = wavfile.read(str(path))
    samples = data.astype(np.float64)
    if data.dtype == np.int16:
        samples /= 32768.0
    return np.atleast_2d(samples.T)


def write_song_tree(root: Path, seed: int, songs: int = SONGS, seconds: float = SONG_SECONDS) -> Path:
    """Write ``songs`` four-stem pcm16 songs under ``root/test``; returns ``root``."""
    n = int(round(seconds * FS))
    t = np.arange(n) / FS
    for index in range(songs):
        name = f"song{index:02d}"
        rng = np.random.default_rng([seed, index])
        content = {
            "vocals": 0.2 * rng.normal(size=(2, n)) * np.sin(2 * np.pi * 3.0 * t),
            "bass": 0.3 * np.stack([np.sin(2 * np.pi * 80.0 * t)] * 2) + 0.01 * rng.normal(size=(2, n)),
            "drums": 0.15 * rng.normal(size=(2, n)) * (rng.random(n) > 0.6),
            "other": 0.1 * rng.normal(size=(2, n)),
        }
        for stem in STEMS:
            write_pcm16(root / "test" / name / f"{stem}.wav", np.clip(content[stem], -0.99, 0.99))
    return root


def write_hrir_set(directory: Path, ir_length: int) -> Path:
    """Save ``spherical_head_database(ir_length=...)`` in the program's on-disk layout."""
    from auricle import save_hrir_database, spherical_head_database

    save_hrir_database(spherical_head_database(ir_length=ir_length), directory)
    return directory


def read_hrir_set(directory: Path) -> dict:
    """Azimuth -> (left, right) float64 impulse responses, read back from disk."""
    irs = {}
    for angle in GRID:
        both = read_samples(directory / f"azi_{angle}_ele_0.wav")
        irs[angle] = (both[0], both[1])
    return irs


def mono_downmix(path: Path) -> np.ndarray:
    stereo = read_samples(path)
    return (stereo[0] + stereo[1]) / 2.0


def write_reference(song_root: Path, hrir_dir: Path, out_root: Path, seed: int) -> Path:
    """Render every song under ``song_root/test`` binaurally into ``out_root/test``.

    Azimuths are four distinct grid angles drawn from the seed. Rendering is
    ``np.convolve`` of each mono downmix with the HRIR pair, then one gain
    for the whole song so that the mixture peaks at 0.99.
    """
    irs = read_hrir_set(hrir_dir)
    for index, song in enumerate(sorted(p for p in (song_root / "test").iterdir() if p.is_dir())):
        rng = np.random.default_rng([seed, 1000 + index])
        angles = [int(a) for a in rng.choice(GRID, size=len(STEMS), replace=False)]
        rendered = []
        for stem, angle in zip(STEMS, angles):
            mono = mono_downmix(song / f"{stem}.wav")
            left, right = irs[angle]
            rendered.append(np.stack([np.convolve(mono, left), np.convolve(mono, right)]))
        mix = np.sum(rendered, axis=0)
        peak = float(np.max(np.abs(mix)))
        gain = PEAK_TARGET / peak if peak > PEAK_TARGET else 1.0
        out = out_root / "test" / song.name
        for stem, data in zip(STEMS, rendered):
            write_float32(out / f"{stem}.wav", gain * data)
        write_float32(out / "mixture.wav", gain * mix)
        manifest = {
            "song_id": song.name,
            "seed": seed,
            "hrtf_subject": hrir_dir.name,
            "sample_rate": FS,
            "normalization_gain": gain,
            "stems": {stem: {"azimuth_deg": angle} for stem, angle in zip(STEMS, angles)},
        }
        (out / "layout.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return out_root


def write_separator(ref_root: Path, out_root: Path, seed: int, level: int) -> Path:
    """Write a degraded copy of every reference stem, as a separator would.

    Each estimate is the reference stem plus mixture bleed, with a gain error
    and an integer delay on the right channel, plus white noise. Higher
    levels degrade more.
    """
    bleed, max_gain_db, max_delay, noise = SEPARATOR_LEVELS[level]
    for index, song in enumerate(sorted(p for p in (ref_root / "test").iterdir() if p.is_dir())):
        rng = np.random.default_rng([seed, 2000 + level, index])
        mixture = read_samples(song / "mixture.wav")
        for stem in STEMS:
            est = read_samples(song / f"{stem}.wav") + bleed * mixture
            est[1] *= 10.0 ** (rng.uniform(-max_gain_db, max_gain_db) / 20.0)
            delay = int(rng.integers(0, max_delay + 1))
            if delay:
                est[1, delay:] = est[1, :-delay].copy()
                est[1, :delay] = 0.0
            est += noise * rng.normal(size=est.shape)
            write_float32(out_root / "test" / song.name / f"{stem}.wav", est)
    return out_root
