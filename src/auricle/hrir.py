"""Azimuth-indexed head-related impulse responses.

The database covers the frontal half of the horizontal plane on a 10-degree
grid, azimuth -90..+90 with +90 on the listener's far left, elevation fixed
at 0. On disk each angle is one stereo WAV named ``azi_<deg>_ele_0.wav``
(e.g. ``azi_-30_ele_0.wav``); an optional ``index.json`` can map angles to
arbitrary filenames instead.
"""

import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import AudioBuffer, read_wav, write_wav

__all__ = [
    "GRID_DEGREES",
    "HrirDatabase",
    "load_hrir_database",
    "save_hrir_database",
    "spherical_head_database",
]

GRID_DEGREES = tuple(range(-90, 91, 10))
SAMPLE_RATE = 44100
_FILE_NAME = "azi_{}_ele_0.wav"  # default per-angle file name


@dataclass
class HrirDatabase:
    """One stereo AudioBuffer (left, right) per grid angle, all of one length and rate."""

    subject_id: str
    entries: dict

    def __post_init__(self):
        missing = [a for a in GRID_DEGREES if a not in self.entries]
        if missing:
            raise ValueError(f"HRIR database is missing angles {missing}")
        extra = [a for a in self.entries if a not in GRID_DEGREES]
        if extra:
            raise ValueError(f"HRIR database has off-grid angles {extra}")
        not_stereo = [a for a in GRID_DEGREES if self.entries[a].num_channels != 2]
        if not_stereo:
            raise ValueError(f"HRIRs for azimuths {not_stereo} are not stereo")
        shapes = {a: (h.num_samples, h.sample_rate) for a, h in sorted(self.entries.items())}
        (taps, rate), _ = Counter(shapes.values()).most_common(1)[0]
        odd = ", ".join(f"{a} has {n} taps at {r} Hz" for a, (n, r) in shapes.items() if (n, r) != (taps, rate))
        if odd:
            raise ValueError(f"HRIR set mixes lengths or rates: most azimuths have {taps} taps at {rate} Hz, but {odd}")

    def __getitem__(self, azimuth: int) -> AudioBuffer:
        return self.entries[azimuth]

    @property
    def sample_rate(self) -> int:
        return self.entries[0].sample_rate


def _read_index(directory: Path) -> tuple[str, dict]:
    """Subject name and per-angle file paths; ``index.json`` overrides both defaults."""
    index = directory / "index.json"
    if not index.exists():
        return directory.name, {a: directory / _FILE_NAME.format(a) for a in GRID_DEGREES}
    with open(index) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{index}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"{index}: expected a JSON object, got {type(raw).__name__}")
    subject = raw.pop("subject_id", directory.name)
    if not isinstance(subject, str) or not subject:
        raise ValueError(f"{index}: subject_id must be a non-empty string, got {subject!r}")
    mapping = raw.get("files", raw)
    if not isinstance(mapping, dict):
        raise ValueError(f"{index}: files must map azimuths to file names, got {type(mapping).__name__}")
    files = {}
    for key, name in mapping.items():
        try:
            angle = int(key)
        except ValueError:
            angle = None
        if angle not in GRID_DEGREES:
            raise ValueError(f"{index}: key {key!r} is not a grid azimuth in [-90, 90]")
        if not isinstance(name, str) or not name:
            raise ValueError(f"{index}: file for azimuth {key!r} must be a file name, got {name!r}")
        files[angle] = directory / name
    missing = [a for a in GRID_DEGREES if a not in files]
    if missing:
        raise ValueError(f"{index}: no file for azimuths {missing}")
    return subject, files


def load_hrir_database(directory) -> HrirDatabase:
    """Load all 19 grid angles from ``directory``.

    Every file must be a stereo WAV at ``SAMPLE_RATE``, all of one length;
    a missing angle, a rate mismatch or a file unlike the rest is a hard
    error naming the angle (``HrirDatabase`` checks the set). The
    subject is ``index.json``'s ``subject_id`` if given, else the
    directory's name.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"HRIR directory not found: {directory}")
    subject, files = _read_index(directory)

    entries = {}
    for angle in GRID_DEGREES:
        path = files[angle]
        if not path.exists():
            raise FileNotFoundError(f"HRIR for azimuth {angle} missing (expected {path})")
        entries[angle] = buf = read_wav(path)
        if buf.sample_rate != SAMPLE_RATE:
            raise ValueError(
                f"sample-rate mismatch for azimuth {angle}: "
                f"{path} is {buf.sample_rate} Hz, expected {SAMPLE_RATE}"
            )
    return HrirDatabase(subject, entries)


def save_hrir_database(db: HrirDatabase, directory) -> None:
    """Write ``db`` as float32 WAVs in the on-disk layout that load_hrir_database reads.

    Useful for converting a downloaded HRIR set into this tool's layout.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for angle in GRID_DEGREES:
        write_wav(directory / _FILE_NAME.format(angle), db[angle])


def spherical_head_database(ir_length: int = 128) -> HrirDatabase:
    """Rigid-sphere stand-in for a measured HRIR set, at ``SAMPLE_RATE``.

    Interaural delay follows the Woodworth model, rounded to whole samples;
    the far ear gets a broadband head-shadow attenuation growing with |azimuth|.
    Both ears share the same short pulse shape, so rendered signals carry
    exact integer-sample interaural lags. ``ir_length`` must hold the far
    ear's delayed pulse at +-90 degrees. Intended for tests and demos where
    no measured database is available, not for listening.
    """
    head_radius_m = 0.0875
    speed_of_sound = 343.0
    max_shadow_db = 6.0
    pulse = (-0.4) ** np.arange(6)  # unit impulse with a short alternating tail
    entries = {}
    for angle in GRID_DEGREES:  # from -90, whose far-ear pulse ends last
        theta = math.radians(abs(angle))
        itd = head_radius_m / speed_of_sound * (theta + math.sin(theta))
        delay = round(itd * SAMPLE_RATE)
        if delay + pulse.size > ir_length:
            raise ValueError(f"ir_length must be at least {delay + pulse.size} for azimuth {angle}, got {ir_length}")
        shadow = 10.0 ** (-max_shadow_db * math.sin(theta) / 20.0)

        near, far = (0, 1) if angle >= 0 else (1, 0)  # +azimuth is to the left: left ear is the near ear
        ears = np.zeros((2, ir_length))
        ears[near, : pulse.size] = pulse
        ears[far, delay : delay + pulse.size] = pulse * shadow
        entries[angle] = AudioBuffer(ears, SAMPLE_RATE)
    return HrirDatabase("sphere", entries)
