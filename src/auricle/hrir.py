"""Azimuth-indexed head-related impulse responses.

The database covers the frontal half of the horizontal plane on a 10-degree
grid, azimuth -90..+90 with +90 on the listener's far left, elevation fixed
at 0. On disk each angle is one stereo WAV named ``azi_<deg>_ele_0.wav``
(e.g. ``azi_-30_ele_0.wav``); an optional ``index.json`` can map angles to
arbitrary filenames instead.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import AudioBuffer, read_wav, write_wav

__all__ = [
    "GRID_DEGREES",
    "HrirPair",
    "HrirDatabase",
    "load_hrir_database",
    "save_hrir_database",
    "spherical_head_database",
]

GRID_DEGREES = tuple(range(-90, 91, 10))


@dataclass
class HrirPair:
    """Left/right impulse responses for one source direction."""

    azimuth: int
    left: np.ndarray
    right: np.ndarray
    sample_rate: int

    def __post_init__(self):
        if self.azimuth not in GRID_DEGREES:
            raise ValueError(f"azimuth {self.azimuth} is not on the 10-degree grid [-90, 90]")
        self.left = np.asarray(self.left, dtype=np.float64)
        self.right = np.asarray(self.right, dtype=np.float64)
        if self.left.ndim != 1 or self.right.ndim != 1:
            raise ValueError("impulse responses must be 1-D")
        if self.left.size != self.right.size or self.left.size < 1:
            raise ValueError("left and right responses must share a length >= 1")
        if not isinstance(self.sample_rate, (int, np.integer)) or self.sample_rate <= 0:
            raise ValueError(f"sample rate must be a positive integer, got {self.sample_rate!r}")
        self.sample_rate = int(self.sample_rate)

    @property
    def length(self) -> int:
        return self.left.size


@dataclass
class HrirDatabase:
    """Complete set of HrirPairs, one per grid angle."""

    subject_id: str
    entries: dict

    def __post_init__(self):
        missing = [a for a in GRID_DEGREES if a not in self.entries]
        if missing:
            raise ValueError(f"HRIR database is missing angles {missing}")
        extra = [a for a in self.entries if a not in GRID_DEGREES]
        if extra:
            raise ValueError(f"HRIR database has off-grid angles {extra}")

    def __getitem__(self, azimuth: int) -> HrirPair:
        return self.entries[azimuth]

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def sample_rate(self) -> int:
        return self.entries[0].sample_rate


def _angle_filenames(directory: Path) -> dict:
    index = directory / "index.json"
    if index.exists():
        with open(index) as fh:
            raw = json.load(fh)
        mapping = raw.get("files", raw)
        files = {}
        for key, name in mapping.items():
            try:
                angle = int(key)
            except ValueError:
                angle = None
            if angle not in GRID_DEGREES:
                raise ValueError(f"{index}: key {key!r} is not a grid azimuth in [-90, 90]")
            files[angle] = directory / name
        return files
    return {a: directory / f"azi_{a}_ele_0.wav" for a in GRID_DEGREES}


def load_hrir_database(directory, expected_rate: int = 44100, subject_id: str | None = None) -> HrirDatabase:
    """Load all 19 grid angles from ``directory``.

    Every file must be a stereo WAV at ``expected_rate``; a missing angle,
    a mono file, or a rate mismatch is a hard error naming the angle.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"HRIR directory not found: {directory}")
    files = _angle_filenames(directory)

    entries = {}
    for angle in GRID_DEGREES:
        path = files.get(angle)
        if path is None or not path.exists():
            raise FileNotFoundError(f"HRIR for azimuth {angle} missing (expected {path})")
        buf = read_wav(path)
        if buf.num_channels != 2:
            raise ValueError(f"HRIR {path} for azimuth {angle} is not stereo")
        if buf.sample_rate != expected_rate:
            raise ValueError(
                f"sample-rate mismatch for azimuth {angle}: "
                f"{path} is {buf.sample_rate} Hz, expected {expected_rate}"
            )
        entries[angle] = HrirPair(angle, buf.left, buf.right, buf.sample_rate)
    return HrirDatabase(subject_id or directory.name, entries)


def save_hrir_database(db: HrirDatabase, directory, encoding: str = "float32") -> None:
    """Write ``db`` in the on-disk layout that load_hrir_database reads.

    Useful for converting a downloaded HRIR set into this tool's layout.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for angle in GRID_DEGREES:
        pair = db[angle]
        buf = AudioBuffer(np.stack([pair.left, pair.right]), pair.sample_rate)
        write_wav(directory / f"azi_{angle}_ele_0.wav", buf, encoding=encoding)


def spherical_head_database(
    sample_rate: int = 44100,
    ir_length: int = 128,
    head_radius_m: float = 0.0875,
    max_shadow_db: float = 6.0,
    subject_id: str = "sphere",
) -> HrirDatabase:
    """Rigid-sphere stand-in for a measured HRIR set.

    Interaural delay follows the Woodworth model, rounded to whole samples;
    the far ear gets a broadband head-shadow attenuation growing with |azimuth|.
    Both ears share the same short pulse shape, so rendered signals carry
    exact integer-sample interaural lags. Intended for tests and demos where
    no measured database is available, not for listening.
    """
    speed_of_sound = 343.0
    pulse = (-0.4) ** np.arange(6)  # unit impulse with a short alternating tail
    entries = {}
    for angle in GRID_DEGREES:
        theta = math.radians(abs(angle))
        itd = head_radius_m / speed_of_sound * (theta + math.sin(theta))
        delay = round(itd * sample_rate)
        shadow = 10.0 ** (-max_shadow_db * math.sin(theta) / 20.0)

        near = np.zeros(ir_length)
        far = np.zeros(ir_length)
        near[: pulse.size] = pulse
        far[delay : delay + pulse.size] = pulse * shadow
        if angle >= 0:  # +azimuth is to the left: left ear is the near ear
            left, right = near, far
        else:
            left, right = far, near
        entries[angle] = HrirPair(angle, left, right, sample_rate)
    return HrirDatabase(subject_id, entries)
