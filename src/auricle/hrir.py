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
SAMPLE_RATE = 44100
_FILE_NAME = "azi_{}_ele_0.wav"  # default per-angle file name


@dataclass
class HrirPair:
    """Left/right impulse responses for one source direction; the database key is its azimuth."""

    left: np.ndarray
    right: np.ndarray
    sample_rate: int

    def __post_init__(self):
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
    return subject, files


def load_hrir_database(directory) -> HrirDatabase:
    """Load all 19 grid angles from ``directory``.

    Every file must be a stereo WAV at ``SAMPLE_RATE``; a missing angle,
    a mono file, or a rate mismatch is a hard error naming the angle. The
    subject is ``index.json``'s ``subject_id`` if given, else the
    directory's name.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"HRIR directory not found: {directory}")
    subject, files = _read_index(directory)

    entries = {}
    for angle in GRID_DEGREES:
        path = files.get(angle)
        if path is None or not path.exists():
            raise FileNotFoundError(f"HRIR for azimuth {angle} missing (expected {path})")
        buf = read_wav(path)
        if buf.num_channels != 2:
            raise ValueError(f"HRIR {path} for azimuth {angle} is not stereo")
        if buf.sample_rate != SAMPLE_RATE:
            raise ValueError(
                f"sample-rate mismatch for azimuth {angle}: "
                f"{path} is {buf.sample_rate} Hz, expected {SAMPLE_RATE}"
            )
        entries[angle] = HrirPair(buf.left, buf.right, buf.sample_rate)
    return HrirDatabase(subject, entries)


def save_hrir_database(db: HrirDatabase, directory) -> None:
    """Write ``db`` as float32 WAVs in the on-disk layout that load_hrir_database reads.

    Useful for converting a downloaded HRIR set into this tool's layout.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for angle in GRID_DEGREES:
        pair = db[angle]
        buf = AudioBuffer(np.stack([pair.left, pair.right]), pair.sample_rate)
        write_wav(directory / _FILE_NAME.format(angle), buf)


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

        near = np.zeros(ir_length)
        far = np.zeros(ir_length)
        near[: pulse.size] = pulse
        far[delay : delay + pulse.size] = pulse * shadow
        if angle >= 0:  # +azimuth is to the left: left ear is the near ear
            left, right = near, far
        else:
            left, right = far, near
        entries[angle] = HrirPair(left, right, SAMPLE_RATE)
    return HrirDatabase("sphere", entries)
