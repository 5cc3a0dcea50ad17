"""Azimuth-indexed head-related impulse responses.

The database covers the frontal half of the horizontal plane on a 10-degree
grid, azimuth -90..+90 with +90 on the listener's far left, elevation fixed
at 0. On disk a set is a directory named after its subject, with one stereo
WAV per angle named ``azi_<deg>_ele_0.wav`` (e.g. ``azi_-30_ele_0.wav``);
``save_hrir_database`` converts a measured set into that layout.
"""

import math
import os
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
_FILE_NAME = "azi_{}_ele_0.wav"  # the per-angle file name


@dataclass
class HrirDatabase:
    """One stereo AudioBuffer (left, right) per grid angle, all of one length and at ``SAMPLE_RATE``."""

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
        if rate != SAMPLE_RATE:
            raise ValueError(f"HRIR set {self.subject_id!r} is at {rate} Hz; a set must be at {SAMPLE_RATE} Hz")

    def __getitem__(self, azimuth: int) -> AudioBuffer:
        return self.entries[azimuth]


def load_hrir_database(directory) -> HrirDatabase:
    """Load all 19 grid angles from ``directory``, one ``azi_<deg>_ele_0.wav`` each.

    ``read_wav`` names the file of a missing angle, and ``HrirDatabase`` refuses a
    file that is not stereo, one unlike the rest in length or rate (naming its
    angle) and a set not at ``SAMPLE_RATE``. The subject is the name of the
    directory's absolute path. A directory holding an ``index.json`` is refused.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"HRIR directory not found: {directory}")
    index = directory / "index.json"
    if index.exists():
        raise ValueError(f"{index}: an angle-to-file index is not read; convert the set with save_hrir_database")

    entries = {angle: read_wav(directory / _FILE_NAME.format(angle)) for angle in GRID_DEGREES}
    return HrirDatabase(Path(os.path.abspath(directory)).name, entries)


def save_hrir_database(db: HrirDatabase, directory) -> None:
    """Write ``db`` as float32 WAVs in the on-disk layout that load_hrir_database reads.

    To convert a measured set, build an ``HrirDatabase`` of its ``read_wav``
    buffers and save it into a directory named after the subject; the
    directory is created if need be. A directory holding an ``index.json`` is
    refused before anything is written.
    """
    directory = Path(directory)
    index = directory / "index.json"
    if index.exists():
        raise ValueError(f"{index}: load_hrir_database would refuse this directory; save the set into another")
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
