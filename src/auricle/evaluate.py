"""Batch evaluation of estimated stems against references.

A track is any directory holding the four stem WAVs; the estimate tree must
mirror the reference tree's relative paths. When a reference track carries a
synthesis manifest (layout.json) the stem azimuths are attached to each row.
"""

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .audio import read_wav
from .metrics import (
    DEFAULT_CONFIG,
    MetricConfig,
    MetricValue,
    align_pair,
    delta_ild,
    delta_itd,
    ssr_srr,
)
from .scene import MANIFEST_NAME, STEM_NAMES, Manifest, read_manifest

__all__ = [
    "MetricRow",
    "METRIC_FIELDS",
    "METRIC_UNITS",
    "evaluate_track",
    "evaluate_tree",
    "discover_tracks",
    "write_rows_csv",
    "read_rows_csv",
]

METRIC_FIELDS = ("ssr_db", "srr_db", "delta_itd_us", "delta_ild_db")
METRIC_UNITS = {"ssr_db": "dB", "srr_db": "dB", "delta_itd_us": "us", "delta_ild_db": "dB"}


@dataclass
class MetricRow:
    """All four metrics for one (track, stem) pair."""

    track_id: str
    stem: str
    azimuth_deg: int | None
    ssr_db: MetricValue
    srr_db: MetricValue
    delta_itd_us: MetricValue
    delta_ild_db: MetricValue

    def metric(self, field: str) -> MetricValue:
        return getattr(self, field)


def evaluate_track(
    ref_dir,
    est_dir,
    manifest: Manifest | None = None,
    cfg: MetricConfig = DEFAULT_CONFIG,
) -> list[MetricRow]:
    """Compute SSR/SRR and interaural-cue deltas for every stem of one track."""
    ref_dir = Path(ref_dir)
    est_dir = Path(est_dir)
    if manifest is None and (ref_dir / MANIFEST_NAME).exists():
        manifest = read_manifest(ref_dir / MANIFEST_NAME)
    track_id = manifest.song_id if manifest else ref_dir.name

    rows = []
    for stem in STEM_NAMES:
        ref_path = ref_dir / f"{stem}.wav"
        est_path = est_dir / f"{stem}.wav"
        if not ref_path.exists():
            raise FileNotFoundError(f"reference stem {stem!r} missing from {ref_dir}")
        if not est_path.exists():
            raise FileNotFoundError(f"estimated stem {stem!r} missing from {est_dir}")
        ref = read_wav(ref_path)
        est = read_wav(est_path)
        if ref.num_channels != 2 or est.num_channels != 2:
            raise ValueError(f"stems must be stereo: {ref_path} / {est_path}")
        try:
            ref, est = align_pair(ref, est, cfg)
        except ValueError as exc:
            raise ValueError(f"{est_path}: {exc}") from exc

        ssr, srr = ssr_srr(ref, est, cfg)
        azimuth = None
        if manifest is not None:
            azimuth = int(manifest.stems[stem]["azimuth_deg"])
        rows.append(
            MetricRow(
                track_id=track_id,
                stem=stem,
                azimuth_deg=azimuth,
                ssr_db=ssr,
                srr_db=srr,
                delta_itd_us=delta_itd(ref, est, cfg),
                delta_ild_db=delta_ild(ref, est),
            )
        )
    return rows


def discover_tracks(ref_root) -> list[Path]:
    """Relative paths of every directory under ref_root holding stem WAVs."""
    ref_root = Path(ref_root)
    if not ref_root.is_dir():
        raise FileNotFoundError(f"reference root not found: {ref_root}")
    tracks = set()
    for stem in STEM_NAMES:
        for hit in ref_root.rglob(f"{stem}.wav"):
            tracks.add(hit.parent.relative_to(ref_root))
    if not tracks:
        raise FileNotFoundError(f"no stem WAVs found under {ref_root}")
    return sorted(tracks)


def _evaluate_one(args):
    ref_dir, est_dir, cfg = args
    return evaluate_track(ref_dir, est_dir, None, cfg)


def evaluate_tree(
    ref_root,
    est_root,
    cfg: MetricConfig = DEFAULT_CONFIG,
    jobs: int = 1,
) -> list[MetricRow]:
    """Evaluate every track under ref_root against the mirrored estimate tree.

    Tracks run independently (optionally in ``jobs`` worker processes) and the
    rows are merged in sorted track order, so the output is deterministic
    regardless of scheduling.
    """
    ref_root = Path(ref_root)
    est_root = Path(est_root)
    tasks = [(ref_root / rel, est_root / rel, cfg) for rel in discover_tracks(ref_root)]

    if jobs <= 1:
        per_track = [_evaluate_one(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_track = list(pool.map(_evaluate_one, tasks))
    return [row for rows in per_track for row in rows]


def _encode_value(value: MetricValue) -> str:
    if value.is_undefined:
        return ""
    if value.is_infinite:
        return "inf"
    return repr(value.value)


def _decode_value(text: str, unit: str) -> MetricValue:
    if text == "":
        return MetricValue.undefined(unit)
    return MetricValue.from_float(float(text), unit)


def write_rows_csv(rows, path) -> None:
    """Write per-(track, stem) metric rows; '' = undefined, 'inf' = infinite."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["track_id", "stem", "azimuth_deg"] + list(METRIC_FIELDS))
        for row in rows:
            writer.writerow(
                [
                    row.track_id,
                    row.stem,
                    "" if row.azimuth_deg is None else row.azimuth_deg,
                ]
                + [_encode_value(row.metric(f)) for f in METRIC_FIELDS]
            )


def read_rows_csv(path) -> list[MetricRow]:
    path = Path(path)
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        expected = {"track_id", "stem", "azimuth_deg", *METRIC_FIELDS}
        if reader.fieldnames is None or not expected.issubset(reader.fieldnames):
            raise ValueError(f"{path} is not a metrics CSV (header {reader.fieldnames})")
        for rec in reader:
            rows.append(
                MetricRow(
                    track_id=rec["track_id"],
                    stem=rec["stem"],
                    azimuth_deg=int(rec["azimuth_deg"]) if rec["azimuth_deg"] else None,
                    **{f: _decode_value(rec[f], METRIC_UNITS[f]) for f in METRIC_FIELDS},
                )
            )
    if not rows:
        raise ValueError(f"no rows in {path}")
    return rows
