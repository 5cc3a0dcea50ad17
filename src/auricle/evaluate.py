"""Batch evaluation of estimated stems against references.

A track is any directory holding the four stem WAVs; the estimate tree must
mirror the reference tree's relative paths. When a reference track carries a
synthesis manifest (layout.json) the stem azimuths are attached to each row.
"""

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from itertools import repeat
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
from .scene import MANIFEST_NAME, STEM_NAMES, _azimuth, discover_tracks, read_manifest

__all__ = [
    "MetricRow",
    "METRIC_FIELDS",
    "evaluate_track",
    "evaluate_tree",
    "write_rows_csv",
    "read_rows_csv",
]

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


_COLUMNS = tuple(f.name for f in fields(MetricRow))  # the metrics CSV header
METRIC_FIELDS = tuple(f.name for f in fields(MetricRow) if f.type is MetricValue)


def evaluate_track(ref_dir, est_dir, cfg: MetricConfig = DEFAULT_CONFIG) -> list[MetricRow]:
    """Compute SSR/SRR and interaural-cue deltas for every stem of one track.

    The reference directory's ``layout.json``, if any, gives the track id and
    each stem's azimuth.
    """
    ref_dir = Path(ref_dir)
    est_dir = Path(est_dir)
    manifest = read_manifest(ref_dir / MANIFEST_NAME) if (ref_dir / MANIFEST_NAME).exists() else None
    track_id = manifest.song_id if manifest else ref_dir.name

    rows = []
    for stem in STEM_NAMES:
        ref_path = ref_dir / f"{stem}.wav"
        est_path = est_dir / f"{stem}.wav"
        ref = read_wav(ref_path)
        est = read_wav(est_path)
        if ref.num_channels != 2 or est.num_channels != 2:
            raise ValueError(f"stems must be stereo: {ref_path} / {est_path}")
        try:
            ref, est = align_pair(ref, est, cfg)
        except ValueError as exc:
            raise ValueError(f"{est_path}: {exc}") from exc

        ssr, srr = ssr_srr(ref, est, cfg)
        rows.append(
            MetricRow(
                track_id=track_id,
                stem=stem,
                azimuth_deg=manifest.stems[stem]["azimuth_deg"] if manifest else None,
                ssr_db=ssr,
                srr_db=srr,
                delta_itd_us=delta_itd(ref, est, cfg),
                delta_ild_db=delta_ild(ref, est),
            )
        )
        del ref, est  # free this stem pair before the next one is read
    return rows


def evaluate_tree(
    ref_root,
    est_root,
    cfg: MetricConfig = DEFAULT_CONFIG,
    jobs: int = 1,
) -> list[MetricRow]:
    """Evaluate every track under ref_root against the mirrored estimate tree.

    Tracks run independently (optionally in ``jobs`` worker processes) and the
    rows are merged in sorted track order, so the output is deterministic
    regardless of scheduling. ``est_root`` may equal ``ref_root`` but not lie
    inside it, where the walk would take the estimates for reference tracks.
    """
    ref_root = Path(ref_root)
    est_root = Path(est_root)
    if ref_root.resolve() in est_root.resolve().parents:
        raise ValueError(f"estimate root {est_root} lies inside the reference root {ref_root}")
    tracks = discover_tracks(ref_root)
    args = ([ref_root / t for t in tracks], [est_root / t for t in tracks], repeat(cfg))

    if jobs <= 1:
        per_track = list(map(evaluate_track, *args))
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_track = list(pool.map(evaluate_track, *args))
    return [row for rows in per_track for row in rows]


def _encode_cell(value) -> str:
    if not isinstance(value, MetricValue):
        return "" if value is None else value
    if value.is_undefined:
        return ""
    return "inf" if value.is_infinite else repr(value.value)


def _decode_value(text: str, where: str) -> MetricValue:
    if text == "":
        return MetricValue.undefined()
    try:
        return MetricValue.from_float(float(text))
    except (TypeError, ValueError):  # a short row leaves its last cells None
        raise ValueError(f"{where} cell {text!r} is not a number") from None


def write_rows_csv(rows, path) -> None:
    """Write per-(track, stem) metric rows; '' = undefined or no azimuth, 'inf' = infinite."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_COLUMNS)
        for row in rows:
            writer.writerow([_encode_cell(getattr(row, name)) for name in _COLUMNS])


def read_rows_csv(path) -> list[MetricRow]:
    path = Path(path)
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not set(_COLUMNS).issubset(reader.fieldnames):
            raise ValueError(f"{path} is not a metrics CSV (header {reader.fieldnames})")
        for rec in reader:
            where = f"{path}, line {reader.line_num}"
            azimuth = _azimuth(rec["azimuth_deg"], where) if rec["azimuth_deg"] else None
            values = {f: _decode_value(rec[f], f"{where}: {f}") for f in METRIC_FIELDS}
            rows.append(MetricRow(rec["track_id"], rec["stem"], azimuth, **values))
    if not rows:
        raise ValueError(f"no rows in {path}")
    return rows
