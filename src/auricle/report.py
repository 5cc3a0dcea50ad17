"""Median aggregation and table rendering for metric rows.

Aggregation is median-of-per-track-values: each (track, stem) row contributes
one value per metric (per-track SSR/SRR are already frame medians), undefined
values are excluded with their count reported, and positive infinity sorts
above every finite value. Angle binning partitions [-90, 90] into six
30-degree bins and emits boxplot statistics as data.
"""

import csv
import io
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .evaluate import METRIC_FIELDS, METRIC_UNITS, MetricRow
from .metrics import MetricValue
from .scene import STEM_NAMES

__all__ = [
    "CellStat",
    "BoxStat",
    "AngleBin",
    "MetricReport",
    "ANGLE_BIN_EDGES",
    "aggregate_medians",
    "bin_by_angle",
    "write_report",
]

ANGLE_BIN_EDGES = (-90, -60, -30, 0, 30, 60, 90)
GROUP_COLUMNS = ("bass", "drums", "other", "vocals", "overall")
_BOX_KEYS = ("min", "q1", "median", "q3", "max")


@dataclass
class CellStat:
    """Median of one metric over a group of rows."""

    median: MetricValue
    count: int
    excluded: int


@dataclass
class BoxStat:
    """Five-number summary of one metric within one angle bin."""

    stats: dict  # min/q1/median/q3/max -> MetricValue
    count: int
    excluded: int


@dataclass
class AngleBin:
    label: str
    low: int
    high: int
    per_stem: dict  # stem -> metric -> BoxStat
    pooled: dict  # metric -> BoxStat


@dataclass
class MetricReport:
    by_instrument: dict  # stem -> metric -> CellStat
    overall: dict  # metric -> CellStat
    by_angle: list | None = None


def _collect(values) -> tuple[list[float], int]:
    floats = []
    excluded = 0
    for v in values:
        x = v.as_float()
        if math.isnan(x):
            excluded += 1
        else:
            floats.append(x)
    return floats, excluded


def _median_cell(values, unit: str) -> CellStat:
    floats, excluded = _collect(values)
    if not floats:
        return CellStat(MetricValue.undefined(unit), 0, excluded)
    return CellStat(MetricValue.from_float(float(np.median(floats)), unit), len(floats), excluded)


def aggregate_medians(rows) -> MetricReport:
    """Per-instrument and pooled-overall medians for each metric."""
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to aggregate")
    by_instrument = {}
    for stem in STEM_NAMES:
        stem_rows = [r for r in rows if r.stem == stem]
        by_instrument[stem] = {
            m: _median_cell([r.metric(m) for r in stem_rows], METRIC_UNITS[m])
            for m in METRIC_FIELDS
        }
    overall = {m: _median_cell([r.metric(m) for r in rows], METRIC_UNITS[m]) for m in METRIC_FIELDS}
    return MetricReport(by_instrument=by_instrument, overall=overall)


def _bin_index(azimuth: int) -> int:
    # Bins are half-open below 90; +90 falls in the top bin [60, 90].
    return min((azimuth + 90) // 30, 5)


def _percentile(sorted_arr: np.ndarray, q: float) -> float:
    # linear interpolation that survives +-inf plateaus (numpy's interpolated
    # percentile turns inf..inf spans into nan via inf - inf)
    pos = (sorted_arr.size - 1) * q / 100.0
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    if sorted_arr[lo] == sorted_arr[hi]:
        return float(sorted_arr[lo])
    t = pos - lo
    return float((1.0 - t) * sorted_arr[lo] + t * sorted_arr[hi])


def _box(values, unit: str) -> BoxStat:
    floats, excluded = _collect(values)
    if not floats:
        return BoxStat({k: MetricValue.undefined(unit) for k in _BOX_KEYS}, 0, excluded)
    arr = np.sort(np.asarray(floats))
    stats = {
        "min": arr[0],
        "q1": _percentile(arr, 25),
        "median": _percentile(arr, 50),
        "q3": _percentile(arr, 75),
        "max": arr[-1],
    }
    return BoxStat(
        {k: MetricValue.from_float(float(v), unit) for k, v in stats.items()},
        len(floats),
        excluded,
    )


def bin_by_angle(rows) -> list[AngleBin]:
    """Boxplot statistics per 30-degree azimuth bin.

    Rows without an azimuth (stereo datasets) are excluded with a warning.
    """
    rows = list(rows)
    with_angle = [r for r in rows if r.azimuth_deg is not None]
    skipped = len(rows) - len(with_angle)
    if skipped:
        warnings.warn(f"{skipped} rows without azimuth excluded from angle binning", stacklevel=2)

    bins = []
    for i in range(6):
        low, high = ANGLE_BIN_EDGES[i], ANGLE_BIN_EDGES[i + 1]
        members = [r for r in with_angle if _bin_index(r.azimuth_deg) == i]
        label = f"[{low},{high}{']' if i == 5 else ')'}"
        per_stem = {
            stem: {
                m: _box([r.metric(m) for r in members if r.stem == stem], METRIC_UNITS[m])
                for m in METRIC_FIELDS
            }
            for stem in STEM_NAMES
        }
        pooled = {m: _box([r.metric(m) for r in members], METRIC_UNITS[m]) for m in METRIC_FIELDS}
        bins.append(AngleBin(label, low, high, per_stem, pooled))
    return bins


def _format_value(value: MetricValue, excluded: int, full_precision: bool) -> str:
    if value.is_undefined:
        return f"n/a ({excluded} excluded)"
    if value.is_infinite:
        text = "inf"
    elif full_precision:
        text = repr(value.value)
    else:
        text = f"{value.value:.2f}"
    if excluded:
        text += f" ({excluded} excluded)"
    return text


def _report_cells(report: MetricReport, metric: str, full_precision: bool) -> list[str]:
    cells = []
    for stem in GROUP_COLUMNS[:-1]:
        cell = report.by_instrument[stem][metric]
        cells.append(_format_value(cell.median, cell.excluded, full_precision))
    cell = report.overall[metric]
    cells.append(_format_value(cell.median, cell.excluded, full_precision))
    return cells


def _angle_rows(bins, full_precision: bool):
    for b in bins:
        for metric in METRIC_FIELDS:
            for key in _BOX_KEYS:
                cells = []
                for stem in GROUP_COLUMNS[:-1]:
                    box = b.per_stem[stem][metric]
                    cells.append(_format_value(box.stats[key], box.excluded, full_precision))
                pooled = b.pooled[metric]
                cells.append(_format_value(pooled.stats[key], pooled.excluded, full_precision))
                yield b.label, f"{metric}.{key}", cells


def write_report(
    report: MetricReport,
    fmt: str,
    path,
    full_precision: bool = False,
) -> None:
    """Render the report as CSV or Markdown.

    The CSV has one row per (group, metric) with the header
    ``group,metric,bass,drums,other,vocals,overall``; the ``all`` group holds
    the dataset medians and, if the report carries angle bins, each bin
    contributes min/q1/median/q3/max rows. Markdown mirrors the same layout
    as tables.
    """
    if fmt == "csv":
        text = _render_csv(report, full_precision)
    elif fmt == "markdown":
        text = _render_markdown(report, full_precision)
    else:
        raise ValueError(f"unknown report format {fmt!r}; use 'csv' or 'markdown'")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _render_csv(report: MetricReport, full_precision: bool) -> str:
    out = io.StringIO()
    out.write("# medians of per-track values; SSR/SRR rows are per-track frame medians\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["group", "metric"] + list(GROUP_COLUMNS))
    for metric in METRIC_FIELDS:
        writer.writerow(["all", metric] + _report_cells(report, metric, full_precision))
    if report.by_angle is not None:
        for label, metric, cells in _angle_rows(report.by_angle, full_precision):
            writer.writerow([label, metric] + cells)
    return out.getvalue()


def _render_markdown(report: MetricReport, full_precision: bool) -> str:
    lines = [
        "# Spatial metrics",
        "",
        "Medians of per-track values; 'inf' marks a zero-error (perfect) cell.",
        "",
        "| Metric | Bass | Drums | Other | Vocals | Overall |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    for metric in METRIC_FIELDS:
        cells = _report_cells(report, metric, full_precision)
        lines.append("| " + " | ".join([metric] + cells) + " |")
    if report.by_angle is not None:
        lines += ["", "## By azimuth bin (median across stems)", ""]
        lines.append("| Bin | " + " | ".join(METRIC_FIELDS) + " |")
        lines.append("| --- | --- | --- | --- | --- |")
        for b in report.by_angle:
            cells = [
                _format_value(b.pooled[m].stats["median"], b.pooled[m].excluded, full_precision)
                for m in METRIC_FIELDS
            ]
            lines.append("| " + " | ".join([b.label] + cells) + " |")
    return "\n".join(lines) + "\n"
