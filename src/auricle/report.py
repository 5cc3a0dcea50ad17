"""Median aggregation and table rendering for metric rows.

Aggregation is median-of-per-track-values: each (track, stem) row contributes
one value per metric (per-track SSR/SRR are already frame medians), undefined
values are excluded with their count reported, and positive infinity sorts
above every finite value. Angle binning partitions [-90, 90] into six
30-degree bins and emits boxplot statistics as data. Every cell, dataset
median or bin quartile, comes from one five-number summary (``_box``).
"""

import csv
import io
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .evaluate import METRIC_FIELDS, MetricRow
from .metrics import MetricValue
from .scene import STEM_NAMES

__all__ = [
    "BoxStat",
    "AngleBin",
    "MetricReport",
    "ANGLE_BIN_EDGES",
    "aggregate_medians",
    "bin_by_angle",
    "write_report",
]

ANGLE_BIN_EDGES = (-90, -60, -30, 0, 30, 60, 90)
GROUP_COLUMNS = (*sorted(STEM_NAMES), "overall")
_BOX_KEYS = {"min": 0, "q1": 25, "median": 50, "q3": 75, "max": 100}  # key -> percentile


@dataclass
class BoxStat:
    """Five-number summary of one metric over a group of rows."""

    stats: dict  # min/q1/median/q3/max -> MetricValue
    count: int
    excluded: int

    @property
    def median(self) -> MetricValue:
        return self.stats["median"]


@dataclass
class AngleBin:
    label: str
    per_stem: dict  # stem -> metric -> BoxStat
    pooled: dict  # metric -> BoxStat


@dataclass
class MetricReport:
    by_instrument: dict  # stem -> metric -> BoxStat
    overall: dict  # metric -> BoxStat
    by_angle: list | None = None


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


def _box(values) -> BoxStat:
    floats = [x for x in (v.as_float() for v in values) if not math.isnan(x)]
    excluded = len(values) - len(floats)
    if not floats:
        return BoxStat({k: MetricValue.undefined() for k in _BOX_KEYS}, 0, excluded)
    arr = np.sort(np.asarray(floats))
    stats = {k: MetricValue.from_float(_percentile(arr, q)) for k, q in _BOX_KEYS.items()}
    return BoxStat(stats, len(floats), excluded)


def _group(rows) -> tuple[dict, dict]:
    """Box statistics of each metric per stem and pooled over all stems."""
    per_stem = {
        stem: {m: _box([r.metric(m) for r in rows if r.stem == stem]) for m in METRIC_FIELDS}
        for stem in STEM_NAMES
    }
    pooled = {m: _box([r.metric(m) for r in rows]) for m in METRIC_FIELDS}
    return per_stem, pooled


def aggregate_medians(rows) -> MetricReport:
    """Per-instrument and pooled-overall medians for each metric."""
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to aggregate")
    return MetricReport(*_group(rows))


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
        bins.append(AngleBin(label, *_group(members)))
    return bins


def _format_cell(box: BoxStat, key: str, full_precision: bool) -> str:
    value = box.stats[key]
    if value.is_undefined:
        return f"n/a ({box.excluded} excluded)"
    if value.is_infinite:
        text = "inf"
    elif full_precision:
        text = repr(value.value)
    else:
        text = f"{value.value:.2f}"
    if box.excluded:
        text += f" ({box.excluded} excluded)"
    return text


def _cells(per_stem: dict, pooled: dict, metric: str, key: str, full_precision: bool) -> list[str]:
    boxes = [per_stem[stem][metric] for stem in GROUP_COLUMNS[:-1]] + [pooled[metric]]
    return [_format_cell(box, key, full_precision) for box in boxes]


def _md_rows(*rows) -> list[str]:
    return ["| " + " | ".join(cells) + " |" for cells in rows]


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
        cells = _cells(report.by_instrument, report.overall, metric, "median", full_precision)
        writer.writerow(["all", metric] + cells)
    for b in report.by_angle or ():
        for metric in METRIC_FIELDS:
            for key in _BOX_KEYS:
                cells = _cells(b.per_stem, b.pooled, metric, key, full_precision)
                writer.writerow([b.label, f"{metric}.{key}"] + cells)
    return out.getvalue()


def _render_markdown(report: MetricReport, full_precision: bool) -> str:
    header = ["Metric", *(group.capitalize() for group in GROUP_COLUMNS)]
    lines = [
        "# Spatial metrics",
        "",
        "Medians of per-track values; 'inf' marks a zero-error (perfect) cell.",
        "",
        *_md_rows(header, ["---"] * len(header)),
    ]
    for metric in METRIC_FIELDS:
        cells = _cells(report.by_instrument, report.overall, metric, "median", full_precision)
        lines += _md_rows([metric] + cells)
    if report.by_angle is not None:
        header = ["Bin", *METRIC_FIELDS]
        lines += ["", "## By azimuth bin (median across stems)", "", *_md_rows(header, ["---"] * len(header))]
        for b in report.by_angle:
            cells = [_format_cell(b.pooled[m], "median", full_precision) for m in METRIC_FIELDS]
            lines += _md_rows([b.label] + cells)
    return "\n".join(lines) + "\n"
