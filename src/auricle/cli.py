"""Command-line entry points: synthesize, evaluate, report."""

import argparse
import ctypes
import os
import sys

from .evaluate import evaluate_tree, read_rows_csv, write_rows_csv
from .hrir import load_hrir_database
from .metrics import MetricConfig
from .report import aggregate_medians, bin_by_angle, write_report
from .scene import synthesize_dataset

__all__ = ["run_cli", "main"]

# glibc mallopt parameters and the size from which a buffer gets its own mapping.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 4 << 20


def _map_large_buffers() -> None:
    """Give every buffer of 4 MiB or more its own mapping, returned to the system when freed.

    By default glibc raises its mmap threshold to the size of each large
    block freed, up to 32 MiB, so signal-sized arrays come to live on the
    heap. Whether a freed one is reused or fresh pages are taken then
    depends on where small objects sit, and the peak memory of identical
    runs differs by whole buffers. A fixed threshold keeps the peak at the
    buffers that are alive. Frame-sized arrays stay on the heap, which keeps
    at most twice the threshold free at its top. Other C libraries are left
    as they are.
    """
    try:
        name = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError):  # no confstr, or a C library that does not know the name
        return
    if not name.startswith("glibc"):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD)


# Set on import, not in run_cli: a process that loads the program to run it
# may read audio before its first command, and the heap it builds then counts.
_map_large_buffers()


# evaluate flag, the MetricConfig field it sets, flag units per field unit, help
_METRIC_FLAGS = (
    ("--itd-frame", "itd_frame_len", 1.0, "ITD frame length in s (hop equals it)"),
    ("--itd-threshold", "silence_threshold", 1.0, "silent-frame RMS threshold"),
    ("--max-lag-ms", "max_lag", 1000.0, "GCC-PHAT lag search range in ms"),
    ("--ssr-window", "ssr_window", 1.0, "SSR/SRR frame length in s"),
    ("--ssr-hop", "ssr_hop", 1.0, "SSR/SRR hop in s"),
    ("--proj-max-delay-ms", "proj_max_delay", 1000.0, "projection delay search range in ms"),
    ("--tukey-alpha", "tukey_alpha", 1.0, "Tukey taper for ITD frames"),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="auricle",
        description="Binaural scene synthesis and spatial-fidelity evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    syn = sub.add_parser("synthesize", help="binauralize a stem dataset tree")
    syn.add_argument("--musdb", required=True, help="stem tree; every directory holding the four stems is a song")
    syn.add_argument("--hrir", required=True, help="HRIR directory of azi_<deg>_ele_0.wav files")
    syn.add_argument("--out", required=True, help="output root outside --musdb; mirrors the input layout")
    syn.add_argument("--seed", required=True, type=int, help="master seed for source placement")
    syn.add_argument("--encoding", choices=["float32", "pcm16"], default="float32")

    ev = sub.add_parser("evaluate", help="compute spatial metrics for estimated stems")
    ev.add_argument("--reference", required=True, help="reference tree (with layout.json when synthesized)")
    ev.add_argument("--estimates", required=True, help="estimate tree mirroring the reference layout")
    ev.add_argument("--out", required=True, help="per-(track, stem) metrics CSV to write")
    ev.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    defaults = MetricConfig()
    for flag, field, scale, text in _METRIC_FLAGS:
        ev.add_argument(flag, type=float, default=getattr(defaults, field) * scale, help=text)

    rep = sub.add_parser("report", help="aggregate a metrics CSV into tables")
    rep.add_argument("--in", dest="input", required=True, help="metrics CSV from 'evaluate'")
    rep.add_argument("--out", required=True, help="rendered report path")
    rep.add_argument("--format", choices=["csv", "markdown"], default="csv")
    rep.add_argument("--by-angle", action="store_true", help="add per-azimuth-bin boxplot rows")
    rep.add_argument("--full-precision", action="store_true", help="full floats instead of 2 decimals")
    return parser


def run_cli(argv) -> int:
    """Run one subcommand; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "synthesize":
            db = load_hrir_database(args.hrir)
            manifests = synthesize_dataset(args.musdb, db, args.out, args.seed, encoding=args.encoding)
            print(f"synthesized {len(manifests)} tracks into {args.out}")
        elif args.command == "evaluate":
            cfg = MetricConfig(**{
                field: getattr(args, flag[2:].replace("-", "_")) / scale
                for flag, field, scale, _ in _METRIC_FLAGS
            })
            rows = evaluate_tree(args.reference, args.estimates, cfg, jobs=args.jobs)
            write_rows_csv(rows, args.out)
            print(f"wrote {len(rows)} rows to {args.out}")
        elif args.command == "report":
            rows = read_rows_csv(args.input)
            report = aggregate_medians(rows)
            if args.by_angle:
                report.by_angle = bin_by_angle(rows)
            write_report(report, args.format, args.out, full_precision=args.full_precision)
            print(f"wrote {args.format} report to {args.out}")
    except Exception as exc:  # surface a diagnostic, never a traceback-free silent failure
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
