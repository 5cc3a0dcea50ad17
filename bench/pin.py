"""Regenerate pinned_eval.json: the evaluate CSVs and report the eval workloads must reproduce.

Run from the repository root, only when the metric values are meant to
change: ``python3 bench/pin.py``. For every input set it renders
the reference and the three separator trees, scores each with
``auricle evaluate --jobs 1`` and renders ``auricle report`` for system 1.
"""

import contextlib
import io
import json
import shutil
import sys

from run import OUT, PINNED, PINNED_SETS, eval_inputs  # run.py puts src/ on sys.path

from auricle.cli import run_cli  # noqa: E402


def pin_set(input_set: int) -> dict:
    work = OUT / f"pin-{input_set}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        reference, systems = eval_inputs(work, input_set, [0, 1, 2])
        texts = {}
        for k, est in systems.items():
            rows = work / f"system{k}.csv"
            with contextlib.redirect_stdout(io.StringIO()):
                if run_cli(["evaluate", "--reference", str(reference), "--estimates", str(est), "--out", str(rows)]):
                    raise RuntimeError(f"evaluate failed for input set {input_set}, system {k}")
            texts[rows.name] = rows.read_text()
        report = work / "report.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            if run_cli(["report", "--in", str(work / "system1.csv"), "--out", str(report)]):
                raise RuntimeError(f"report failed for input set {input_set}")
        texts[report.name] = report.read_text()
        return texts
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    OUT.mkdir(exist_ok=True)
    sets = [pin_set(k) for k in range(PINNED_SETS)]
    PINNED.write_text(json.dumps({"sets": sets}, indent=1) + "\n")
    print(f"pinned {len(sets)} input sets to {PINNED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
