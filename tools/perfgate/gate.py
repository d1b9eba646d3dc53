"""The speed gate: perfbench's traced records against a checked-in baseline.

Absolute times scale with the host, so the gate reads only quantities
that do not:

* ``<layer>_ms/rest`` — a traced layer's ms per frame divided by the ms
  of the rest of the traced frame (every other layer plus
  ``pipeline.other_ms``, the time no probe claims). A slower host slows
  every layer alike and leaves each ratio where it was; slower code in
  one layer raises that layer's ratio.
* the per-frame work counts in :data:`COUNTS`, which a seeded episode
  fixes exactly.

A quantity fails when it exceeds :data:`BOUND` times its baseline value.
A layer whose baseline ratio is below :data:`FLOOR` is too small to time
reliably and is not gated; the gate names each one it leaves out. A
uniform slowdown of every layer looks like a slower host, so this gate
cannot see it; only an A/B run of parent and change on one host can.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: The workloads the gate reads, one traced record (or several) each.
WORKLOADS = ("s1-central", "s3-distributed", "s1-faults-ckpt")

#: The per-frame work counts gated besides the layer ratios.
COUNTS = (
    "cameras.project_calls",
    "vision.detections",
    "association.observations_in",
    "scheduler.rounds",
    "camera_node.slices",
    "net.messages",
    "checkpoint.saves",
)

#: A quantity fails above this multiple of its baseline value.
BOUND = 2.0

#: Layer ratios whose baseline is below this are not gated.
FLOOR = 0.006

BASELINE_PATH = Path(__file__).resolve().parent / "baseline.json"
BASELINE_VERSION = 1

RATIO_SUFFIX = "/rest"

#: Metric families that end in ``_ms`` but are not per-frame layer time:
#: per-report times and the paper's modeled latency.
NOT_LAYERS = ("experiments.", "metrics.")

Quantities = Dict[str, float]


def quantities(metrics: Mapping[str, float]) -> Quantities:
    """The layer ratios and work counts of one traced record's metrics."""
    layers = {
        name: value
        for name, value in metrics.items()
        if name.endswith("_ms") and not name.startswith(NOT_LAYERS)
    }
    if "pipeline.other_ms" not in layers:
        raise ValueError("no per-layer metrics: not a --trace 1 record")
    frame = sum(layers.values())
    out = {name + RATIO_SUFFIX: ms / (frame - ms) for name, ms in layers.items()}
    for name in COUNTS:
        out[name] = metrics[name]
    return out


def load_records(paths: Sequence[str]) -> Dict[str, Quantities]:
    """Per workload, the median of each quantity over its records.

    Every workload of :data:`WORKLOADS` needs at least one record, and
    each record must be a traced run that reported no problem.
    """
    found: Dict[str, List[Quantities]] = {}
    for path in paths:
        try:
            record = json.loads(Path(path).read_text())
            workload = record["workload"]
            metrics = record["metrics"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{path}: not a perfbench record ({exc})") from None
        if workload not in WORKLOADS:
            raise ValueError(f"{path}: the gate has no workload {workload!r}")
        if record.get("failed") or record.get("problems"):
            raise ValueError(f"{path}: the run reported problems: {record.get('problems')}")
        try:
            found.setdefault(workload, []).append(quantities(metrics))
        except (ValueError, KeyError) as exc:
            raise ValueError(f"{path}: {exc}") from None
    missing = [w for w in WORKLOADS if w not in found]
    if missing:
        raise ValueError(f"no record of workload(s) {', '.join(missing)}")
    return {
        workload: {
            name: statistics.median(run[name] for run in runs) for name in runs[0]
        }
        for workload, runs in found.items()
    }


def baseline_payload(measured: Mapping[str, Quantities]) -> dict:
    """The baseline document for measured quantities."""
    return {
        "version": BASELINE_VERSION,
        "workloads": {
            workload: {
                name: float(f"{value:.6g}") for name, value in sorted(measured[workload].items())
            }
            for workload in WORKLOADS
        },
    }


def load_baseline(path: Path) -> Dict[str, Quantities]:
    """The per-workload quantities of a baseline file."""
    payload = json.loads(path.read_text())
    if payload.get("version") != BASELINE_VERSION or not isinstance(
        payload.get("workloads"), dict
    ):
        raise ValueError(f"{path}: not a version {BASELINE_VERSION} perfgate baseline")
    return payload["workloads"]


def gated(
    baseline: Mapping[str, Quantities]
) -> Tuple[List[Tuple[str, str]], List[Tuple[str, str]]]:
    """``(gated, below_floor)``: the ``(workload, quantity)`` pairs of each kind.

    Every work count is gated. A layer ratio is gated when its baseline
    is at or above :data:`FLOOR`; a layer that never ran (ratio 0) is in
    neither list.
    """
    keep, drop = [], []
    for workload in WORKLOADS:
        for name, value in sorted(baseline[workload].items()):
            if not name.endswith(RATIO_SUFFIX) or value >= FLOOR:
                keep.append((workload, name))
            elif value > 0:
                drop.append((workload, name))
    return keep, drop


def check(
    measured: Mapping[str, Quantities], baseline: Mapping[str, Quantities]
) -> Tuple[List[str], List[str]]:
    """``(lines, failures)``: one line per gated quantity, one per regression."""
    keep, _ = gated(baseline)
    lines, failures = [], []
    for workload, name in keep:
        base = baseline[workload][name]
        value = measured[workload].get(name)
        if value is None:
            failures.append(f"{workload} {name}: missing from the record")
            continue
        limit = BOUND * base
        ratio = value / base if base else (1.0 if value == 0 else float("inf"))
        lines.append(
            f"{workload:15s} {name:36s} {value:12.6g} {base:12.6g} {ratio:7.2f}x"
        )
        if value > limit:
            failures.append(
                f"{workload} {name}: {value:.6g} vs baseline {base:.6g} "
                f"({ratio:.2f}x > {BOUND:.1f}x)"
            )
    return lines, failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.perfgate",
        description="Gate perfbench's per-layer ratios and work counts "
        f"at {BOUND}x of the checked-in baseline.",
    )
    parser.add_argument(
        "records", nargs="+", metavar="RECORD",
        help="a `perfbench/run.py --trace 1 --out` record",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help=f"rewrite {BASELINE_PATH.name} from the records and exit",
    )
    args = parser.parse_args(argv)
    try:
        measured = load_records(args.records)
        if args.write_baseline:
            payload = baseline_payload(measured)
            BASELINE_PATH.write_text(json.dumps(payload, indent=1) + "\n")
            print(f"perfgate: wrote {BASELINE_PATH}")
            return 0
        baseline = load_baseline(BASELINE_PATH)
    except (OSError, ValueError) as exc:
        print(f"perfgate: {exc}", file=sys.stderr)
        return 2

    lines, failures = check(measured, baseline)
    print(f"{'workload':15s} {'quantity':36s} {'value':>12s} {'baseline':>12s} {'ratio':>8s}")
    print("\n".join(lines))
    _, below = gated(baseline)
    for workload in sorted({w for w, _ in below}):
        names = ", ".join(n for w, n in below if w == workload)
        print(f"not gated, baseline below the {FLOOR} floor: {workload}: {names}")
    for failure in failures:
        print(f"PERF REGRESSION: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"perfgate: OK, {len(lines)} quantities within {BOUND}x of the baseline")
    return 0

