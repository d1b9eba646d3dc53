"""Benchmark command: host frame latency and throughput of the pipeline.

Run from the root of a checkout::

    python3 perfbench/run.py --workload s1-central --seed 0 --seconds 10
    python3 perfbench/run.py --workload s1-central --seed 0 --trace 1
    python3 perfbench/run.py                 # every workload, one process each

One workload runs in this process on one thread. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
untraced, the per-layer metrics with ``--trace 1``. The lines before it
give each metric with its unit, and the provenance of the run (source
digest, git revision, nproc, Python and numpy versions, seed). The exit
status is 1 when the outputs are wrong. See perfbench/README.md.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread, set before numpy is first imported: the benchmark
# measures one thread, and threaded BLAS would also change the
# float summation order the reference digests depend on.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = HERE / ".work"
WORKLOAD_NAMES = ("s1-central", "s3-distributed", "s1-faults-ckpt", "report-quick")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record here (JSON)")
    parser.add_argument(
        "--write-reference", action="store_true",
        help="recompute the reference digests of --workload (or all) and exit",
    )
    return parser.parse_args(argv)


def _git_rev():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_sha256():
    """Digest of every source file, for checkouts without git metadata."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _provenance(args):
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": _git_rev(),
        "src_sha256": _src_sha256(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _run_one(args):
    from perfbench import bench, reference

    import_s = time.perf_counter() - _START
    record = bench.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        str(WORK_ROOT), import_s=import_s,
    )
    expected = reference.expected(args.workload, args.seed)
    if expected is not None and record["digest"] != expected:
        record["problems"].append(
            f"digest {record['digest']} != reference {expected}"
        )
    record["reference_digest"] = expected
    record["held_out_seed"] = reference.HELD_OUT_SEED
    correct = not record["problems"] and record["failed"] == 0
    units = (
        bench.per_layer_units() if args.trace
        else {name: unit for name, unit, _ in bench.END_TO_END}
    )
    better = {name: b for name, _, b in bench.END_TO_END}
    record["provenance"] = _provenance(args)

    for problem in record["problems"]:
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    for name, value in record["metrics"].items():
        note = f"  ({better[name]} is better)" if name in better else ""
        print(f"{args.workload:15s} {name:32s} {value:14.6g} {units[name]}{note}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in record["metrics"].items()
        },
    }))
    return 0 if correct else 1


def _run_each(args):
    """Run every workload in a child process of its own, one at a time."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or proc.returncode
        results[name] = json.loads(lines[-1]) if lines else None
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    print(json.dumps(results))
    return status


def main(argv=None):
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro package under {ROOT}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.write_reference:
        from perfbench import reference

        names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        WORK_ROOT.mkdir(exist_ok=True)
        reference.write(names, work_root=str(WORK_ROOT))
        return 0
    if args.workload == "all":
        return _run_each(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
