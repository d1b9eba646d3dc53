"""Command-line interface.

Usage::

    python -m repro.cli run --scenario S1 --policy balb --horizons 30
    python -m repro.cli compare --scenario S2
    python -m repro.cli report --sections FIG13 --out report.txt
    python -m repro.cli scenarios

Every subcommand prints plain-text tables; ``report`` can also write the
combined report to a file.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.experiments.report import format_table
from repro.faults import CHAOS_PRESETS, validate_fault_spec
from repro.obs import (
    format_metrics_table,
    format_span_summary,
    read_spans_jsonl,
    write_spans_jsonl,
)
from repro.runtime.ingest import INGEST_POLICIES
from repro.runtime.metrics import speedup_vs
from repro.runtime.pipeline import (
    POLICIES,
    PipelineConfig,
    run_policy,
    train_models,
)
from repro.runtime.trajectory import share_worlds
from repro.scenarios.aic21 import ALL_SCENARIOS, get_scenario


def _output_path(path: str) -> str:
    """``type=`` of an option naming a file the command writes.

    The file's directory must exist. Checking it when the arguments are
    parsed refuses a bad path before the training and simulation that
    precede the write.
    """
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise argparse.ArgumentTypeError(f"directory {directory!r} does not exist")
    return path


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", default="S1", help="S1, S2 or S3")
    parser.add_argument("--horizon", type=int, default=10,
                        help="frames per scheduling horizon (T)")
    parser.add_argument("--horizons", type=int, default=30,
                        help="number of horizons to simulate")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--train-duration", type=float, default=120.0,
                        help="association training segment (seconds)")
    parser.add_argument("--occlusion", action="store_true",
                        help="enable inter-object occlusion")
    parser.add_argument("--redundancy", type=int, default=1,
                        help="cameras per object (Section V extension)")
    parser.add_argument("--gpu-jitter", type=float, default=0.02,
                        help="GPU latency noise as a std fraction, >= 0 "
                             "(0 disables jitter)")
    parser.add_argument("--faults", default=None, metavar="SPEC",
                        help="fault spec, e.g. 'crash:cam=1,at=12,for=10;"
                             "loss:p=0.1' (see repro.faults.spec)")
    parser.add_argument("--chaos", default=None,
                        choices=sorted(CHAOS_PRESETS),
                        help="named chaos preset of stochastic faults, "
                             "compiled deterministically from --seed")
    parser.add_argument("--ingest-capacity", type=int, default=4,
                        help="per-camera ingest queue capacity (only "
                             "observable under ingest_burst faults)")
    parser.add_argument("--ingest-policy", default="drop-oldest",
                        choices=INGEST_POLICIES,
                        help="backpressure policy when a burst overflows "
                             "the ingest queue")
    parser.add_argument("--serve-subscribers", type=int, default=0,
                        help="simulated live-state subscribers on the "
                             "serving edge (0 disables it)")
    parser.add_argument("--serve-every", type=int, default=1,
                        help="snapshot publication cadence in frames "
                             "(bounds subscriber staleness)")


def _faults_from(args: argparse.Namespace) -> Optional[str]:
    """Resolve --faults / --chaos into one spec string (or None)."""
    spec = getattr(args, "faults", None)
    chaos = getattr(args, "chaos", None)
    if spec and chaos:
        raise SystemExit("error: --faults and --chaos are mutually exclusive")
    if spec:
        try:
            validate_fault_spec(spec)
        except ValueError as exc:
            raise SystemExit(f"error: bad --faults spec: {exc}") from exc
        return spec
    return chaos


def _config_from(
    args: argparse.Namespace, policy: str, trace: bool = False
) -> PipelineConfig:
    faults = _faults_from(args)
    try:
        return PipelineConfig(
            policy=policy,
            horizon=args.horizon,
            n_horizons=args.horizons,
            warmup_s=30.0,
            train_duration_s=args.train_duration,
            seed=args.seed,
            occlusion=args.occlusion,
            redundancy=args.redundancy,
            gpu_jitter=getattr(args, "gpu_jitter", 0.02),
            trace=trace,
            faults=faults,
            checkpoint_path=getattr(args, "checkpoint", None),
            checkpoint_every=getattr(args, "checkpoint_every", 0) or 0,
            stop_after_frames=getattr(args, "stop_after", None),
            ingest_capacity=getattr(args, "ingest_capacity", 4),
            ingest_policy=getattr(args, "ingest_policy", "drop-oldest"),
            serve_subscribers=getattr(args, "serve_subscribers", 0),
            serve_every=getattr(args, "serve_every", 1),
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from exc


def _serving_summary_table(result) -> str:
    """The serving-edge table printed when --serve-subscribers is set."""
    def metric(name: str, kind: str = "counter") -> int:
        return int(sum(
            m["value"] for m in result.metrics
            if m["kind"] == kind and m["name"] == name
        ))

    requests = metric("serving_requests_total")
    hits = metric("serving_cache_hits_total")
    rows = [
        ("snapshots published", metric("serving_snapshots_total")),
        ("subscriber requests", requests),
        ("cache hits", hits),
        ("cache misses", metric("serving_cache_misses_total")),
        ("hit rate", round(hits / requests, 4) if requests else 0.0),
        ("max staleness frames",
         metric("serving_staleness_frames", "gauge")),
    ]
    return format_table(["metric", "value"], rows, title="serving summary")


def _fault_summary_table(result, title: str = "fault summary") -> str:
    """The fault-summary table shared by ``run`` and ``compare``."""
    def counter_sum(name: str) -> int:
        return int(sum(
            m["value"] for m in result.metrics
            if m["kind"] == "counter" and m["name"] == name
        ))

    rows = [
        ("coverage loss", round(result.coverage_loss(), 4)),
        ("recall (lost counted as missed)",
         round(result.object_recall(count_lost_as_missed=True), 4)),
        ("fault events", counter_sum("fault_events_total")),
        ("forced key frames", counter_sum("forced_key_frames_total")),
        ("assignment fallbacks", counter_sum("assignment_fallbacks_total")),
        ("messages dropped", counter_sum("messages_dropped_total")),
    ]
    if counter_sum("ingest_offered_total"):
        rows += [
            ("ingest frames offered", counter_sum("ingest_offered_total")),
            ("ingest frames served", counter_sum("ingest_served_total")),
            ("ingest frames dropped", counter_sum("ingest_dropped_total")),
            ("ingest frames coalesced",
             counter_sum("ingest_coalesced_total")),
            ("ingest stalls", counter_sum("ingest_stalled_frames_total")),
            ("ingest degraded key frames",
             counter_sum("ingest_degraded_frames_total")),
        ]
    wire_dropped = (
        counter_sum("wire_corrupt_dropped_total")
        + counter_sum("wire_duplicates_dropped_total")
        + counter_sum("wire_reordered_total")
    )
    if counter_sum("link_giveups_total") or wire_dropped:
        rows += [
            ("link give-ups", counter_sum("link_giveups_total")),
            ("messages corrupted",
             counter_sum("messages_corrupted_total")),
            ("wire corrupt dropped",
             counter_sum("wire_corrupt_dropped_total")),
            ("wire duplicates dropped",
             counter_sum("wire_duplicates_dropped_total")),
            ("wire reordered held",
             counter_sum("wire_reordered_total")),
        ]
    if counter_sum("failover_split_takeovers_total"):
        rows += [
            ("split takeovers",
             counter_sum("failover_split_takeovers_total")),
            ("partition reunites",
             counter_sum("failover_reunites_total")),
            ("stale epochs fenced",
             counter_sum("failover_fenced_total")),
        ]
    if counter_sum("health_suspects_total") or counter_sum(
        "health_quarantines_total"
    ):
        rows += [
            ("health suspects", counter_sum("health_suspects_total")),
            ("cameras quarantined",
             counter_sum("health_quarantines_total")),
            ("probation admissions",
             counter_sum("health_probations_total")),
            ("cameras readmitted",
             counter_sum("health_readmissions_total")),
            ("membership re-fits",
             counter_sum("membership_refits_total")),
            ("frozen sensor frames",
             counter_sum("sensor_frozen_frames_total")),
        ]
    if counter_sum("scheduler_down_frames_total"):
        recovery = next(
            (m for m in result.metrics
             if m["kind"] == "histogram"
             and m["name"] == "failover_recovery_ms"),
            None,
        )
        rows += [
            ("scheduler down frames",
             counter_sum("scheduler_down_frames_total")),
            ("skipped key frames", counter_sum("skipped_key_frames_total")),
            ("failover takeovers", counter_sum("failover_takeovers_total")),
            ("failover handbacks", counter_sum("failover_handbacks_total")),
            ("checkpoint replications",
             counter_sum("failover_replications_total")),
            ("mean recovery ms",
             0.0 if recovery is None else round(recovery["mean"], 1)),
        ]
    return format_table(["metric", "value"], rows, title=title)


def cmd_run(args: argparse.Namespace) -> int:
    """Run one policy on one scenario and print its metrics."""
    if args.resume:
        if args.faults or args.chaos or args.trace or args.checkpoint:
            raise SystemExit(
                "error: --resume restores the checkpointed run; it cannot "
                "be combined with --faults/--chaos/--trace/--checkpoint"
            )
        from repro.checkpoint import CheckpointError, load_checkpoint

        try:
            checkpoint = load_checkpoint(args.resume)
        except CheckpointError as exc:
            raise SystemExit(f"error: {exc}") from exc
        scenario = checkpoint.scenario
        config = checkpoint.config
        trained = checkpoint.trained
        print(f"Scenario {scenario.name}: {scenario.description}")
        result = checkpoint.resume()
    else:
        if (args.checkpoint_every or args.stop_after) and not args.checkpoint:
            raise SystemExit(
                "error: --checkpoint-every/--stop-after require --checkpoint"
            )
        scenario = get_scenario(args.scenario, seed=args.seed)
        config = _config_from(args, args.policy, trace=bool(args.trace))
        print(f"Scenario {scenario.name}: {scenario.description}")
        trained = train_models(scenario, config)
        result = run_policy(scenario, args.policy, config, trained)
        total = config.horizon * config.n_horizons
        if config.stop_after_frames is not None and result.n_frames < total:
            print(
                f"interrupted after {result.n_frames}/{total} frames; "
                f"checkpoint written to {config.checkpoint_path}"
            )
            print(f"resume with: repro run --resume {config.checkpoint_path}")
            return 0
    print(
        format_table(
            ["policy", "recall", "slowest-cam ms"],
            [(result.policy, result.object_recall(),
              round(result.mean_slowest_latency(), 1))],
        )
    )
    if config.faults is not None:
        print(_fault_summary_table(result))
    if config.serve_subscribers:
        print(_serving_summary_table(result))
    per_cam = result.per_camera_mean_latency()
    print(
        format_table(
            ["camera", "device", "mean inference ms"],
            [
                (cam, trained.profiles[cam].device_name, round(ms, 1))
                for cam, ms in sorted(per_cam.items())
            ],
            title="per-camera latency",
        )
    )
    if args.trace:
        write_spans_jsonl(result.spans, args.trace)
        print(f"\nwrote {len(result.spans)} spans to {args.trace}")
        print(format_span_summary(result.spans, title="measured spans"))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Summarize a trace: from a JSONL file, or from a fresh traced run."""
    if args.input:
        try:
            spans = read_spans_jsonl(args.input)
        except FileNotFoundError:
            print(f"error: no such trace file: {args.input}", file=sys.stderr)
            return 1
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(format_span_summary(spans, title=f"trace {args.input}"))
        return 0

    scenario = get_scenario(args.scenario, seed=args.seed)
    config = _config_from(args, args.policy, trace=True)
    print(f"Scenario {scenario.name}: {scenario.description}")
    trained = train_models(scenario, config)
    result = run_policy(scenario, args.policy, config, trained)
    if args.out:
        write_spans_jsonl(result.spans, args.out)
        print(f"wrote {len(result.spans)} spans to {args.out}")
    print(
        format_span_summary(
            result.spans,
            title=f"measured spans ({result.policy} on {scenario.name})",
        )
    )
    measured = result.measured_stage_breakdown()
    modeled = result.overhead_breakdown()
    print(
        format_table(
            ["stage", "measured wall ms/frame", "modeled ms/frame"],
            [
                (
                    stage,
                    round(measured.get(stage, 0.0), 3),
                    round(
                        modeled.get(
                            "total" if stage == "frame" else stage, 0.0
                        ),
                        3,
                    ),
                )
                for stage in ("central", "distributed", "frame")
            ],
            title="measured vs modeled per-frame breakdown",
        )
    )
    print(format_metrics_table(result.metrics, title="run metrics"))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Run several policies with shared trained models and compare."""
    scenario = get_scenario(args.scenario, seed=args.seed)
    config = _config_from(args, "balb")
    print(f"Scenario {scenario.name}: {scenario.description}")
    print("Training shared models...")
    trained = train_models(scenario, config)
    runs = {}
    # Every policy runs over the same world: step and project it once.
    with share_worlds():
        for policy in args.policies:
            runs[policy] = run_policy(scenario, policy, config, trained)
    baseline = runs.get("full") or next(iter(runs.values()))
    print(
        format_table(
            ["policy", "recall", "slowest-cam ms", "speedup"],
            [
                (
                    policy,
                    result.object_recall(),
                    round(result.mean_slowest_latency(), 1),
                    round(speedup_vs(baseline, result), 2),
                )
                for policy, result in runs.items()
            ],
            title="policy comparison",
        )
    )
    if config.faults is not None:
        for policy, result in runs.items():
            print(
                _fault_summary_table(
                    result, title=f"fault summary ({policy})"
                )
            )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Regenerate the report (all sections, or a named subset)."""
    # Imported lazily: pulls in every harness.
    from repro.experiments.parallel import FULL_PROFILE, QUICK_PROFILE, SECTION_ORDER
    from repro.experiments.runner import run_all

    sections = [s.upper() for s in args.sections] if args.sections else None
    unknown = [s for s in sections or () if s not in SECTION_ORDER]
    if unknown:
        print(f"error: unknown report sections: {unknown}; options: "
              f"{', '.join(SECTION_ORDER)}", file=sys.stderr)
        return 2
    profile = QUICK_PROFILE if args.quick else FULL_PROFILE
    try:
        report = run_all(
            seed=args.seed,
            out_path=args.out,
            workers=args.workers,
            cache=args.cache_dir,
            profile=profile,
            sections=sections,
            timings=not args.no_timings,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report)
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or clear the content-addressed artifact cache."""
    from repro.cache import ArtifactCache, default_cache_root

    root = args.dir or default_cache_root()
    cache = ArtifactCache(root)
    if args.action == "stats":
        stats = cache.stats()
        print(
            format_table(
                ["field", "value"],
                [
                    ("root", stats.root),
                    ("entries", stats.entries),
                    ("total bytes", stats.total_bytes),
                ],
                title="artifact cache",
            )
        )
        return 0
    removed = cache.clear()
    print(f"removed {removed} cache entries from {root}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the repo's determinism & invariant linter (``reprolint``).

    The linter lives in ``tools/reprolint`` at the repository root (it
    is developer tooling, not part of the installed package), so this
    subcommand only works from a source checkout.
    """
    import os

    try:
        from tools.reprolint.cli import main as reprolint_main
    except ImportError:
        # Not importable: either we're not at the repo root, or the
        # package was installed without its source tree.
        if os.path.isfile(os.path.join("tools", "reprolint", "cli.py")):
            sys.path.insert(0, os.getcwd())
            from tools.reprolint.cli import main as reprolint_main
        else:
            print(
                "error: reprolint not found — 'repro lint' runs the "
                "repo-local checker in tools/reprolint and must be "
                "invoked from a source checkout root",
                file=sys.stderr,
            )
            return 2
    argv = list(args.paths)
    if args.json:
        argv.insert(0, "--json")
    if args.list_rules:
        argv.insert(0, "--list-rules")
    return reprolint_main(argv)


def cmd_flow(args: argparse.Namespace) -> int:
    """Run the whole-program analyzer (``reproflow``).

    Like ``repro lint``, the analyzer lives in ``tools/reproflow`` at
    the repository root and only works from a source checkout.
    """
    import os

    try:
        from tools.reproflow.cli import main as reproflow_main
    except ImportError:
        if os.path.isfile(os.path.join("tools", "reproflow", "cli.py")):
            sys.path.insert(0, os.getcwd())
            from tools.reproflow.cli import main as reproflow_main
        else:
            print(
                "error: reproflow not found — 'repro flow' runs the "
                "repo-local whole-program analyzer in tools/reproflow "
                "and must be invoked from a source checkout root",
                file=sys.stderr,
            )
            return 2
    argv = list(args.paths)
    if args.json:
        argv.insert(0, "--json")
    if args.list_rules:
        argv.insert(0, "--list-rules")
    if args.no_baseline:
        argv.insert(0, "--no-baseline")
    if args.write_baseline:
        argv.insert(0, "--write-baseline")
    return reproflow_main(argv)


def cmd_soak(args: argparse.Namespace) -> int:
    """Run the chaos-soak invariant harness (see ``repro.experiments.soak``).

    Exit code 1 when any episode violates a control-plane invariant;
    the report then includes the shrunk, replayable fault schedule.
    """
    # Imported lazily: pulls in the full pipeline.
    from repro.experiments.soak import format_soak_report, run_soak

    try:
        result = run_soak(
            episodes=args.episodes,
            seed=args.seed,
            fencing=not args.no_fencing,
            preset=args.preset,
            scenario_name=args.scenario,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from exc
    report = format_soak_report(result)
    print(report, end="")
    if args.out:
        with open(args.out, "w") as f:
            f.write(report)
    return 0 if result.ok else 1


def cmd_scenarios(args: argparse.Namespace) -> int:
    """List the available scenario deployments."""
    rows = []
    for name, factory in sorted(ALL_SCENARIOS.items()):
        scenario = factory()
        devices = ", ".join(d.name.replace("jetson-", "") for d in scenario.devices)
        rows.append((name, len(scenario.cameras), devices,
                     scenario.description))
    print(
        format_table(
            ["name", "cameras", "devices", "description"],
            rows,
            title="available scenarios",
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multi-view scheduling reproduction (ICDCS 2022)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one policy on one scenario")
    _add_run_options(run_parser)
    run_parser.add_argument("--policy", default="balb", choices=POLICIES)
    run_parser.add_argument(
        "--trace", default=None, metavar="PATH", type=_output_path,
        help="collect a span trace and write it to PATH as JSON lines",
    )
    run_parser.add_argument(
        "--checkpoint", default=None, metavar="PATH", type=_output_path,
        help="write a crash-consistent checkpoint of the run state to PATH",
    )
    run_parser.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="K",
        help="checkpoint every K frames (requires --checkpoint)",
    )
    run_parser.add_argument(
        "--stop-after", type=int, default=None, metavar="N",
        help="simulate an interruption: checkpoint and stop after N "
             "frames (requires --checkpoint); a later --resume run is "
             "bit-identical to the uninterrupted one",
    )
    run_parser.add_argument(
        "--resume", default=None, metavar="PATH",
        help="resume a checkpointed run to completion; every other "
             "option is restored from the checkpoint",
    )
    run_parser.set_defaults(func=cmd_run)

    trace_parser = sub.add_parser(
        "trace", help="run one traced scenario (or summarize a JSONL trace)"
    )
    _add_run_options(trace_parser)
    trace_parser.add_argument("--policy", default="balb", choices=POLICIES)
    trace_parser.add_argument(
        "--input", default=None, metavar="PATH",
        help="summarize an existing JSONL trace instead of running",
    )
    trace_parser.add_argument(
        "--out", default=None, metavar="PATH", type=_output_path,
        help="also write the collected trace to PATH as JSON lines",
    )
    trace_parser.set_defaults(func=cmd_trace)

    compare_parser = sub.add_parser(
        "compare", help="run several policies with shared models"
    )
    _add_run_options(compare_parser)
    compare_parser.add_argument(
        "--policies", nargs="+", default=list(POLICIES),
        choices=POLICIES,
    )
    compare_parser.set_defaults(func=cmd_compare)

    report_parser = sub.add_parser(
        "report",
        help="regenerate the paper's figures/tables (parallel, cached)",
    )
    report_parser.add_argument("--seed", type=int, default=0)
    report_parser.add_argument(
        "--out", default=None, type=_output_path, help="also write to file"
    )
    report_parser.add_argument(
        "--workers", type=int, default=1,
        help="process-pool size; 1 = run inline (byte-identical either way)",
    )
    report_parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="artifact-cache root (default: REPRO_CACHE_DIR or "
             "~/.cache/repro when workers > 1)",
    )
    report_parser.add_argument(
        "--quick", action="store_true",
        help="small smoke profile instead of the full paper sweeps",
    )
    report_parser.add_argument(
        "--sections", nargs="+", default=None, metavar="NAME",
        help="subset of report sections (FIG2 ... INGEST)",
    )
    report_parser.add_argument(
        "--no-timings", action="store_true",
        help="omit wall-clock figures (deterministic report bytes)",
    )
    report_parser.set_defaults(func=cmd_report)

    cache_parser = sub.add_parser(
        "cache", help="inspect or clear the artifact cache"
    )
    cache_parser.add_argument("action", choices=("stats", "clear"))
    cache_parser.add_argument(
        "--dir", default=None, metavar="DIR",
        help="cache root (default: REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    cache_parser.set_defaults(func=cmd_cache)

    soak_parser = sub.add_parser(
        "soak",
        help="chaos-soak the control plane under the invariant monitor",
    )
    soak_parser.add_argument(
        "--episodes", type=int, default=20,
        help="seeded chaos episodes to run (default 20)",
    )
    soak_parser.add_argument("--seed", type=int, default=0)
    soak_parser.add_argument(
        "--preset", default="wire", choices=sorted(CHAOS_PRESETS),
        help="chaos preset each episode compiles its faults from",
    )
    soak_parser.add_argument("--scenario", default="S1", help="S1, S2 or S3")
    soak_parser.add_argument(
        "--no-fencing", action="store_true",
        help="run the legacy, fencing-off protocol (demonstrates the "
             "split-brain violation and the shrunk repro schedule)",
    )
    soak_parser.add_argument(
        "--out", default=None, metavar="PATH", type=_output_path,
        help="also write the soak report to PATH (byte-deterministic "
             "for a given seed; CI diffs two runs)",
    )
    soak_parser.set_defaults(func=cmd_soak)

    scen_parser = sub.add_parser("scenarios", help="list scenarios")
    scen_parser.set_defaults(func=cmd_scenarios)

    lint_parser = sub.add_parser(
        "lint",
        help="run the determinism & invariant linter (reprolint)",
    )
    lint_parser.add_argument(
        "paths", nargs="*", default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    lint_parser.add_argument(
        "--json", action="store_true",
        help="emit findings as a single JSON document",
    )
    lint_parser.add_argument(
        "--list-rules", action="store_true",
        help="print the RL rule catalog and exit",
    )
    lint_parser.set_defaults(func=cmd_lint)

    flow_parser = sub.add_parser(
        "flow",
        help="run the whole-program analyzer (reproflow)",
    )
    flow_parser.add_argument(
        "paths", nargs="*", default=["src", "tools"],
        help="files or directories to analyze (default: src tools)",
    )
    flow_parser.add_argument(
        "--json", action="store_true",
        help="emit findings as a single JSON document",
    )
    flow_parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the checked-in baseline",
    )
    flow_parser.add_argument(
        "--write-baseline", action="store_true",
        help="rewrite the baseline to the current findings",
    )
    flow_parser.add_argument(
        "--list-rules", action="store_true",
        help="print the RF rule catalog and exit",
    )
    flow_parser.set_defaults(func=cmd_flow)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
