"""Tests for the command-line interface."""

import os
import re

import pytest

from repro.cli import build_parser, main
from repro.experiments import runner
from repro.experiments.parallel import SECTION_ORDER, ReportSections


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.scenario == "S1"
        assert args.policy == "balb"
        assert args.redundancy == 1

    def test_compare_policies(self):
        args = build_parser().parse_args(
            ["compare", "--policies", "full", "balb"]
        )
        assert args.policies == ["full", "balb"]

    def test_invalid_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--policy", "magic"])

    def test_report_sections_options(self):
        args = build_parser().parse_args(
            ["report", "--sections", "FIG13", "TAB2", "--out", "x.txt"]
        )
        assert args.sections == ["FIG13", "TAB2"]
        assert args.out == "x.txt"

    def test_experiments_is_not_a_subcommand(self, capsys):
        """``report --sections NAME`` is the one way to run one section."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["experiments", "--only", "FIG13"])
        assert exc.value.code == 2
        assert "invalid choice: 'experiments'" in capsys.readouterr().err

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_scenarios_command(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "S1" in out and "S2" in out and "S3" in out
        assert "nano" in out

    def test_run_command_small(self, capsys):
        code = main(
            [
                "run",
                "--scenario", "S2",
                "--policy", "balb-ind",
                "--horizon", "5",
                "--horizons", "3",
                "--train-duration", "20",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "slowest-cam ms" in out
        assert "jetson-nano" in out

    def test_unknown_experiment_errors(self, capsys):
        code = main(["report", "--sections", "FIG13", "fig99"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: unknown report sections: ['FIG99']" in err
        assert ", ".join(SECTION_ORDER) in err

    @pytest.mark.parametrize("name", SECTION_ORDER)
    def test_every_report_section_is_an_experiment(
        self, name, monkeypatch, capsys
    ):
        ran = []

        def fake_sections(names, seed, profile=None, workers=2,
                          cache_root=None):
            ran.append((list(names), seed, workers))
            return ReportSections(
                bodies={n: f"body of {n}" for n in names},
                elapsed_s={n: 0.0 for n in names},
                warm_elapsed_s=0.0, cache_hits=0, cache_misses=0,
            )

        monkeypatch.setattr(runner, "run_report_sections", fake_sections)
        argv = ["report", "--sections", name.lower(), "--seed", "3",
                "--no-timings"]
        assert main(argv) == 0
        assert ran == [([name], 3, 1)]
        assert capsys.readouterr().out == f"== {name} ==\nbody of {name}\n"

    def test_experiment_written_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "ablations.txt"
        code = main(
            ["report", "--sections", "ABLATIONS", "--no-timings",
             "--out", str(out_file)]
        )
        assert code == 0
        content = out_file.read_text()
        assert content.startswith("== ABLATIONS ==\n")
        assert "batch-awareness" in content
        assert content == capsys.readouterr().out


RUN_SMALL = [
    "run",
    "--scenario", "S1",
    "--horizon", "5",
    "--horizons", "4",
    "--train-duration", "20",
]

#: The run of the resume-from-inside-its-directory check.
RESUME_FROM_INSIDE = [
    "run",
    "--scenario", "S2",
    "--policy", "balb",
    "--horizon", "5",
    "--horizons", "4",
    "--train-duration", "20",
    "--seed", "0",
]


class TestInputErrors:
    """Outside input gets a named ``error:`` line, never a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--checkpoint", "nodir/run.ckpt"],
            ["run", "--trace", "nodir/t.jsonl"],
            ["trace", "--out", "nodir/t.jsonl"],
            ["report", "--quick", "--out", "nodir/x.txt"],
            ["soak", "--out", "nodir/s.txt"],
        ],
        ids=lambda argv: f"{argv[0]}{argv[-2]}",
    )
    def test_output_into_a_missing_directory_is_a_parse_error(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {argv[-2]}: directory 'nodir' does not exist" in err

    def test_bench_is_not_a_subcommand(self, capsys):
        """Benchmarks run through perfbench: the ``bench`` subcommand is gone."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["bench", "--quick"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line,reason",
        [
            ("not json", "not JSON"),
            ("{}", "span record has no 'span_id' field"),
        ],
    )
    def test_trace_input_that_is_not_a_span_record(
        self, line, reason, tmp_path, capsys
    ):
        path = tmp_path / "t.jsonl"
        path.write_text(line + "\n")
        assert main(["trace", "--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}, line 1: {reason}")
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestFaultSpecErrors:
    def test_bad_faults_spec_names_offending_clause(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--faults", "crash:cam=1,at=banana"])
        assert "at must be an integer" in str(exc.value)
        assert "crash:cam=1,at=banana" in str(exc.value)

    def test_unknown_fault_kind_lists_options(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--faults", "meteor:at=5"])
        assert "unknown fault kind 'meteor'" in str(exc.value)
        assert "sched_crash" in str(exc.value)

    def test_scheduler_clause_with_camera_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--faults", "sched_crash:cam=1,at=5"])
        assert "takes no cam=" in str(exc.value)

    def test_faults_and_chaos_mutually_exclusive(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--faults", "loss:p=0.1", "--chaos", "heavy"])
        assert "mutually exclusive" in str(exc.value)

    def test_unknown_chaos_preset_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--chaos", "mayhem"])


class TestCheckpointCli:
    def test_checkpoint_knobs_require_checkpoint(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--stop-after", "5"])
        assert "require --checkpoint" in str(exc.value)

    def test_resume_rejects_run_options(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--resume", "x.ckpt", "--faults", "loss:p=0.1"])
        assert "cannot be combined" in str(exc.value)

    def test_resume_missing_checkpoint_is_clean_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--resume", "/no/such/file.ckpt"])
        assert "cannot read checkpoint" in str(exc.value)

    def test_interrupt_then_resume_reproduces_stdout(self, tmp_path, capsys):
        assert main(RUN_SMALL) == 0
        full_out = capsys.readouterr().out

        ckpt = str(tmp_path / "run.ckpt")
        args = RUN_SMALL + ["--checkpoint", ckpt, "--stop-after", "9"]
        assert main(args) == 0
        interrupted_out = capsys.readouterr().out
        assert "interrupted after 9/20 frames" in interrupted_out
        assert "slowest-cam ms" not in interrupted_out  # no partial tables

        assert main(["run", "--resume", ckpt]) == 0
        resumed_out = capsys.readouterr().out
        assert resumed_out == full_out  # byte-identical stdout

    def test_corrupted_checkpoint_refused(self, tmp_path, capsys):
        ckpt = str(tmp_path / "run.ckpt")
        args = RUN_SMALL + ["--checkpoint", ckpt, "--stop-after", "5"]
        assert main(args) == 0
        capsys.readouterr()
        blob = bytearray(open(ckpt, "rb").read())
        blob[-1] ^= 0xFF
        with open(ckpt, "wb") as fh:
            fh.write(bytes(blob))
        with pytest.raises(SystemExit) as exc:
            main(["run", "--resume", ckpt])
        assert "digest mismatch" in str(exc.value)

    def test_damaged_models_entry_refused_naming_it(self, tmp_path, capsys):
        ckpt = str(tmp_path / "run.ckpt")
        args = RUN_SMALL + ["--checkpoint", ckpt, "--stop-after", "5"]
        assert main(args) == 0
        capsys.readouterr()
        (entry,) = tmp_path.glob("models-*.pkl")
        with open(entry, "r+b") as fh:
            fh.truncate(1000)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--resume", ckpt])
        assert str(exc.value).startswith("error: ")
        assert entry.name in str(exc.value)
        assert capsys.readouterr().out == ""

    def test_checkpoint_into_a_missing_directory_is_refused_before_training(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(
            "repro.cli.train_models",
            lambda *a, **k: pytest.fail("trained before refusing the path"),
        )
        with pytest.raises(SystemExit) as exc:
            main(RESUME_FROM_INSIDE + ["--checkpoint", "d/run.ckpt"])
        assert exc.value.code != 0
        err = capsys.readouterr().err
        assert re.search(r"^repro run: error: .*'d' does not exist", err, re.M)
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == []

    def test_resume_from_inside_the_checkpoint_directory(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(RESUME_FROM_INSIDE) == 0
        full_out = capsys.readouterr().out
        os.mkdir("d")
        cut = RESUME_FROM_INSIDE + [
            "--checkpoint", "d/run.ckpt",
            "--checkpoint-every", "5",
            "--stop-after", "7",
        ]
        assert main(cut) == 0
        assert "interrupted after 7/20 frames" in capsys.readouterr().out
        monkeypatch.chdir(tmp_path / "d")
        assert main(["run", "--resume", "run.ckpt"]) == 0
        assert capsys.readouterr().out == full_out
        assert os.listdir(tmp_path) == ["d"]
        (entry,) = (tmp_path / "d").glob("models-*.pkl")
        assert sorted(os.listdir(tmp_path / "d")) == [entry.name, "run.ckpt"]


class TestEventRuntimeCli:
    """The ingest and serving edges at the CLI: every run has both."""

    def test_ingest_and_serving_flag_defaults(self):
        args = build_parser().parse_args(["run"])
        assert not hasattr(args, "runtime")
        assert args.ingest_capacity == 4
        assert args.ingest_policy == "drop-oldest"
        assert args.serve_subscribers == 0
        assert args.serve_every == 1

    def test_unknown_runtime_rejected(self):
        """There is one frame loop: ``--runtime`` no longer parses."""
        for runtime in ("event", "sync", "threads"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["run", "--runtime", runtime])

    def test_unknown_ingest_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--ingest-policy", "teleport"])

    def test_ingest_edge_is_transparent_in_stdout(self, capsys):
        """Without bursts the edge's settings are invisible: same bytes."""
        assert main(RUN_SMALL) == 0
        default_out = capsys.readouterr().out
        assert main(RUN_SMALL + [
            "--ingest-capacity", "1",
            "--ingest-policy", "coalesce-to-key-frame",
        ]) == 0
        assert capsys.readouterr().out == default_out

    def test_event_run_prints_ingest_summary_under_bursts(self, capsys):
        args = RUN_SMALL + ["--chaos", "ingest", "--ingest-capacity", "2"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "fault summary" in out
        assert "ingest frames offered" in out
        assert "ingest frames dropped" in out
        assert "ingest stalls" in out

    def test_burst_free_event_run_prints_no_ingest_rows(self, capsys):
        assert main(RUN_SMALL) == 0
        assert "ingest frames offered" not in capsys.readouterr().out

    def test_burst_run_resumes_byte_identically(self, tmp_path, capsys):
        burst = RUN_SMALL + ["--chaos", "ingest", "--ingest-capacity", "2"]
        assert main(burst) == 0
        full_out = capsys.readouterr().out

        ckpt = str(tmp_path / "run.ckpt")
        assert main(burst + ["--checkpoint", ckpt, "--stop-after", "3"]) == 0
        assert "interrupted after 3/20 frames" in capsys.readouterr().out
        assert main(["run", "--resume", ckpt]) == 0
        assert capsys.readouterr().out == full_out

    def test_serving_subscribers_run(self, capsys):
        args = RUN_SMALL + ["--serve-subscribers", "100", "--serve-every", "2"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "slowest-cam ms" in out
        assert "serving summary" in out
        assert re.search(r"subscriber requests +\d+", out)
        assert re.search(r"hit rate +[01]\.\d+", out)

    def test_no_serving_summary_without_subscribers(self, capsys):
        assert main(RUN_SMALL) == 0
        assert "serving summary" not in capsys.readouterr().out


class TestFaultSummaries:
    def test_run_prints_failover_summary(self, capsys):
        args = RUN_SMALL + ["--faults", "sched_crash:at=6,for=8"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "fault summary" in out
        assert "failover takeovers" in out
        assert "mean recovery ms" in out

    def test_compare_prints_fault_summary_per_policy(self, capsys):
        args = [
            "compare",
            "--scenario", "S1",
            "--horizon", "5",
            "--horizons", "3",
            "--train-duration", "20",
            "--policies", "balb", "balb-ind",
            "--faults", "crash:cam=1,at=4,for=5",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "fault summary (balb)" in out
        assert "fault summary (balb-ind)" in out

    def test_compare_without_faults_prints_no_summary(self, capsys):
        args = [
            "compare",
            "--scenario", "S1",
            "--horizon", "5",
            "--horizons", "3",
            "--train-duration", "20",
            "--policies", "balb-ind",
        ]
        assert main(args) == 0
        assert "fault summary" not in capsys.readouterr().out
