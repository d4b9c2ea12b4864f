"""Tests for the command-line interface."""

import pytest

from repro.__main__ import build_parser, main

BLOCK = ["--integrator", "kdk", "--timestep", "block", "--softening", "0.01"]
POTENTIAL_DT = ["--mode", "potential", "--dt", "0.01"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.scheme == "spda"
        assert args.machine == "ncube2"
        assert args.procs == 16

    def test_bad_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scheme", "hashed"])

    @pytest.mark.parametrize("argv,message", [
        (["run", "--timestep", "block"], "integrator='kdk'"),
        (["run", "--resume"], "checkpoint_dir"),
        (["run", "--scheme", "spsa", "--grid-level", "0", "--procs", "4"],
         "SPSA needs r >= p"),
        (["run", *BLOCK], "give dt"),
        (["run", *POTENTIAL_DT], "mode='force'"),
        (["trace", *BLOCK], "give dt"),
        (["trace", *POTENTIAL_DT], "mode='force'"),
    ], ids=["block-without-kdk", "resume-without-dir", "spsa-r-below-p",
            "block-without-dt", "potential-with-dt",
            "trace-block-without-dt", "trace-potential-with-dt"])
    def test_bad_option_combination_is_one_line(self, capsys, argv,
                                                message):
        """What argparse cannot see, ``SchemeConfig`` and
        ``ParallelBarnesHut`` refuse: same exit status, no traceback."""
        assert main([argv[0], "--scale", "0.001", *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ") and message in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("text,message", [
        ('{"seed": 7, "drop_rate": 0.05}', "unknown fault-plan keys"),
        ('{"delay_rate": 2.0}', "delay_rate must lie in [0, 1]"),
        ('{"delay_rate": ', "Expecting value"),
        (None, "No such file"),
    ], ids=["drop-rate", "rate-out-of-range", "bad-json", "missing-file"])
    def test_bad_fault_plan_is_one_line(self, capsys, tmp_path, text,
                                        message):
        """A plan that does not load is refused like a bad option."""
        plan = tmp_path / "plan.json"
        if text is not None:
            plan.write_text(text)
        assert main(["run", "--scale", "0.001", "--procs", "2",
                     "--fault-plan", str(plan)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro: error: fault plan {plan}: ")
        assert message in err and err.count("\n") == 1


class TestCommands:
    def test_instances(self, capsys):
        assert main(["instances"]) == 0
        out = capsys.readouterr().out
        assert "g_160535" in out
        assert "s_10g_b" in out

    def test_profiles(self, capsys):
        assert main(["profiles"]) == 0
        out = capsys.readouterr().out
        assert "nCUBE2" in out and "CM5" in out and "T3E" in out

    def test_run_small(self, capsys):
        code = main([
            "run", "--instance", "g_5000", "--scale", "0.05",
            "--scheme", "dpda", "--procs", "4", "--machine", "zero",
            "--steps", "1", "--check",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "virtual parallel time" in out
        assert "force computation" in out
        assert "median force rel error" in out

    def test_run_potential_check(self, capsys):
        code = main([
            "run", "--instance", "p_2000", "--scale", "0.1",
            "--procs", "2", "--machine", "zero",
            "--mode", "potential", "--check",
        ])
        assert code == 0
        assert "fractional % error" in capsys.readouterr().out


class TestRecoveryCLI:
    def test_run_accepts_recovery_flags(self, tmp_path):
        args = build_parser().parse_args([
            "run", "--checkpoint-dir", str(tmp_path / "ck"),
            "--resume", "--max-restarts", "5",
        ])
        assert args.checkpoint_dir.endswith("ck")
        assert args.resume is True
        assert args.max_restarts == 5

    def test_recovery_flag_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.checkpoint_dir is None
        assert args.resume is False
        assert args.max_restarts == 3

    def test_checkpoint_then_resume(self, tmp_path, capsys):
        """A checkpointed run leaves a directory a second invocation can
        resume from — the host-restart half of crash tolerance."""
        ckdir = str(tmp_path / "ck")
        base = ["run", "--instance", "g_5000", "--scale", "0.05",
                "--scheme", "spda", "--procs", "4", "--machine", "zero",
                "--checkpoint-every", "1", "--checkpoint-dir", ckdir]
        assert main(base + ["--steps", "2"]) == 0
        out = capsys.readouterr().out
        assert "checkpoints:" in out

        assert main(base + ["--steps", "3", "--resume"]) == 0
        out = capsys.readouterr().out
        assert "resuming" in out
        assert "resumed from checkpointed step 2" in out


class TestTraceCLI:
    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.scheme == "spda"
        assert args.out is None

    def test_run_accepts_trace_flags(self, tmp_path):
        args = build_parser().parse_args([
            "run", "--trace-out", str(tmp_path / "t.json"),
            "--metrics-out", str(tmp_path / "m.json"),
        ])
        assert args.trace_out.endswith("t.json")

    def test_run_writes_trace_and_metrics(self, tmp_path, capsys):
        import json
        tpath = tmp_path / "trace.json"
        mpath = tmp_path / "metrics.json"
        code = main([
            "run", "--instance", "g_5000", "--scale", "0.05",
            "--scheme", "dpda", "--procs", "4", "--machine", "ncube2",
            "--steps", "1", "--trace-out", str(tpath),
            "--metrics-out", str(mpath),
        ])
        assert code == 0
        doc = json.loads(tpath.read_text())
        assert doc["traceEvents"]
        assert {e["ph"] for e in doc["traceEvents"]} >= {"X", "s", "f"}
        metrics = json.loads(mpath.read_text())
        assert "comm.msg_bytes" in metrics
        out = capsys.readouterr().out
        assert "trace" in out and "metrics" in out

    def test_trace_command_report(self, tmp_path, capsys):
        import json
        tpath = tmp_path / "trace.json"
        code = main([
            "trace", "--instance", "g_5000", "--scale", "0.05",
            "--scheme", "dpda", "--procs", "4", "--machine", "ncube2",
            "--steps", "2", "--out", str(tpath),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "critical path:" in out
        assert "bytes matrix" in out or "src\\dst" in out
        assert "legend:" in out
        doc = json.loads(tpath.read_text())
        assert doc["otherData"]["ranks"] == 4
