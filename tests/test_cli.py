"""Command-line behavior: flags, config, provenance, exit codes."""

import math
import multiprocessing
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from qaoa_linear import cli, optimizers
from qaoa_linear.circuit import interpret_circuit
from qaoa_linear.experiments import build_tables
from qaoa_linear.optimizers import OptimizerSpec
from qaoa_linear.cli import (
    EXIT_CHECK,
    EXIT_IO,
    EXIT_OK,
    EXIT_PIPE,
    EXIT_USAGE,
    UsageError,
    main,
    parse_angle,
    parse_angle_list,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def value_of(out, key):
    for line in out.splitlines():
        if line.startswith(f"{key}="):
            return line.split("=", 1)[1]
    raise KeyError(f"{key} not found in output:\n{out}")


class TestParseAngle:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("0", 0.0),
            ("1.5", 1.5),
            ("-0.25", -0.25),
            ("pi", math.pi),
            ("PI", math.pi),
            ("π", math.pi),
            ("-pi", -math.pi),
            ("pi/4", math.pi / 4),
            ("π/6", math.pi / 6),
            ("-pi/2", -math.pi / 2),
            ("3pi/4", 3 * math.pi / 4),
            ("2pi", 2 * math.pi),
            ("0.5pi", math.pi / 2),
        ],
    )
    def test_accepted_forms(self, text, expected):
        assert parse_angle(text) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize(
        "bad", ["", "pie", "pi/", "x", "1..2", "pi/pi", "pi/0", "3pi/0.0", "0pi/0"]
    )
    def test_rejected_forms(self, bad):
        with pytest.raises(UsageError):
            parse_angle(bad)

    def test_list(self):
        assert parse_angle_list("0,pi/2") == pytest.approx((0.0, math.pi / 2))
        with pytest.raises(UsageError):
            parse_angle_list("1,,2")


class TestProb:
    def test_zero_angles(self, capsys):
        code, out, _ = run(capsys, "prob", "--model", "1,2", "--gamma", "0", "--beta", "0")
        assert code == EXIT_OK
        assert float(value_of(out, "prob_opt")) == pytest.approx(0.25, abs=1e-12)

    def test_pi_literal_perfect_recovery(self, capsys):
        code, out, _ = run(
            capsys, "prob", "--model", "1", "--gamma", "pi/4", "--beta", "π/4"
        )
        assert code == EXIT_OK
        assert float(value_of(out, "prob_opt")) == pytest.approx(1.0, abs=1e-12)

    def test_replicated_model_squares_probability(self, capsys):
        args = ("--gamma", "0.3", "--beta", "0.8")
        _, out_base, _ = run(capsys, "prob", "--model", "1,2", *args)
        _, out_rep, _ = run(capsys, "prob", "--model", "1,2,1,2", *args)
        base = float(value_of(out_base, "prob_opt"))
        rep = float(value_of(out_rep, "prob_opt"))
        assert rep == pytest.approx(base**2, abs=1e-12)

    def test_log_flag(self, capsys):
        code, out, _ = run(capsys, "prob", "--model", "1,2", "--gamma", "0", "--beta", "0")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines.index("prob_opt=0.25") + 1 == lines.index(
            f"log_prob_opt={math.log(0.25):.12g}"
        )

    def test_log_line_past_underflow(self, capsys):
        model = ",".join(["1"] * 1100)
        code, out, _ = run(capsys, "prob", "--model", model, "--gamma", "0", "--beta", "0")
        assert code == EXIT_OK
        assert value_of(out, "prob_opt") == "0"
        assert float(value_of(out, "log_prob_opt")) == pytest.approx(1100 * math.log(0.5))

    def test_provenance_lines(self, capsys):
        _, out, _ = run(capsys, "prob", "--model", "1,2", "--gamma", "0", "--beta", "0")
        assert "# model=1,2 (flag)" in out

    def test_missing_angles_usage_error(self, capsys):
        code, _, err = run(capsys, "prob", "--model", "1,2")
        assert code == EXIT_USAGE
        assert "error" in err

    def test_mismatched_lengths_usage_error(self, capsys):
        code, _, _ = run(
            capsys, "prob", "--model", "1", "--gamma", "0,0", "--beta", "0"
        )
        assert code == EXIT_USAGE

    def test_zero_denominator_usage_error(self, capsys):
        code, _, err = run(capsys, "prob", "--model", "1", "--gamma", "pi/0", "--beta", "0")
        assert code == EXIT_USAGE
        assert "pi/0" in err


class TestOptimize:
    def test_single_method_lean(self, capsys):
        code, out, _ = run(
            capsys,
            "optimize", "--model", "1", "--p", "1",
            "--method", "nelder-mead", "--budget", "2000", "--restarts", "2",
        )
        assert code == EXIT_OK
        assert float(value_of(out, "best_value")) >= 1.0 - 1e-6
        assert value_of(out, "method") == "nelder-mead"
        assert len(parse_angle_list(value_of(out, "best_gammas"))) == 1

    def test_portfolio_default(self, capsys):
        code, out, _ = run(
            capsys, "optimize", "--model", "1,2", "--p", "1", "--budget", "1500", "--restarts", "2"
        )
        assert code == EXIT_OK
        assert float(value_of(out, "best_value")) == pytest.approx(0.882385, abs=1e-3)
        assert int(value_of(out, "evaluations_used")) <= 4 * 1500 * 2

    def test_unknown_method_usage_error(self, capsys):
        code, _, _ = run(capsys, "optimize", "--model", "1", "--p", "1", "--method", "newton")
        assert code == EXIT_USAGE

    def test_missing_p_usage_error(self, capsys):
        code, _, _ = run(capsys, "optimize", "--model", "1")
        assert code == EXIT_USAGE

    def test_overflowing_phase_usage_error(self, capsys):
        # pi * 1e308 is inf: every objective value would be NaN
        code, _, err = run(
            capsys, "optimize", "--model", "1e308,3", "--p", "1", "--budget", "10", "--restarts", "1"
        )
        assert code == EXIT_USAGE
        assert "error:" in err

    def test_unbounded_restarts_refused(self, capsys):
        # one generator per restart would be built before any scoring
        code, _, err = run(capsys, "optimize", "--model", "1", "--p", "1", "--restarts", "100000000")
        assert code == EXIT_CHECK
        assert "refused" in err and "MAX_RESTARTS" in err


class TestTable:
    def test_single_cell_csv(self, capsys):
        code, out, _ = run(
            capsys, "table", "--M", "1", "--P", "1", "--budget", "400", "--restarts", "1"
        )
        assert code == EXIT_OK
        assert "m,p,prob,base" in out
        assert "1,1,1.000000,1.00000" in out
        assert "# cells=1" in out

    def test_byte_identical_reruns(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = run(
                capsys,
                "table", "--M", "2", "--P", "1", "--seed", "9",
                "--budget", "400", "--restarts", "1", "--out", str(path),
            )
            assert code == EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert b"\r" not in paths[0].read_bytes()

    def test_unwritable_path_io_error(self, capsys):
        code, _, err = run(
            capsys,
            "table", "--M", "1", "--P", "1", "--budget", "100", "--restarts", "1",
            "--out", "/nonexistent-dir/table.csv",
        )
        assert code == EXIT_IO
        assert "io error" in err

    def test_unwritable_path_found_before_the_grid(self, capsys, monkeypatch):
        def build(*args):
            raise AssertionError("built the grid before opening --out")

        monkeypatch.setattr(cli, "build_tables", build)
        code, _, err = run(
            capsys, "table", "--M", "3", "--P", "2", "--out", "/nonexistent-dir/t.csv"
        )
        assert code == EXIT_IO
        assert "/nonexistent-dir/t.csv" in err

    def test_failed_run_keeps_the_old_file(self, capsys, tmp_path):
        kept = tmp_path / "kept.csv"
        kept.write_text("m,p,prob,base\n1,1,1.000000,1.00000\n")
        code, _, _ = run(capsys, "table", "--M", "0", "--P", "1", "--out", str(kept))
        assert code == EXIT_USAGE
        assert kept.read_text() == "m,p,prob,base\n1,1,1.000000,1.00000\n"
        assert [path.name for path in tmp_path.iterdir()] == ["kept.csv"]

    def test_unwritable_directory_found_before_the_grid(self, capsys, monkeypatch, tmp_path):
        def build(*args):
            raise AssertionError("built the grid before opening --out")

        monkeypatch.setattr(cli, "build_tables", build)
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        target = not_a_dir / "t.csv"
        code, _, err = run(capsys, "table", "--M", "3", "--P", "2", "--out", str(target))
        assert code == EXIT_IO
        assert f"'{target}'" in err
        assert [path.name for path in tmp_path.iterdir()] == ["file"]

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_method_honoured(self, capsys, monkeypatch, tmp_path, source):
        received = []

        def build(m_max, p_max, specs):
            received.append(tuple(specs))
            return build_tables(m_max, p_max, specs)

        monkeypatch.setattr(cli, "build_tables", build)
        args = ["table", "--M", "1", "--P", "1", "--budget", "100", "--restarts", "1"]
        if source == "flag":
            args += ["--method", "random-search"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("method=random-search\n")
            args += ["--config", str(cfg)]
        code, out, _ = run(capsys, *args)
        assert code == EXIT_OK
        assert f"# method=random-search ({source})" in out
        assert received == [(OptimizerSpec("random-search", 100, 1, 1),)]

    def test_missing_dimensions_usage_error(self, capsys):
        code, _, _ = run(capsys, "table", "--M", "2")
        assert code == EXIT_USAGE


class TestSample:
    def test_perfect_recovery_mean_one(self, capsys):
        code, out, _ = run(
            capsys,
            "sample", "--model", "1", "--gamma", "pi/4", "--beta", "pi/4",
            "--runs", "100",
        )
        assert code == EXIT_OK
        assert float(value_of(out, "mean_trials")) == 1.0
        assert float(value_of(out, "true_prob")) == pytest.approx(1.0, abs=1e-12)

    def test_auto_optimizes_first(self, capsys):
        code, out, _ = run(
            capsys,
            "sample", "--model", "1", "--p", "1", "--runs", "50",
            "--method", "nelder-mead", "--budget", "2000", "--restarts", "2",
        )
        assert code == EXIT_OK
        assert float(value_of(out, "mean_trials")) == 1.0

    @pytest.mark.parametrize("runs,expected", [("100000000", EXIT_CHECK), ("0", EXIT_USAGE)])
    def test_auto_refuses_bad_runs_before_optimizing(self, capsys, monkeypatch, runs, expected):
        def optimize(*args, **kwargs):
            raise AssertionError("optimized before refusing the run count")

        monkeypatch.setattr(cli, "portfolio_maximize", optimize)
        code, _, err = run(
            capsys, "sample", "--model", "1,2", "--p", "1", "--runs", runs
        )
        assert code == expected
        assert "runs" in err

    def test_refuses_degenerate(self, capsys):
        model = ",".join(["1"] * 40)
        code, _, err = run(
            capsys,
            "sample", "--model", model, "--gamma", "0", "--beta", "0", "--runs", "10",
        )
        assert code == EXIT_CHECK
        assert "refused" in err

    def test_auto_conflicts_with_angles(self, capsys):
        code, _, err = run(
            capsys,
            "sample", "--model", "1", "--p", "1", "--gamma", "0", "--beta", "0", "--runs", "10",
        )
        assert code == EXIT_USAGE
        assert "--p" in err and "not both" in err

    def test_needs_angles_or_p(self, capsys):
        code, _, err = run(capsys, "sample", "--model", "1", "--gamma", "0", "--runs", "10")
        assert code == EXIT_USAGE
        assert "sample needs --gamma and --beta, or --p" in err

    def test_given_angles_ignore_optimizer_options(self, capsys):
        code, out, _ = run(
            capsys,
            "sample", "--model", "1", "--gamma", "0", "--beta", "0", "--runs", "5",
            "--budget", "0",
        )
        assert code == EXIT_OK
        assert value_of(out, "runs") == "5"

    def test_report_written_to_file(self, capsys, tmp_path):
        path = tmp_path / "report.txt"
        code, out, _ = run(
            capsys,
            "sample", "--model", "1", "--gamma", "pi/4", "--beta", "pi/4",
            "--runs", "20", "--out", str(path),
        )
        assert code == EXIT_OK
        text = path.read_text()
        assert "mean_trials=1" in text
        assert "runs=20" in text
        assert all(line.startswith("# ") for line in out.splitlines())

    def test_report_to_stdout_printed_once(self, capsys):
        code, out, _ = run(
            capsys,
            "sample", "--model", "1", "--gamma", "pi/4", "--beta", "pi/4",
            "--runs", "3", "--out", "-",
        )
        assert code == EXIT_OK
        assert out.count("mean_trials=") == 1


class TestEmitCircuit:
    def test_writes_interpretable_file(self, capsys, tmp_path):
        path = tmp_path / "circuit.txt"
        code, _, _ = run(
            capsys, "emit-circuit", "--model", "3,-1", "--width", "4", "--out", str(path)
        )
        assert code == EXIT_OK
        assert interpret_circuit(path.read_text()) == (0, 1)

    def test_stdout_is_interpretable_despite_provenance(self, capsys):
        code, out, _ = run(capsys, "emit-circuit", "--model", "1", "--width", "2")
        assert code == EXIT_OK
        assert interpret_circuit(out) == (0,)

    def test_non_integer_usage_error(self, capsys):
        code, _, err = run(capsys, "emit-circuit", "--model", "1.5", "--width", "4")
        assert code == EXIT_USAGE
        assert "coefficient 1" in err

    def test_overflow_names_coefficient(self, capsys):
        code, _, err = run(capsys, "emit-circuit", "--model", "1,9", "--width", "4")
        assert code == EXIT_USAGE
        assert "coefficient 2" in err

    @pytest.mark.parametrize("width,expected", [("1025", EXIT_OK), ("1026", EXIT_CHECK)])
    def test_width_cap(self, capsys, width, expected):
        code, _, err = run(capsys, "emit-circuit", "--model", "3,-1", "--width", width)
        assert code == expected
        assert ("MAX_REGISTER_WIDTH" in err) == (expected == EXIT_CHECK)


class TestVerify:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == EXIT_OK
        assert out.count("PASS") == 5
        assert "FAIL" not in out
        assert "# checks=5 failures=0" in out

    def test_seed_insensitive(self, capsys):
        code, out, _ = run(capsys, "verify", "--seed", "9")
        assert code == EXIT_OK
        assert "FAIL" not in out


class TestScan:
    def test_p1_profile(self, capsys):
        code, out, _ = run(
            capsys,
            "scan", "--p", "1", "--m-max", "2",
            "--method", "nelder-mead", "--budget", "2000", "--restarts", "2",
        )
        assert code == EXIT_OK
        lines = [l for l in out.splitlines() if l.startswith("m=")]
        assert "below_one=false" in lines[0]
        assert "below_one=true" in lines[1]
        assert "# anomalies=0" in out


class TestConfigFile:
    def test_config_supplies_values(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a comment\nmodel=1,2\ngamma=0\nbeta=0\n")
        code, out, _ = run(capsys, "prob", "--config", str(cfg))
        assert code == EXIT_OK
        assert float(value_of(out, "prob_opt")) == pytest.approx(0.25, abs=1e-12)
        assert "# model=1,2 (config)" in out

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model=1\ngamma=0\nbeta=0\n")
        code, out, _ = run(capsys, "prob", "--config", str(cfg), "--gamma", "pi/4", "--beta", "pi/4")
        assert code == EXIT_OK
        assert "# gamma=pi/4 (flag)" in out
        assert float(value_of(out, "prob_opt")) == pytest.approx(1.0, abs=1e-12)

    def test_unknown_key_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model=1\ngamma=0\nbeta=0\nbananas=3\n")
        code, _, err = run(capsys, "prob", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "bananas" in err

    @pytest.mark.parametrize(
        "command,args,key",
        [
            ("prob", ("--model", "1,2", "--gamma", "0", "--beta", "0"), "log"),
            ("sample", ("--model", "1", "--gamma", "0", "--beta", "0", "--runs", "5"), "auto"),
        ],
    )
    def test_on_off_keys_are_unknown(self, capsys, tmp_path, command, args, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}=true\n")
        code, _, err = run(capsys, command, "--config", str(cfg), *args)
        assert code == EXIT_USAGE
        assert f"unknown config keys: {key}" in err

    def test_missing_config_io_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "prob", "--config", str(tmp_path / "absent.cfg"))
        assert code == EXIT_IO

    def test_malformed_line_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model 1,2\n")
        code, _, _ = run(capsys, "prob", "--config", str(cfg))
        assert code == EXIT_USAGE

    def test_duplicate_key_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model=1,2\ngamma=0\n# a comment\nbeta=0\n gamma = pi/4\n")
        code, out, err = run(capsys, "prob", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "prob_opt" not in out
        assert f"{cfg}:5: duplicate key 'gamma', first set on line 2" in err

    def test_empty_key_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model=1,2\ngamma=0\nbeta=0\n = 3\n")
        code, out, err = run(capsys, "prob", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "prob_opt" not in out
        assert f"{cfg}:4: empty key in '= 3'" in err


LEAN = ("--method", "random-search", "--budget", "10", "--restarts", "1")

# (command, required key, a value for it, the other arguments of a run)
REQUIRED_OPTIONS = [
    ("prob", "model", "1,2", ("--gamma", "0", "--beta", "0")),
    ("prob", "gamma", "0", ("--model", "1,2", "--beta", "0")),
    ("prob", "beta", "0", ("--model", "1,2", "--gamma", "0")),
    ("optimize", "model", "1", ("--p", "1") + LEAN),
    ("optimize", "p", "1", ("--model", "1") + LEAN),
    ("table", "M", "1", ("--P", "1") + LEAN),
    ("table", "P", "1", ("--M", "1") + LEAN),
    ("sample", "model", "1", ("--runs", "5", "--gamma", "0", "--beta", "0")),
    ("sample", "runs", "5", ("--model", "1", "--gamma", "0", "--beta", "0")),
    ("emit-circuit", "model", "1", ("--width", "2")),
    ("emit-circuit", "width", "2", ("--model", "1",)),
    ("scan", "p", "1", ("--m-max", "1") + LEAN),
    ("scan", "m-max", "1", ("--p", "1") + LEAN),
]


class TestUsageRules:
    @pytest.mark.parametrize(
        "command,key,value,args",
        REQUIRED_OPTIONS,
        ids=[f"{command}-{key}" for command, key, _, _ in REQUIRED_OPTIONS],
    )
    def test_required_option(self, capsys, tmp_path, command, key, value, args):
        code, out, err = run(capsys, command, *args)
        assert code == EXIT_USAGE
        assert f"{command} needs --{key}" in err
        assert out == ""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={value}\n")
        code, out, err = run(capsys, command, "--config", str(cfg), *args)
        assert code == EXIT_OK, err
        assert f"# {key}={value} (config)" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("prob", "--mod", "1,2", "--gamma", "0", "--beta", "0"),
            ("table", "--M", "1", "--P", "1", "--bud", "10"),
            ("prob", "--m", "2", "--gamma", "0", "--beta", "0"),
        ],
        ids=["model-prefix", "budget-prefix", "removed-m"],
    )
    def test_only_full_option_names(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""

    def test_unknown_flag_reported_with_command_usage(self, capsys):
        code, out, err = run(capsys, "prob", "--m", "2", "--gamma", "0", "--beta", "0")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("usage: qaoa-linear prob ")
        assert "unrecognized arguments: --m 2" in err

    @pytest.mark.parametrize(
        "argv,first",
        [
            (("table", "--M", "0", "--P", "1"), "# M=0 (flag)"),
            (("prob", "--model", "1,2", "--gamma", "0,0", "--beta", "0"), "# model=1,2 (flag)"),
        ],
        ids=["table", "prob"],
    )
    def test_provenance_precedes_later_usage_error(self, capsys, argv, first):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert err.startswith("error: ")
        lines = out.splitlines()
        assert lines[0] == first
        assert all(line.startswith("# ") and line.endswith(")") for line in lines)


class TestWorkers:
    """Tables split their cells, and portfolios their members, over the
    usable CPUs; the output is the same at one CPU and at two."""

    @staticmethod
    def output(capsys, monkeypatch, cpus, *argv):
        monkeypatch.setattr(optimizers, "usable_cpus", lambda: cpus)
        code, out, err = run(capsys, *argv)
        assert code == EXIT_OK, err
        return out

    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "--M", "3", "--P", "2", "--budget", "200", "--seed", seed]
            for seed in ("1", "2", "3", "824")
        ]
        + [
            ["table", "--M", "3", "--P", "2", "--budget", "200", "--restarts", "1", "--seed", "5"],
            ["scan", "--p", "2", "--m-max", "3", "--budget", "200", "--seed", "1"],
            ["optimize", "--model", "1,2,3", "--p", "2", "--budget", "300", "--seed", "2"],
            ["sample", "--model", "1,2,3", "--p", "2", "--runs", "200", "--budget", "300", "--seed", "3"],
        ],
        ids=[
            "table-1", "table-2", "table-3", "table-824", "table-restarts-1", "scan", "optimize",
            "sample-p",
        ],
    )
    def test_output_does_not_depend_on_usable_cpus(self, capsys, monkeypatch, argv):
        serial = self.output(capsys, monkeypatch, 1, *argv)
        split = self.output(capsys, monkeypatch, 2, *argv)
        assert split == serial
        assert multiprocessing.active_children() == []

    def test_broken_pool_refused(self, capsys, monkeypatch):
        from concurrent.futures import Future, ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        def broken(self, *args):
            future = Future()
            future.set_exception(BrokenProcessPool("a child process terminated abruptly"))
            return future

        monkeypatch.setattr(optimizers, "usable_cpus", lambda: 2)
        monkeypatch.setattr(ProcessPoolExecutor, "submit", broken)
        code, _, err = run(capsys, "optimize", "--model", "1,2", "--p", "1", "--budget", "100")
        assert code == EXIT_CHECK
        assert err.startswith("refused: a worker process died")
        assert '`if __name__ == "__main__":` guard' in err

    def test_unguarded_script_refused(self, tmp_path):
        # every worker imports the main module, which here runs main again
        script = tmp_path / "unguarded.py"
        script.write_text(
            "import sys\n"
            "from qaoa_linear import cli, optimizers\n"
            "optimizers.usable_cpus = lambda: 2\n"
            "sys.exit(cli.main(['optimize', '--model', '1,2', '--p', '1', '--budget', '100']))\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == EXIT_CHECK
        assert proc.stderr.splitlines()[-1].startswith("refused: a worker process died")


class TestTopLevel:
    def test_no_arguments_usage_error(self, capsys):
        assert run(capsys, )[0] == EXIT_USAGE

    def test_unknown_command_usage_error(self, capsys):
        assert run(capsys, "frobnicate")[0] == EXIT_USAGE

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == EXIT_OK

    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    def test_closed_stdout_is_not_an_io_error(self, unbuffered):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.Popen(
            [sys.executable, "-m", "qaoa_linear", "verify", "--seed", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()  # before the child has imported anything, let alone written
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == EXIT_PIPE
        assert err == b""

    def test_help_marks_required_options(self, capsys):
        code, out, _ = run(capsys, "table", "--help")
        assert code == EXIT_OK
        help_of = {m.group(1): m.group(2) for m in re.finditer(r"--(\w+) \w+ +(.*)", out)}
        assert help_of["M"].endswith("(required)")
        assert help_of["P"].endswith("(required)")
        assert "required" not in help_of["budget"]


README = Path(__file__).resolve().parents[1] / "README.md"
CLI_BLOCK = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```", 2)[1]
README_RUNS = [
    shlex.split(line)[1:] for line in CLI_BLOCK.splitlines() if line.startswith("qaoa-linear ")
]


@pytest.mark.parametrize("argv", README_RUNS, ids=[argv[0] for argv in README_RUNS])
def test_readme_cli_examples_run(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    if argv[0] in ("optimize", "table", "sample", "scan"):
        argv = argv + ["--budget", "50", "--restarts", "1"]
    code, _, err = run(capsys, *argv)
    assert code == EXIT_OK, err
