"""Tests for the command-line interface."""

import argparse
import dataclasses
import functools
import json
import math
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import build_configs, build_parser, main
from repro.utils import ConfigError


ARGS = ["--dataset", "tiny", "--gpus", "2", "--hidden", "16",
        "--batch-size", "8", "--fanout", "5,3"]

#: a drifting skewed stream on a small warmed dynamic cache; two QPS
#: points so ``--workers 2`` really fans out to worker processes
WARMUP_SERVE = ["--dataset", "tiny", "--gpus", "2", "--fanout", "12",
                "--requests", "256", "--qps", "1000000,2000000",
                "--skew", "1.5", "--drift-phases", "2", "--cache-bytes", "3200",
                "--dynamic-cache", "--cache-warmup", "64", "--metrics"]


#: per-subcommand parser surface, one row per action
SURFACE = pathlib.Path(__file__).with_name("cli_surface.json")


def _surface(parser):
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return {
        name: sorted(
            [list(a.option_strings), a.dest, a.default,
             getattr(a.type, "__name__", None),
             None if a.choices is None else list(a.choices),
             type(a).__name__]
            for a in p._actions
        )
        for name, p in sub.choices.items()
    }


class TestCLI:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "products" in out and "NVLink" in out

    def test_train(self, capsys):
        assert main(["train", *ARGS, "--epochs", "1"]) == 0
        out = capsys.readouterr().out
        assert "epoch time" in out

    def test_train_cost_only_json(self, capsys):
        assert main(["train", *ARGS, "--epochs", "1",
                     "--cost-only", "--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("["):])
        assert payload[0]["epoch_time"] > 0
        assert payload[0]["loss"] is None  # cost-only: no training

    def test_compare_subset(self, capsys):
        assert main(["compare", *ARGS, "--systems", "DSP,DGL-UVA",
                     "--batches", "2", "--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert set(payload) == {"DSP", "DGL-UVA"}

    def test_train_out_writes_file_not_stdout(self, capsys, tmp_path):
        path = tmp_path / "metrics.json"
        assert main(["train", *ARGS, "--epochs", "1", "--cost-only",
                     "--out", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"wrote {path}" in out
        assert "epoch_time" not in out  # the JSON went to the file
        payload = json.loads(path.read_text())
        assert payload[0]["epoch_time"] > 0

    def test_compare_out_writes_file(self, capsys, tmp_path):
        path = tmp_path / "table.json"
        assert main(["compare", *ARGS, "--systems", "DSP", "--batches", "2",
                     "--out", str(path)]) == 0
        assert f"wrote {path}" in capsys.readouterr().out
        assert set(json.loads(path.read_text())) == {"DSP"}

    def test_trace(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        text = tmp_path / "trace.txt"
        assert main(["trace", *ARGS, "--system", "DSP", "--batches", "2",
                     "--out", str(path), "--text", str(text)]) == 0
        out = capsys.readouterr().out
        assert f"wrote {path}" in out
        assert "busy" in out and "critical path" in out
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"M", "X", "C"} <= phases
        assert "==" in text.read_text()

    def test_infer(self, capsys):
        assert main(["infer", *ARGS, "--epochs", "1"]) == 0
        out = capsys.readouterr().out
        assert "full-graph inference" in out

    def test_infer_json(self, capsys):
        assert main(["infer", *ARGS, "--epochs", "1", "--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert len(payload["epochs"]) == 1
        assert 0.0 <= payload["inference"]["test_accuracy"] <= 1.0
        assert payload["inference"]["simulated_time_s"] > 0

    def test_infer_out_writes_file(self, capsys, tmp_path):
        path = tmp_path / "infer.json"
        assert main(["infer", *ARGS, "--epochs", "1",
                     "--out", str(path)]) == 0
        assert f"wrote {path}" in capsys.readouterr().out
        assert "inference" in json.loads(path.read_text())

    def test_serve(self, capsys):
        assert main(["serve", *ARGS, "--requests", "32",
                     "--qps", "2000,500", "--json"]) == 0
        out = capsys.readouterr().out
        assert "max sustainable QPS" in out
        payload = json.loads(out[out.index("{"):])
        points = payload["systems"]["DSP"]["points"]
        assert [p["offered_qps"] for p in points] == [500.0, 2000.0]
        assert "max_sustainable_qps" in payload["systems"]["DSP"]

    def test_serve_multi_system_out(self, capsys, tmp_path):
        path = tmp_path / "serve.json"
        assert main(["serve", *ARGS, "--systems", "DSP,DGL-UVA",
                     "--requests", "32", "--qps", "1000",
                     "--functional", "--out", str(path)]) == 0
        assert f"wrote {path}" in capsys.readouterr().out
        payload = json.loads(path.read_text())
        assert set(payload["systems"]) == {"DSP", "DGL-UVA"}
        acc = payload["systems"]["DSP"]["points"][0]["accuracy"]
        assert 0.0 <= acc <= 1.0

    @pytest.mark.parametrize("mode", [["--num-replicas", "2"],
                                      ["--scale-max", "3"]],
                             ids=["router", "auto"])
    def test_serve_warmup_identical_across_workers(self, capsys, tmp_path,
                                                   mode):
        """--cache-warmup reaches every worker in every replicas mode,
        so the JSON is byte-identical whichever process served."""
        outs = []
        for workers in ("1", "2"):
            path = tmp_path / f"w{workers}.json"
            assert main(["serve", *WARMUP_SERVE, *mode, "--workers", workers,
                         "--out", str(path)]) == 0
            outs.append(path.read_bytes())
        assert "warmed dynamic cache" in capsys.readouterr().out
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("bad", [
        ["--scale-min", "3", "--scale-max", "2"],
        ["--qps", ","],
        ["--num-replicas", "0"],
        ["--fanout", "5,x"],
        ["--qps", "0"],
        ["--batch-max", "0"],
        ["--queue-capacity", "0"],
        ["--batch-timeout-ms", "-1"],
        ["--metrics", "--metrics-window-ms", "0"],
        ["--metrics", "--metrics-window-ms", "-1"],
        ["--tenants", "-1"],
        ["--cache-warmup", "-1"],
        ["--workers", "0"],
        ["--workers", "-3"],
        ["--qps", "inf"],
        ["--cache-warmup", "4"],
    ], ids=["scale-range", "qps", "zero-replicas", "fanout", "zero-qps",
            "zero-batch-max", "zero-queue", "negative-timeout",
            "zero-window", "negative-window", "negative-tenants",
            "negative-warmup", "zero-workers", "negative-workers",
            "inf-qps", "warmup-without-dynamic-cache"])
    def test_serve_bad_input_is_one_line_error(self, capsys, bad):
        assert main(["serve", *ARGS, "--requests", "8", *bad]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("flag,value", [
        ("--metrics-window-ms", "0"), ("--metrics-window-ms", "-1"),
        ("--tenants", "-1"), ("--cache-warmup", "-1"),
        ("--workers", "0"), ("--workers", "-3"),
    ])
    def test_count_and_window_errors_name_flag_and_value(self, capsys, flag,
                                                         value):
        assert main(["serve", *ARGS, "--requests", "8", "--metrics",
                     flag, value]) == 1
        err = capsys.readouterr().err
        assert flag in err and f"got {value}" in err

    @pytest.mark.parametrize("bad,needles", [
        (["--qps", "inf"], ["--qps", "'inf'"]),
        (["--cache-warmup", "4"], ["--cache-warmup 4", "--dynamic-cache"]),
    ], ids=["inf-qps", "warmup-without-dynamic-cache"])
    def test_silent_accepts_name_flag_and_value(self, capsys, bad, needles):
        assert main(["serve", *ARGS, "--requests", "8", *bad]) == 1
        err = capsys.readouterr().err
        assert all(n in err for n in needles), err

    @pytest.mark.parametrize("command,bad,needle", [
        ("compare", ["--batches", "0"], "--batches"),
        ("compare", ["--workers", "0"], "--workers"),
        ("chaos", ["--batches", "0"], "--batches"),
        ("chaos", ["--requests", "0"], "--requests"),
        ("chaos", ["--qps", "inf"], "--qps"),
        ("chaos", ["--workers", "0"], "--workers"),
        ("control", ["--qps", "-1", "--scenarios", "none"], "--qps"),
        ("control", ["--scenarios", "nope"], "'nope'"),
        ("control", ["--workers", "-3"], "--workers"),
        ("control", ["--requests", "0"], "--requests expects a count >= 1, got 0"),
        ("control", ["--skew", "-1"], "--skew expects an exponent >= 0, got -1"),
        ("control", ["--drift-phases", "0"], "--drift-phases expects a count >= 1, got 0"),
        ("trace", ["--batches", "0"], "--batches expects a count >= 1, got 0"),
        ("serve", ["--batch-timeout-ms", "nan"],
         "--batch-timeout-ms expects a finite value >= 0, got nan"),
        ("serve", ["--controller", "--control-interval-ms", "nan"],
         "--control-interval-ms expects a positive finite value, got nan"),
        ("control", ["--scenarios", "none", "--slo-ms", "nan"],
         "--slo-ms expects a positive finite value, got nan"),
        ("train", ["--cache-bytes", "nan"],
         "--cache-bytes expects a finite byte budget >= 0, got nan"),
        ("serve", ["--slo-ms", "nan"],
         "--slo-ms expects a positive finite value, got nan"),
        ("train", ["--lr", "nan"], "--lr expects a positive finite value, got nan"),
        ("train", ["--dynamic-cache", "--cache-bias", "nan"],
         "--cache-bias expects a finite value >= 0, got nan"),
        ("serve", ["--scale-max", "2", "--target-qps-per-replica", "nan"],
         "--target-qps-per-replica expects a positive finite value, got nan"),
        ("serve", ["--slo-ms", "inf"],
         "--slo-ms expects a positive finite value, got inf"),
        ("serve", ["--batch-timeout-ms", "inf"],
         "--batch-timeout-ms expects a finite value >= 0, got inf"),
        ("train", ["--hidden", "0"], "--hidden expects a count >= 1, got 0"),
        ("train", ["--cache-window", "0"],
         "--cache-window expects a count >= 1, got 0"),
        ("serve", ["--slo-ms", "0"],
         "--slo-ms expects a positive finite value, got 0"),
        ("serve", ["--controller", "--control-interval-ms", "0"],
         "--control-interval-ms expects a positive finite value, got 0"),
        ("serve", ["--scale-max", "2", "--scale-min", "0"],
         "--scale-min expects a count >= 1, got 0"),
        ("train", ["--cache-bytes", "1e15"],
         "--cache-bytes expects a budget <= GPU 0's free memory "
         "(1.46028e+10 B), got 1e+15"),
        ("train", ["--cache-bytes", "inf"],
         "--cache-bytes expects a finite byte budget >= 0, got inf"),
    ], ids=["compare-zero-batches", "compare-zero-workers",
            "chaos-zero-batches", "chaos-zero-requests", "chaos-inf-qps",
            "chaos-zero-workers", "control-negative-qps",
            "control-unknown-scenario", "control-negative-workers",
            "control-zero-requests", "control-negative-skew",
            "control-zero-drift-phases", "trace-zero-batches",
            "serve-nan-batch-timeout", "serve-nan-control-interval",
            "control-nan-slo", "train-nan-cache-bytes", "serve-nan-slo",
            "train-nan-lr", "train-nan-cache-bias",
            "serve-nan-target-qps-per-replica", "serve-inf-slo",
            "serve-inf-batch-timeout", "train-zero-hidden",
            "train-zero-cache-window", "serve-zero-slo",
            "serve-zero-control-interval", "serve-zero-scale-min",
            "train-over-budget-cache-bytes", "train-inf-cache-bytes"])
    def test_fan_out_bad_input_is_one_line_error(self, capsys, command, bad,
                                                 needle):
        """Rejected before any task reaches ``run_tasks``, so the error
        is one line instead of a worker's traceback."""
        assert main([command, *ARGS, *bad]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert needle in err

    def test_qps_error_names_flag_and_value(self, capsys):
        assert main(["serve", *ARGS, "--requests", "8",
                     "--qps", "2000,0"]) == 1
        err = capsys.readouterr().err
        assert "--qps" in err and "'2000,0'" in err

    @pytest.mark.parametrize("command", ["compare", "chaos"])
    def test_unknown_system_is_one_line_error(self, capsys, command):
        assert main([command, *ARGS, "--systems", "NOPE"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--systems" in err and "'NOPE'" in err

    def test_fanout_error_names_flag_and_value(self, capsys):
        assert main(["train", *ARGS, "--fanout", "5,x", "--epochs", "1"]) == 1
        err = capsys.readouterr().err
        assert "--fanout" in err and "'5,x'" in err

    def test_parser_surface_pinned(self):
        """Every subcommand keeps its option strings, dests, defaults,
        types, choices and actions (help text is free to change)."""
        with open(SURFACE) as f:
            assert _surface(build_parser()) == json.load(f)

    def test_serve_bad_arrival_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--arrival", "uniform"])

    def test_parser_rejects_unknown_system(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--system", "magic"])

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


#: the commands whose flags build configs, fuzzed below
FUZZ_COMMANDS = ("train", "compare", "serve", "chaos", "control")
_INTS = st.integers(-3, 4)
_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0, 0.5, 5.0]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@functools.lru_cache(maxsize=None)
def _parser():
    return build_parser()


def _fuzz_space(command):
    """``({numeric flag: type}, [switch flags])`` of ``command``."""
    sub = next(a for a in _parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    actions = sub.choices[command]._actions
    numeric = {a.option_strings[0]: a.type for a in actions
               if a.type in (int, float)}
    switches = [a.option_strings[0] for a in actions
                if isinstance(a, argparse._StoreTrueAction)
                and a.dest != "json"]
    return numeric, switches


@pytest.mark.parametrize("command", FUZZ_COMMANDS)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_config_flags_fuzzed_end_in_config_error_or_finite_configs(command,
                                                                   data):
    """Random flag values (ints <= 0, NaN, +-inf, negatives; with
    --num-nodes, --controller, --scale-max and --num-replicas in the
    space) either fail with a ConfigError in the CLI's config-building
    step, or build configs whose float fields are all finite."""
    numeric, switches = _fuzz_space(command)
    argv = [command, *ARGS]
    for flag in data.draw(st.lists(st.sampled_from(sorted(numeric)),
                                   max_size=3, unique=True)):
        value = data.draw(_INTS if numeric[flag] is int else _FLOATS)
        argv.append(f"{flag}={value!r}")
    argv += data.draw(st.lists(st.sampled_from(switches), unique=True))
    args = _parser().parse_args(argv)
    try:
        configs = build_configs(args)
    except ConfigError:
        return
    for cfg in configs.values():
        for f in dataclasses.fields(cfg):
            value = getattr(cfg, f.name)
            if isinstance(value, float):
                assert math.isfinite(value), (argv, f.name)
