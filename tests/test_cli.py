"""CLI surface: subcommands, exit codes, config plumbing."""

import argparse
import csv
import json
import subprocess
import sys
from dataclasses import fields

import pytest

from wigmatch.cli import _add_config_flags, build_parser, main
from wigmatch.config import CHOICES, FIELD_TYPES, RunConfig, make_config, parse_config_file
from wigmatch.errors import EXIT_CONFIG
from wigmatch.model import STRATEGIES
from wigmatch.pipeline import run_pipeline


# RunConfig's class constants that stand for library parameter defaults
ALGORITHM_CONSTANTS = ("gamma", "xi_factor", "denoiser_b", "threshold_mult",
                       "clique_weight", "spike_scale", "max_resamples", "max_swaps")


def run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "wigmatch.cli", *args],
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def test_run_subcommand_in_process(capsys):
    code = main(["run", "--n", "100", "--rho", "0.9", "--epsilon", "0.0",
                 "--k0", "24", "--master-seed", "5", "--min-rounds", "0"])
    assert code == 0
    line = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert line["status"] == "ok"
    assert "overlap_final" in line


def test_run_writes_manifest(tmp_path, capsys):
    out = tmp_path / "m.json"
    code = main(["run", "--n", "80", "--rho", "0.9", "--k0", "24",
                 "--master-seed", "1", "--min-rounds", "0", "--output", str(out)])
    assert code == 0
    capsys.readouterr()
    rec = json.loads(out.read_text())
    assert rec["status"] == "ok"
    assert rec["config"]["n"] == 80


def test_run_output_under_missing_directory_exits_1(tmp_path, capsys):
    code = main(["run", "--n", "80", "--k0", "24", "--master-seed", "1",
                 "--output", str(tmp_path / "missing" / "run.json")])
    line = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert code == 1
    assert line["status"] == "failed:output"


def test_config_error_exit_code(capsys):
    code = main(["run", "--n", "100", "--rho", "2.0"])
    capsys.readouterr()
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("name, reason", [("missing.cfg", "No such file or directory"),
                                          (".", "Is a directory")])
def test_an_unreadable_config_file_is_a_config_error(name, reason, tmp_path, capsys):
    path = tmp_path / name
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: cannot read config file {path}: {reason}\n"


def test_a_config_file_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "utf16.cfg"
    path.write_bytes(b"\xff\xfen=100\n")
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config file {path}: 'utf-8' codec ")


def test_constants_subcommand(capsys):
    code = main(["constants", "--rho", "0.8", "--n", "1000", "--k0", "24"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    for key in ("a1", "phi_second_deriv_at_zero", "lambda_cap", "eps0",
                "reference_k0_bound", "alpha", "psi_rho", "delta", "t_star"):
        assert key in out
    assert out["reference_k0_bound"] > 1e30
    assert out["t_star"] == 0


@pytest.mark.parametrize("rho, n, k0", [(0.8, 1000, 24), (0.9, 400, 12), (0.5, 5000, 30)])
def test_constants_reads_the_schedule_values_it_once_recomputed(rho, n, k0, capsys):
    # the five values the schedule carries equal, to the bit, the functions
    # that compute them
    from wigmatch.denoiser import (build_schedule, growth_ratio_condition, lambda_bound,
                                   make_denoiser, phi_map, phi_second_deriv_at_zero)
    assert main(["constants", "--rho", str(rho), "--n", str(n), "--k0", str(k0)]) == 0
    out = json.loads(capsys.readouterr().out)
    d = make_denoiser()
    want = {"c2": phi_second_deriv_at_zero(d) / 2.0, "lambda_cap": lambda_bound(d),
            "eps0": phi_map(d, rho / 2.0),
            "eq25_ratio_at_k0": growth_ratio_condition(rho, d, k0),
            "t_star": build_schedule(rho, n, k0, d=d, min_rounds=0).t_star}
    assert {key: out[key] for key in want} == want
    assert list(out) == ["denoiser_b", "a1", "phi_second_deriv_at_zero", "c2", "lambda_cap",
                         "eps0", "reference_k0_bound", "eq25_ratio_at_k0", "alpha",
                         "psi_rho", "delta", "t_star"]


def test_sweep_subcommand(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    summary = tmp_path / "summary.json"
    code = main(["sweep", "--n", "80", "--rho", "0.9", "--k0", "24",
                 "--min-rounds", "0", "--master-seed", "2", "--trials", "2",
                 "--epsilons", "0.0,0.05", "--strategies", "zero-out",
                 "--csv", str(csv_path), "--summary", str(summary)])
    assert code == 0
    assert "4 rows" in capsys.readouterr().out
    assert len(csv_path.read_text().strip().split("\n")) == 5


def test_sweep_lists_allow_spaces(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    code = main(["sweep", "--n", "80", "--rho", "0.9", "--k0", "24",
                 "--master-seed", "2", "--epsilons", "0.0, 0.05",
                 "--strategies", "zero-out, rank1-spike", "--csv", str(csv_path)])
    assert code == 0
    assert "4 rows, 0 failed" in capsys.readouterr().out
    rows = list(csv.DictReader(csv_path.open()))
    assert [r["strategy"] for r in rows] == ["zero-out", "rank1-spike"] * 2
    assert all(r["status"] == "ok" for r in rows)


def test_min_rounds_the_schedule_cannot_size_is_a_config_error(capsys):
    # K_9 at k0 = 24 passes the float range: the schedule refuses min_rounds
    # = 9 as a config error rather than dying on an OverflowError
    code = main(["run", "--n", "200", "--k0", "24", "--min-rounds", "9"])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG, err
    assert err.startswith("config error: min_rounds=9 ")
    rec = run_pipeline(RunConfig(n=200, k0=24, min_rounds=9))
    assert (rec["status"], rec["exit_code"]) == ("failed:setup", EXIT_CONFIG)
    assert rec["error"].startswith("ScheduleError: min_rounds=9 ")


@pytest.mark.parametrize("args", [["sweep", "--ns", "80,abc", "--k0", "24"],
                                  ["sweep", "--epsilons", "0.0,x", "--k0", "24"],
                                  ["run", "--n", "80", "--k0", "24", "--epsilon", "0.05",
                                   "--rho", "nan"],
                                  ["run", "--n", "64", "--master-seed", "-1"],
                                  ["sweep", "--n", "80", "--k0", "24", "--workers", "0"],
                                  ["sweep", "--n", "80", "--k0", "24", "--workers", "-3"]])
def test_malformed_values_exit_2(args):
    code, _, err = run_cli(args)
    assert code == EXIT_CONFIG, err
    assert err.startswith("config error:")


@pytest.mark.parametrize("lists", [["--rhos", "0.9,2.0"], ["--ns", "80,10"]])
def test_invalid_sweep_list_value_exits_2(lists, tmp_path):
    # every cell is validated before the first row runs, so no row is written
    csv_path = tmp_path / "rows.csv"
    code, out, err = run_cli(["sweep", "--n", "80", "--k0", "24", "--epsilons", "0.0",
                              *lists, "--csv", str(csv_path)])
    assert code == EXIT_CONFIG, err
    assert err.startswith("config error:")
    assert "rows" not in out and not csv_path.exists()


def test_a_repeated_sweep_value_exits_2(tmp_path):
    # one cell run twice would write two trial-0 rows and count 2 trials
    csv_path = tmp_path / "rows.csv"
    code, out, err = run_cli(["sweep", "--n", "80", "--k0", "24", "--trials", "1",
                              "--epsilons", "0.01,0.01", "--csv", str(csv_path)])
    assert code == EXIT_CONFIG, err
    assert err.startswith("config error: epsilons repeats a value")
    assert "rows" not in out and not csv_path.exists()


@pytest.mark.parametrize("lists", [["--ns", ","], ["--strategies", " ,"]])
def test_an_empty_sweep_list_exits_2(lists, tmp_path):
    # a list of separators alone parses to no value, which would run 0 rows
    csv_path = tmp_path / "rows.csv"
    code, out, err = run_cli(["sweep", "--n", "80", "--k0", "12", *lists,
                              "--csv", str(csv_path)])
    assert code == EXIT_CONFIG, err
    assert err.startswith(f"config error: {lists[0][2:]} is empty")
    assert "rows" not in out and not csv_path.exists()


def test_cli_subprocess_smoke():
    code, out, err = run_cli(["run", "--n", "64", "--rho", "0.9", "--k0", "24",
                              "--master-seed", "3", "--min-rounds", "0"])
    assert code == 0, err
    assert json.loads(out.strip().split("\n")[-1])["status"] == "ok"


def test_cli_trials_repeats(capsys):
    code = main(["run", "--n", "64", "--rho", "0.9", "--k0", "24",
                 "--master-seed", "3", "--min-rounds", "0", "--trials", "3"])
    assert code == 0
    lines = [json.loads(x) for x in capsys.readouterr().out.strip().split("\n")]
    assert len(lines) == 3
    assert [ln["trial"] for ln in lines] == [0, 1, 2]


def test_run_trials_dump_each_to_its_own_directory(tmp_path, capsys):
    # trial t dumps to <dump-dir>.<t>, as its manifest goes to <output>.<t>
    flags = ["--n", "80", "--k0", "12", "--master-seed", "3", "--min-rounds", "0"]
    dumps, out = tmp_path / "d", tmp_path / "m.json"
    assert main(["run", *flags, "--trials", "2", "--dump-dir", str(dumps),
                 "--output", str(out)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.0", "d.1", "m.json.0", "m.json.1"]
    for trial in (0, 1):
        seed = json.loads((tmp_path / f"m.json.{trial}").read_text())["config"]["master_seed"]
        own = tmp_path / "own"
        assert main(["run", *flags, "--master-seed", str(seed), "--dump-dir", str(own)]) == 0
        for name in ("score_oracle.npy", "assignment_oracle.csv"):
            got = (tmp_path / f"d.{trial}" / name).read_bytes()
            assert got == (own / name).read_bytes(), (trial, name)
    capsys.readouterr()


# ------------------------------------------------- flags from RunConfig


def _hand_written_flags(p):
    """The config flags as they were written out by hand before being
    generated from RunConfig; the parity reference."""
    p.add_argument("--config", help="flat KEY=VALUE config file")
    p.add_argument("--n", type=int)
    p.add_argument("--rho", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--strategy")
    p.add_argument("--k0", type=int)
    p.add_argument("--gamma", type=float)
    p.add_argument("--min-rounds", dest="min_rounds", type=int)
    p.add_argument("--xi-factor", dest="xi_factor", type=int)
    p.add_argument("--denoiser-b", dest="denoiser_b", type=float)
    p.add_argument("--master-seed", dest="master_seed", type=int)
    p.add_argument("--mode", choices=["oracle-seed"])
    p.add_argument("--spectral-mode", dest="spectral_mode", choices=["record"])
    p.add_argument("--selection-rule", dest="selection_rule", choices=["scan-order"])
    p.add_argument("--trials", type=int)
    p.add_argument("--threshold-mult", dest="threshold_mult", type=float)
    p.add_argument("--clique-weight", dest="clique_weight", type=float)
    p.add_argument("--spike-scale", dest="spike_scale", type=float)
    p.add_argument("--max-resamples", dest="max_resamples", type=int)
    p.add_argument("--max-swaps", dest="max_swaps", type=int)
    p.add_argument("--bad-seed-candidates", dest="bad_seed_candidates", type=int)
    p.add_argument("--random-candidates", dest="random_candidates", type=int)
    p.add_argument("--output")
    p.add_argument("--dump-dir", dest="dump_dir")
    p.add_argument("--trace-cleaning", dest="trace_cleaning", action="store_true",
                   default=None)
    p.add_argument("--verbose", action="store_true", default=None)


def _flag_specs(add_flags):
    p = argparse.ArgumentParser(add_help=False)
    add_flags(p)
    return {a.dest: {"options": a.option_strings, "type": a.type,
                     "action": type(a).__name__, "default": a.default,
                     "nargs": a.nargs, "const": a.const,
                     "choices": None if a.choices is None else list(a.choices)}
            for a in p._actions}


def test_generated_flags_match_the_hand_written_list():
    generated = _flag_specs(_add_config_flags)
    expected = _flag_specs(_hand_written_flags)
    # the intended changes: strategy's choices are listed, and the three
    # one-value options and the eight algorithm constants are not flags
    expected["strategy"]["choices"] = list(STRATEGIES)
    for constant in ("mode", "spectral_mode", "selection_rule", *ALGORITHM_CONSTANTS):
        del expected[constant]
    assert list(generated) == list(expected)
    for dest in expected:
        assert generated[dest] == expected[dest], dest
    assert set(generated) == {"config"} | {f.name for f in fields(RunConfig)}


_RAW = {int: "13", float: "0.625", str: "somewhere"}


def _flag_overrides(argv):
    args = build_parser().parse_args(["run", *argv])
    return {k: getattr(args, k) for k in FIELD_TYPES}


@pytest.mark.parametrize("name", list(FIELD_TYPES))
def test_config_file_and_flag_give_the_same_value(name, tmp_path):
    base, optional = FIELD_TYPES[name]
    flag = "--" + name.replace("_", "-")
    path = tmp_path / "run.cfg"
    if base is bool:
        path.write_text(f"{name} = true\n")
        assert parse_config_file(path)[name] is True
        assert _flag_overrides([flag])[name] is True
        # an absent flag must not override the file
        assert getattr(make_config(path, _flag_overrides([])), name) is True
        path.write_text(f"{name} = off\n")
        assert parse_config_file(path)[name] is False
        assert getattr(make_config(None, _flag_overrides([])), name) is False
        return
    raw = CHOICES[name][-1] if name in CHOICES else _RAW[base]
    path.write_text(f"{name} = {raw}\n")
    from_file = parse_config_file(path)[name]
    from_flag = _flag_overrides([flag, raw])[name]
    assert type(from_file) is type(from_flag) is base
    assert from_file == from_flag
    if optional:
        path.write_text(f"{name} = none\n")
        assert parse_config_file(path)[name] is None
        assert _flag_overrides([])[name] is None


@pytest.mark.parametrize("flags", [["--strategy", "nope"],
                                   ["--mode", "tiny-enumeration"],
                                   ["--selection-rule", "max-stat"],
                                   ["--spectral-mode", "strict"]])
def test_unknown_choice_exits_2(flags):
    code, _, err = run_cli(["run", "--n", "64", *flags])
    assert code == 2, err
    # the three one-value options are constants, so their flags do not exist
    assert ("invalid choice" if flags[0] == "--strategy" else "unrecognized arguments") in err


def test_one_value_options_are_constants_not_fields():
    names = [f.name for f in fields(RunConfig)]
    assert names == ["n", "rho", "epsilon", "strategy", "k0", "min_rounds", "master_seed",
                     "trials", "bad_seed_candidates", "random_candidates", "output",
                     "dump_dir", "trace_cleaning", "verbose"]
    # the constants stay readable on a config
    cfg = RunConfig()
    assert (cfg.mode, cfg.spectral_mode, cfg.selection_rule) == (
        "oracle-seed", "record", "scan-order")
    assert [getattr(cfg, name) for name in ALGORITHM_CONSTANTS] == [
        None, 12, 1.0, 10.0, 5.0, None, 64, None]
    assert all(len(values) >= 2 for values in CHOICES.values())


def test_one_value_option_is_refused_as_flag_and_as_config_key(tmp_path):
    code, _, err = run_cli(["run", "--n", "64", "--mode", "oracle-seed"])
    assert code == 2 and "unrecognized arguments" in err, err
    path = tmp_path / "run.cfg"
    path.write_text("n = 64\nmode = oracle-seed\n")
    code, _, err = run_cli(["run", "--config", str(path)])
    assert code == EXIT_CONFIG, err
    assert err.startswith("config error:") and "unknown config key 'mode'" in err
    # so are the algorithm constants
    code, _, err = run_cli(["run", "--n", "64", "--threshold-mult", "8"])
    assert code == 2 and "unrecognized arguments" in err, err
    path.write_text("n = 64\ngamma = 0.2\n")
    code, _, err = run_cli(["run", "--config", str(path)])
    assert code == EXIT_CONFIG, err
    assert err.startswith("config error:") and "unknown config key 'gamma'" in err
