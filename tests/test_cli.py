import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import capolar

from capolar.cli import (
    _SETTINGS,
    _build_simconfig,
    _parse_bool,
    _parse_count,
    _parse_dims,
    _parse_grid,
    _parse_value,
    build_parser,
    main,
)
from capolar.polar import CodeDims
from capolar.sim import OUT_DIR_ENV, SimConfig

DIMS = ["--dims", "16,9,3"]
SMALL = DIMS + ["--snr", "3", "--trials", "64", "--list", "2",
                "--outer-budget", "64"]


def test_parse_helpers():
    assert _parse_dims("64,48,24") == CodeDims(64, 48, 24)
    with pytest.raises(ValueError):
        _parse_dims("64,48")
    assert _parse_count("1e4") == 10_000
    with pytest.raises(ValueError):
        _parse_count("2.5")
    assert _parse_value("10^-1.5") == pytest.approx(10.0 ** -1.5)
    assert _parse_value("0.25") == 0.25
    assert _parse_grid("3:0.5:4.5") == pytest.approx((3.0, 3.5, 4.0, 4.5))
    assert _parse_grid("2,3.5") == (2.0, 3.5)
    assert _parse_grid("10^-1,10^-2") == pytest.approx((0.1, 0.01))
    with pytest.raises(ValueError):
        _parse_grid("5:1:3")
    with pytest.raises(ValueError):
        _parse_grid("1:2:3:4")
    assert _parse_bool("Yes") and _parse_bool("1")
    assert not _parse_bool("off")
    with pytest.raises(ValueError):
        _parse_bool("maybe")


def test_counts_parse_exactly_and_accept_float_forms(tmp_path):
    assert _parse_count("1e3") == 1000 and _parse_count("-3") == -3
    # an integer literal is read as one, not through a float
    seed = "18446744073709551615"
    assert _parse_count(seed) == 2 ** 64 - 1
    args = build_parser().parse_args(["bler"] + SMALL + ["--seed", seed])
    assert _build_simconfig(args, {}).master_seed == 2 ** 64 - 1
    rc = main(["bler"] + SMALL + ["--min-errors", "1e3", "--outer-budget", "3.2e1",
               "--out", str(tmp_path), "--stem", "n"])
    assert rc == 0
    config = json.loads((tmp_path / "n.json").read_text())["config"]
    assert config["min_errors"] == 1000 and config["outer_max_queries"] == 32


@pytest.mark.parametrize("value", ["2.5", "1e400"])
@pytest.mark.parametrize("flag", ["--list", "--min-errors", "--workers",
                                  "--outer-budget", "--seed"])
def test_count_flags_refuse_what_is_not_a_whole_number(tmp_path, capsys, flag, value):
    rc = main(["bler"] + SMALL + [flag, value, "--out", str(tmp_path), "--stem", "t"])
    assert rc == 2
    assert "whole number" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_ranges_step_exactly():
    # point i is the float nearest start + i * step, so no point drifts
    assert _parse_grid("-1:0.2:1") == (-1.0, -0.8, -0.6, -0.4, -0.2, 0.0, 0.2, 0.4,
                                       0.6, 0.8, 1.0)
    assert _parse_grid("0:0.3:1") == (0.0, 0.3, 0.6, 0.9)
    assert _parse_grid("10^0:10^-1:1.25") == (1.0, 1.1, 1.2)
    # dyadic grids, such as the scripts', give the floats they always gave
    assert _parse_grid("5:0.5:8") == tuple(5 + 0.5 * i for i in range(7))
    for grid in ("5.0:0.25:8.0", "4.5:0.25:7.0", "4.0:0.25:6.5"):
        start, step, stop = map(float, grid.split(":"))
        n = int((stop - start) / step)
        assert _parse_grid(grid) == tuple(start + step * i for i in range(n + 1))


@pytest.mark.parametrize("grid, match", [
    ("1:1e-17:1.0000000000000002", "repeats points"),
    ("0:1e-12:1", "more than 10000 points"),  # refused before it is built
    ("0:0.5:5000", "more than 10000 points"),
    ("3,3", "repeats points"),
    ("10^-1,0.1", "repeats points"),
])
def test_ranges_that_repeat_or_overflow_are_refused(tmp_path, capsys, grid, match):
    with pytest.raises(ValueError, match=match):
        _parse_grid(grid)
    rc = main(["bler"] + DIMS + [f"--snr={grid}", "--out", str(tmp_path), "--stem", "t"])
    assert rc == 2 and match in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_outer_max_weight_is_no_setting(tmp_path, capsys):
    # the budget is max_queries alone; a weight cap is the budget S(k, w)
    with pytest.raises(SystemExit) as exc:
        main(["bler"] + SMALL + ["--outer-max-weight", "20"])
    assert exc.value.code == 2
    cfgfile = tmp_path / "w.cfg"
    cfgfile.write_text("outer_max_weight = 20\n")
    rc = main(["bler"] + SMALL + ["--config", str(cfgfile), "--out", str(tmp_path)])
    assert rc == 2 and "outer_max_weight" in capsys.readouterr().err
    assert not any(p.suffix == ".csv" for p in tmp_path.iterdir())


def test_bler_row_per_snr(tmp_path, capsys):
    rc = main(["bler"] + DIMS + ["--snr", "3,25", "--trials", "64",
               "--list", "2", "--outer-budget", "64",
               "--out", str(tmp_path), "--stem", "t"])
    assert rc == 0
    lines = (tmp_path / "t.csv").read_bytes().decode().strip().split("\r\n")
    assert len(lines) == 3  # header + one row per SNR point
    printed = capsys.readouterr().out.strip().split("\n")
    assert len(printed) == 2 and printed[0].startswith("snr 3 dB:")


def test_config_file_defaults_flags_override(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "# comment line\n"
        "dims = 16,9,3\n"
        "seed = 1\n"
        "trials = 32\n"
        "list = 2\n"
        "outer_budget = 64\n")
    rc = main(["bler", "--config", str(cfgfile), "--snr", "25",
               "--seed", "7", "--out", str(tmp_path), "--stem", "c"])
    assert rc == 0
    blob = json.loads((tmp_path / "c.json").read_text())
    assert blob["config"]["master_seed"] == 7  # flag beats file
    assert blob["config"]["trials"] == 32      # file beats default
    assert blob["config"]["list_size"] == 2


def test_repeated_config_key_rejected(tmp_path, capsys):
    cfgfile = tmp_path / "twice.cfg"
    cfgfile.write_text("dims = 16,9,3\nlist = 2\ntrials = 32\nlist = 4\n")
    rc = main(["bler", "--config", str(cfgfile), "--snr", "3",
               "--out", str(tmp_path), "--stem", "dup"])
    assert rc == 2
    assert f"{cfgfile}:4: duplicate key 'list'" in capsys.readouterr().err
    assert not list(tmp_path.glob("dup.*"))


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("dims = 16,9,3\nspeed = 11\n")
    rc = main(["bler", "--config", str(cfgfile), "--snr", "3"])
    assert rc == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_missing_required_flag(capsys):
    rc = main(["bler", "--snr", "3"])
    assert rc == 2
    assert "missing required setting 'dims'" in capsys.readouterr().err


def test_invalid_dims_names_the_invariant(capsys):
    rc = main(["bler", "--dims", "63,48,24", "--snr", "3"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "power of two" in err


@pytest.mark.parametrize("snr, trials", [
    ("3,nan", "64"), ("3,inf", "64"), ("3,-inf", "64"),
    ("-1^0.5", "64"),  # a complex power
    ("10^400", "64"),  # overflows a float
    ("3", "1e400"),
], ids=["nan", "inf", "-inf", "complex", "overflow", "trials-overflow"])
def test_non_finite_snr_exits_2_before_any_output(tmp_path, capsys, snr, trials):
    rc = main(["bler"] + DIMS + [f"--snr={snr}", "--trials", trials,
               "--out", str(tmp_path), "--stem", "t"])
    assert rc == 2
    assert "finite" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["calibrate", "diag-llr"])
def test_single_point_commands_refuse_a_grid(tmp_path, capsys, command):
    # both tables are made at one SNR point; a second point is not dropped
    # without a word
    rc = main([command] + DIMS + ["--snr", "1,2", "--trials", "64", "--list", "2",
               "--out", str(tmp_path), "--stem", "t"])
    assert rc == 2
    assert "one SNR point" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_unknown_flag_exits_with_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bler", "--frobnicate", "1"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_out_dir_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
    rc = main(["bler"] + SMALL + ["--stem", "env"])
    assert rc == 0
    assert (tmp_path / "env.csv").exists()


def test_emit_plot_writes_dat(tmp_path):
    rc = main(["bler"] + SMALL + ["--out", str(tmp_path), "--stem", "p",
               "--emit", "plot"])
    assert rc == 0
    dat = (tmp_path / "p.dat").read_text().splitlines()
    assert dat[0] == "# snr_db bler bler_lo bler_hi"


def test_calibrate_subcommand(tmp_path, capsys):
    rc = main(["calibrate"] + SMALL + ["--out", str(tmp_path), "--stem", "cal"])
    assert rc == 0
    assert "bin (" in capsys.readouterr().out
    blob = json.loads((tmp_path / "cal.json").read_text())
    assert blob["kind"] == "calibrate"
    assert blob["config"]["decoder"] == "ca_scl"  # calibration default
    # the bins read the inner soft outputs only, so cca_scl would run ca_scl
    rc = main(["calibrate"] + SMALL + ["--decoder", "cca_scl", "--out", str(tmp_path),
               "--stem", "cca"])
    assert rc == 2 and "ca_scl decoder only" in capsys.readouterr().err
    assert not list(tmp_path.glob("cca*"))


def test_uer_default_epsilon_grid(tmp_path, capsys):
    rc = main(["uer"] + SMALL + ["--out", str(tmp_path), "--stem", "u"])
    assert rc == 0
    blob = json.loads((tmp_path / "u.json").read_text())
    assert blob["config"]["epsilon_grid"] == pytest.approx(
        [10.0 ** e for e in (-1.0, -1.5, -2.0, -2.5, -3.0)])
    assert capsys.readouterr().out.count("eps") == 5


def test_uer_outer_decoder_flag(tmp_path):
    rc = main(["uer"] + SMALL + ["--outer", "gcd", "--epsilon", "10^-1",
               "--out", str(tmp_path), "--stem", "g"])
    assert rc == 0
    blob = json.loads((tmp_path / "g.json").read_text())
    assert blob["config"]["outer_decoder"] == "gcd"


def test_diag_llr_subcommand(tmp_path, capsys):
    rc = main(["diag-llr"] + DIMS + ["--snr", "6", "--trials", "128",
               "--out", str(tmp_path), "--stem", "d"])
    assert rc == 0
    assert "median |LLR|" in capsys.readouterr().out
    assert (tmp_path / "d.csv").exists()


def test_python_dash_m_runs_the_cli(tmp_path):
    # python -m capolar works without the installed console script
    env = dict(os.environ, PYTHONPATH=str(Path(capolar.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, "-m", "capolar", "bler"] + SMALL
        + ["--out", str(tmp_path), "--stem", "m"],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "snr 3 dB" in done.stdout
    assert (tmp_path / "m.csv").exists()


def test_every_setting_is_a_flag_and_a_config_key(tmp_path):
    # one value per setting, none of them SimConfig's default
    text = {"dims": "16,9,3", "snr": "3,4", "systematic": "1", "list": "2",
            "decoder": "ca_scl", "epsilon": "10^-2", "trials": "1e3", "min_errors": "7",
            "seed": "-3", "outer": "gcd", "outer_budget": "64",
            "retry": "1", "workers": "2", "out": str(tmp_path), "stem": "s"}
    assert set(text) == set(_SETTINGS)
    fields = {f.name for f in dataclasses.fields(SimConfig)}
    assert {s.field for s in _SETTINGS.values()} == fields - {"emit_plot"}

    flags = []
    for key, value in text.items():
        flag = "--" + key.replace("_", "-")
        if _SETTINGS[key].parse is _parse_bool:
            flags.append(flag)
        else:
            flags += [flag, value]
    by_flag = _build_simconfig(build_parser().parse_args(["bler"] + flags), {})
    cfgfile = tmp_path / "all.cfg"
    cfgfile.write_text("".join(f"{key} = {value}\n" for key, value in text.items()))
    by_file = _build_simconfig(
        build_parser().parse_args(["bler", "--config", str(cfgfile)]), {})
    assert by_flag == by_file
    default = SimConfig(CodeDims(64, 48, 24), (0.0,))
    for key, setting in _SETTINGS.items():
        want = setting.parse(text[key])
        assert getattr(by_flag, setting.field) == want, key
        assert want != getattr(default, setting.field), key

    # the guessers return one word, so an outer list is no setting; N picks
    # the construction, so neither is the method; every sweep runs one trial
    # grid, so neither are batch_size and round_trials
    out = ["--out", str(tmp_path), "--stem", "ol"]
    for key, value in (("outer_list", "2"), ("method", "5g"), ("batch_size", "64"),
                       ("round_trials", "100")):
        with pytest.raises(SystemExit) as exc:
            main(["bler"] + SMALL + ["--" + key.replace("_", "-"), value] + out)
        assert exc.value.code == 2
        cfgfile.write_text(f"{key} = {value}\n")
        assert main(["bler"] + SMALL + ["--config", str(cfgfile)] + out) == 2
    assert not list(tmp_path.glob("ol*"))
