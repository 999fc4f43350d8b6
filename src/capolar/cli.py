"""Command line front end for the Monte Carlo harness.

Subcommands: bler, calibrate, uer, diag-llr, selftest.  Every SimConfig
field is reachable as a flag; a flat key=value config file supplies
defaults which explicit flags override.  Grids are compact strings:
``--snr 3:0.5:6`` is an inclusive range, ``--snr 2,3.5`` a list, and
epsilon values accept ``10^-1.5`` alongside plain floats.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Callable, NamedTuple

import numpy as np

from .polar import CodeDims
from .selftest import run_selftest
from .sim import (SimConfig, run_bler_sweep, run_calibration, run_llr_profile,
                  run_uer_sweep)

__all__ = ["main", "cli_entry"]

_DEFAULT_EPSILON = "10^-1,10^-1.5,10^-2,10^-2.5,10^-3"
# the settings every subcommand but selftest needs
_REQUIRED = ("dims", "snr")


def _parse_dims(text: str) -> CodeDims:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"dims must be N,K,M; got {text!r}")
    return CodeDims(*(int(p) for p in parts))


def _parse_count(text: str) -> int:
    value = float(text)
    if not value.is_integer():  # fractions, inf and NaN
        raise ValueError(f"{text!r} is not a finite whole number")
    return int(value)


def _parse_value(tok: str) -> float:
    """A finite real number, plain or as base^exponent."""
    base, caret, exp = tok.strip().partition("^")
    try:
        value = math.pow(float(base), float(exp)) if caret else float(base)
    except (OverflowError, ValueError):  # too large, complex, or not a number
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{tok.strip()!r} is not a finite real number")
    return value


def _parse_grid(text: str) -> tuple[float, ...]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range must be start:step:stop; got {text!r}")
        start, step, stop = (_parse_value(p) for p in parts)
        if step <= 0 or stop < start:
            raise ValueError(f"bad range {text!r}: need step > 0 and stop >= start")
        n = int(round((stop - start) / step))
        grid = tuple(start + i * step for i in range(n + 1))
        return tuple(g for g in grid if g <= stop + 1e-9)
    return tuple(_parse_value(p) for p in text.split(","))


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _read_config(path: str) -> dict[str, str]:
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


class _Setting(NamedTuple):
    """One experiment setting, reachable as ``--key`` (underscores as
    dashes) and as a ``key = value`` config-file line."""

    field: str  # the SimConfig field it sets
    parse: Callable[[str], object]  # flag and config-file text to value
    help: str
    choices: tuple[str, ...] | None = None


# every SimConfig field but emit_plot, in flag order
_SETTINGS = {
    "dims": _Setting("dims", _parse_dims, "code dimensions N,K,M (e.g. 64,48,24)"),
    "snr": _Setting("snr_grid_db", _parse_grid,
                    "Eb/N0 grid in dB: start:step:stop or comma list"),
    "systematic": _Setting("systematic", _parse_bool, "systematic inner code"),
    "list": _Setting("list_size", int, "inner list size L"),
    "decoder": _Setting("decoder", str, "plain list decoding or the complete pipeline",
                        ("ca_scl", "cca_scl")),
    "epsilon": _Setting("epsilon_grid", _parse_grid,
                        "threshold grid (uer); accepts 10^-1.5 forms"),
    "trials": _Setting("trials", _parse_count, "trial budget per point; accepts 1e6 forms"),
    "min_errors": _Setting("min_errors", int,
                           "stop a point early after this many block errors"),
    "seed": _Setting("master_seed", int, "master seed for the per-trial RNG keys"),
    "method": _Setting("method", str, "information-set construction", ("5g", "bhattacharyya")),
    "outer": _Setting("outer_decoder", str,
                      "outer decoder: pattern guessing or codeword guessing",
                      ("sogrand", "gcd")),
    "outer_budget": _Setting("outer_max_queries", _parse_count,
                             "max outer-decoder pattern queries"),
    "outer_list": _Setting("outer_list_size", int, "outer-decoder list size"),
    "outer_max_weight": _Setting("outer_max_weight", int,
                                 "cap on the outer pattern logistic weight"),
    "retry": _Setting("retry_on_threshold_fail", _parse_bool,
                      "retry threshold failures through the outer decoder"),
    "workers": _Setting("workers", int, "process pool width (results do not depend on it)"),
    "batch_size": _Setting("batch_size", int, "trials per batch"),
    "round_trials": _Setting("round_trials", int, "trials per stop-rule round"),
    "out": _Setting("out_dir", str, "output directory (default $CAPOLAR_OUT_DIR or .)"),
    "stem": _Setting("out_stem", str, "output file stem"),
}


def _add_sim_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="key=value file supplying flag defaults")
    for key, setting in _SETTINGS.items():
        flag = "--" + key.replace("_", "-")
        if setting.parse is _parse_bool:
            p.add_argument(flag, action=argparse.BooleanOptionalAction, default=None,
                           help=setting.help)
        else:
            p.add_argument(flag, choices=setting.choices, help=setting.help)
    p.add_argument("--emit", choices=["plot"],
                   help="also write gnuplot-ready .dat columns")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capolar",
        description="Monte Carlo experiments for complete CRC-aided polar decoding")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (("bler", "block-error-rate sweep over an SNR grid"),
                       ("calibrate", "soft-output calibration histogram"),
                       ("uer", "undetected-error rate vs threshold"),
                       ("diag-llr", "sorted inner/outer LLR reliability profiles")):
        _add_sim_flags(sub.add_parser(name, help=desc))
    sub.add_parser("selftest", help="run the oracle-equivalence suite")
    return parser


def _build_simconfig(args: argparse.Namespace, defaults: dict) -> SimConfig:
    values = dict(defaults)
    if args.config:
        file_cfg = _read_config(args.config)
        unknown = set(file_cfg) - set(_SETTINGS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, raw in file_cfg.items():
            values[key] = _SETTINGS[key].parse(raw)
    for key, setting in _SETTINGS.items():
        given = getattr(args, key, None)
        if given is None:
            continue
        values[key] = setting.parse(given) if isinstance(given, str) else given
    for key in _REQUIRED:
        if values.get(key) is None:
            raise ValueError(f"missing required setting {key!r} (flag --{key.replace('_', '-')})")
    kwargs = {_SETTINGS[k].field: v for k, v in values.items() if v is not None}
    kwargs["emit_plot"] = args.emit == "plot"
    return SimConfig(**kwargs)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "selftest":
        return run_selftest()
    try:
        if args.command == "bler":
            cfg = _build_simconfig(args, {})
            records = run_bler_sweep(cfg)
            for r in records:
                print(f"snr {r.snr_db:g} dB: trials {r.trials}, "
                      f"bler {r.bler:.3e}, rescues {r.outer_rescues}/{r.inner_crc_failures}")
        elif args.command == "calibrate":
            cfg = _build_simconfig(args, {"decoder": "ca_scl"})
            result = run_calibration(cfg)
            for b in result["so"]:
                if b.count:
                    print(f"bin ({b.lower:.2e}, {b.upper:.2e}]: n={b.count}, "
                          f"predicted {b.mean_predicted:.3e}, "
                          f"empirical {b.empirical_error_rate:.3e}")
        elif args.command == "uer":
            cfg = _build_simconfig(args, {"epsilon": _parse_grid(_DEFAULT_EPSILON)})
            records = run_uer_sweep(cfg)
            for r in records:
                print(f"snr {r.snr_db:g} dB eps {r.epsilon:.3e}: "
                      f"uer {r.uer:.3e}, erasure rate {r.erasures / r.trials:.3e}")
        elif args.command == "diag-llr":
            cfg = _build_simconfig(args, {"trials": 1000})
            profile = run_llr_profile(cfg)
            mid = {k: float(np.median(v)) for k, v in profile.items()}
            print(f"median |LLR|: inner {mid['inner']:.3f}, outer {mid['outer']:.3f}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


cli_entry = main

if __name__ == "__main__":
    sys.exit(main())
