#!/usr/bin/env python3
"""Undetected-error-rate control sweep for the [64,43,32] L=8 code.

Decodes with the complete pipeline at a fixed SNR, then applies the
erasure threshold over a grid of epsilon targets: accept only when the
quoted success probability exceeds 1 - epsilon.  In the measured tables
the realised UER stays at or below every target because outer decisions
are rare among all trials, not because every soft output is conservative
(an outer soft output is conservative only given the K outer LLRs it
reads; README, pipeline step 3).  Runs the systematic and non-systematic
variants back to back.
"""

import argparse
import pathlib
import sys

from capolar.cli import main as capolar


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--snr", default="5.0")
    ap.add_argument("--epsilon", default="10^-1,10^-1.5,10^-2,10^-2.5,10^-3")
    ap.add_argument("--trials", default="1e5")
    ap.add_argument("--seed", default="2024")
    ap.add_argument("--out", default="results")
    args = ap.parse_args(argv)
    pathlib.Path(args.out).mkdir(parents=True, exist_ok=True)

    for sysflag in ("no-systematic", "systematic"):
        stem = f"uer_{sysflag.replace('no-', 'non')}"
        print(f"== {stem}", flush=True)
        rc = capolar(["uer", "--dims", "64,43,32", "--list", "8",
                      f"--{sysflag}", "--decoder", "cca_scl",
                      "--outer", "sogrand", "--snr", args.snr,
                      "--epsilon", args.epsilon, "--trials", args.trials,
                      "--seed", args.seed, "--out", args.out,
                      "--stem", stem, "--emit", "plot"])
        if rc:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(run())
