"""Monte Carlo harness: BLER sweeps, soft-output calibration, UER sweeps.

Determinism is the organising principle.  Every trial owns a counter-based
RNG keyed by (master_seed, trial index), trials are grouped into fixed-size
batches, batches into fixed-size rounds, and partial results fold in batch
order.  The worker count changes how batches are scheduled, never what they
compute, so re-running a sweep with a different pool width produces byte
identical CSVs.  The stop rule (enough trials or enough block errors) is
evaluated only at round boundaries for the same reason.

One engine, ``_sweep``, runs every table.  A batch function maps a batch to
one fixed-shape array, and a point's result is the sum of those arrays in
batch order: tallies for bler and uer, bin counts and sums for calibrate,
sorted-|LLR| sums for diag-llr.  bler and uer share one tally rule,
``_tally``: a decision is accepted (bler accepts every decision the decoder
emits, uer applies each threshold of the grid), else its retry is taken,
else it is erased, and an emitted wrong word is an undetected error.  bler
reads no soft output, so its outer stage computes none (``soft=False``);
uer and calibrate read the SO.  No per-trial column outlives its batch.

Output is RFC 4180 CSV plus a JSON sidecar carrying the full configuration,
seed, and wall times; wall times stay out of the CSV so the CSV stays
reproducible.  One writer, ``_write_table``, writes every table's CSV,
sidecar and optional gnuplot ``.dat``; each table supplies its own header,
rows and ``.dat`` lines.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .channel import (ChannelParams, llr_from_channel, message_bits, modulate,
                      saturate_llr, transmit)
from .crc import crc_spec_for
from .outer import outer_llr
from .pipeline import PipelineConfig, apply_threshold, decide_block
from .polar import CodeDims, _checked_int, construct_polar, ca_encode
from .scl import ca_select_batch, scl_decode_batch

__all__ = [
    "SCHEMA_VERSION",
    "OUT_DIR_ENV",
    "CALIBRATION_EDGES",
    "SimConfig",
    "SimRecord",
    "CalibrationBin",
    "wilson_interval",
    "run_bler_sweep",
    "run_calibration",
    "run_uer_sweep",
    "run_llr_profile",
]

SCHEMA_VERSION = 1
OUT_DIR_ENV = "CAPOLAR_OUT_DIR"

# ascending predicted-error edges 10^-5 .. 10^0; samples below 10^-5 land in
# an extra underflow bin so overconfident estimators stay visible, and the
# top edge is 1 because every predicted error 1 - SO lies in [0, 1]
CALIBRATION_EDGES = tuple(10.0 ** (-0.5 * i) for i in reversed(range(11)))


@dataclass(frozen=True)
class SimConfig:
    """One experiment: code, channel grid, decoder, budgets, seeding.

    Construction also builds and checks ``pipe``, the ``PipelineConfig`` of
    the code, the default CRC of its parity length, the list size and the
    outer settings; with ``retry_on_threshold_fail`` its ``retry_epsilon``
    is the strictest threshold of the grid, ``min(epsilon_grid)``.  ``pipe``
    is a plain attribute, not a field, so ``asdict`` and the JSON sidecar
    leave it out and ``replace`` builds it anew.
    """

    dims: CodeDims
    snr_grid_db: tuple[float, ...]
    systematic: bool = False
    list_size: int = 8
    decoder: str = "cca_scl"  # "ca_scl" | "cca_scl"
    epsilon_grid: tuple[float, ...] | None = None
    trials: int = 10_000
    min_errors: int = 100
    master_seed: int = 1
    method: str = "5g"
    outer_max_queries: int = 1 << 16
    outer_decoder: str = "sogrand"
    retry_on_threshold_fail: bool = False
    workers: int = 1
    batch_size: int = 512
    round_trials: int = 8192
    out_dir: str | None = None
    out_stem: str | None = None
    emit_plot: bool = False

    def __post_init__(self):
        # stored as plain ints, so the JSON sidecar can write them; pipe
        # checks the decoder's counts below
        for name, low in (("trials", 1), ("min_errors", 1), ("batch_size", 1),
                          ("round_trials", 1), ("workers", 1), ("master_seed", None)):
            object.__setattr__(self, name, _checked_int(getattr(self, name), name, low))
        if len(self.snr_grid_db) == 0:
            raise ValueError("snr grid must be nonempty")
        if not all(math.isfinite(snr) for snr in self.snr_grid_db):
            raise ValueError(f"snr grid points must be finite, got {self.snr_grid_db}")
        if self.decoder not in ("ca_scl", "cca_scl"):
            raise ValueError(f"unknown decoder {self.decoder!r}")
        if self.round_trials < self.batch_size:
            raise ValueError("need round_trials >= batch_size")
        if self.epsilon_grid is not None:
            if len(self.epsilon_grid) == 0:
                raise ValueError("epsilon grid must be nonempty")
            for eps in self.epsilon_grid:
                if not 0.0 <= eps < 1.0:
                    raise ValueError("epsilon values must lie in [0, 1)")
        if self.retry_on_threshold_fail and self.epsilon_grid is None:
            raise ValueError("retry_on_threshold_fail needs an epsilon grid")
        code = construct_polar(self.dims.n_code, self.dims.k_crc,
                               method=self.method, systematic=self.systematic)
        object.__setattr__(self, "pipe", PipelineConfig(
            code, crc_spec_for(self.dims.parity_bits), self.list_size,
            retry_epsilon=min(self.epsilon_grid) if self.retry_on_threshold_fail else None,
            outer_max_queries=self.outer_max_queries, outer_decoder=self.outer_decoder))
        for name in ("list_size", "outer_max_queries"):
            object.__setattr__(self, name, getattr(self.pipe, name))


@dataclass
class SimRecord:
    """Tallies for one sweep point."""

    snr_db: float
    trials: int
    block_errors: int
    undetected_errors: int
    erasures: int
    inner_crc_failures: int
    outer_rescues: int
    mean_outer_queries: float
    epsilon: float | None = None
    wall_time: float = 0.0

    @property
    def bler(self) -> float:
        return self.block_errors / self.trials

    @property
    def uer(self) -> float:
        return self.undetected_errors / self.trials


@dataclass
class CalibrationBin:
    """Decoded trials whose predicted error fell inside (lower, upper]."""

    lower: float
    upper: float
    count: int
    mean_predicted: float
    empirical_error_rate: float
    errors: int


def wilson_interval(successes: int, total: int, z: float = 1.959963984540054):
    """95% Wilson score interval for a binomial rate."""
    if total == 0:
        return 0.0, 1.0
    p = successes / total
    zz = z * z / total
    center = (p + zz / 2.0) / (1.0 + zz)
    half = z / (1.0 + zz) * math.sqrt(p * (1.0 - p) / total + zz / (4.0 * total))
    return max(0.0, center - half), min(1.0, center + half)


# ---------------------------------------------------------------------------
# batches: each maps (cfg, snr_db, start, count) to one fixed-shape array,
# and a point is their sum

def _trial_wave(cfg: SimConfig, snr_db: float, trials):
    """Messages and decoder-input LLRs for the given trial indices (ints)."""
    params = ChannelParams(snr_db, cfg.dims.rate)
    msgs = message_bits(cfg.master_seed, trials, cfg.dims.m_msg)
    s = modulate(ca_encode(msgs, cfg.pipe.code, cfg.pipe.spec))
    y = transmit(s, params, cfg.master_seed, trials)
    return msgs, saturate_llr(llr_from_channel(y, params))


def _decide_batch(args, soft=True):
    """Per-trial decision columns for one batch of the bler, calibrate and
    uer tables.

    ``decide_block``'s columns, without ``so`` and ``alt_so`` unless
    ``soft``, plus ``correct`` and ``alt_correct``, whether the decision and
    the retry equal the sent message.  Under ``ca_scl`` no outer stage runs
    and a CRC failure, no decision, is never correct.
    """
    cfg, snr_db, start, count = args
    msgs, llr = _trial_wave(cfg, snr_db, range(start, start + count))
    sel = ca_select_batch(scl_decode_batch(llr, cfg.pipe.code, cfg.pipe.list_size),
                          cfg.pipe.spec)
    outer = cfg.decoder == "cca_scl"
    cols = decide_block(sel, llr if outer else None, cfg.pipe, soft=soft)
    cols["correct"] = (cols["message"] == msgs).all(axis=1) & (cols["found"] | outer)
    cols["alt_correct"] = (cols["alt_message"] == msgs).all(axis=1) & cols["retried"]
    return cols


def _tally(cols, accepted, retry_taken):
    """The one tally rule of the bler and uer tables, as int64 counts
    (trials, block errors, undetected errors, erasures, CRC failures, outer
    rescues, outer queries).  An accepted decision or a taken retry is
    emitted, and wrong if it is not the sent message; the rest are erased.
    Every CRC failure is an outer decision under ``cca_scl``, and has no
    queries under ``ca_scl``, so queries / CRC failures is their mean.
    Reads no soft output: the SO enters only through ``accepted`` and
    ``retry_taken``, and bler accepts every decision."""
    correct, failed = cols["correct"], ~cols["found"]
    undetected = (accepted & ~correct) | (retry_taken & ~cols["alt_correct"])
    return np.array([len(correct), (~correct).sum(), undetected.sum(),
                     (~accepted & ~retry_taken).sum(), failed.sum(),
                     (failed & correct).sum(), cols["queries"].sum()], dtype=np.int64)


def _table_batch(args, epsilons=None):
    """The batch's tallies, one row per threshold of ``epsilons`` (uer); or
    one row that accepts every decision (bler), where a ``ca_scl`` CRC
    failure is the only erasure and no soft output is computed."""
    cols = _decide_batch(args, soft=epsilons is not None)
    if epsilons is None:
        accepted = cols["found"] | (args[0].decoder == "cca_scl")
        return _tally(cols, accepted, np.zeros_like(accepted))[None]
    return np.stack([_tally(cols, *apply_threshold(cols, eps)) for eps in epsilons])


def _calibrate_batch(args):
    """Per estimator (so, so_forney), the decoded trials' count, errors and
    predicted-error sum in each bin, as float64 of shape (2, 3, bins)."""
    cols = _decide_batch(args)
    found = cols["found"]
    wrong = ~cols["correct"][found]
    nbins = len(CALIBRATION_EDGES)  # one bin per edge pair plus the underflow bin
    out = []
    for key in ("so", "so_forney"):
        pred = np.clip(1.0 - cols[key][found], 0.0, 1.0)
        idx = np.searchsorted(CALIBRATION_EDGES, pred, side="left")
        out.append([np.bincount(idx, minlength=nbins),
                    np.bincount(idx[wrong], minlength=nbins),
                    np.bincount(idx, weights=pred, minlength=nbins)])
    return np.array(out, dtype=np.float64)


def _profile_batch(args):
    """Sums over the batch of the sorted |channel LLR| (N) and |outer LLR|
    (K) profiles, end to end."""
    cfg, snr_db, start, count = args
    _, llr = _trial_wave(cfg, snr_db, range(start, start + count))
    lo = outer_llr(llr, cfg.pipe.code)
    return np.concatenate([np.sort(np.abs(v), axis=1).sum(axis=0) for v in (llr, lo)])


# ---------------------------------------------------------------------------
# the sweep engine

def _sweep(cfg: SimConfig, batch_fn, stop=None):
    """Per SNR point of the grid: the sum of ``batch_fn``'s arrays over its
    batches, in batch order, and the point's wall time.

    A point runs rounds of ``round_trials`` trials, each split into batches
    of ``batch_size`` from the round's first trial, until ``trials`` have run
    or ``stop(sum)`` holds at the end of a round.  Batches run through a
    pool of ``workers`` processes, or in this one.
    """
    pool = None
    if cfg.workers > 1:
        # imported here: it pulls in multiprocessing, which one worker never uses
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=cfg.workers)
    run = map if pool is None else pool.map
    points = []
    try:
        for snr in cfg.snr_grid_db:
            t0 = time.perf_counter()
            acc, done = 0, 0
            while done < cfg.trials:
                end = min(done + cfg.round_trials, cfg.trials)
                jobs = [(cfg, snr, s, min(cfg.batch_size, end - s))
                        for s in range(done, end, cfg.batch_size)]
                for part in run(batch_fn, jobs):
                    acc = acc + part
                done = end
                if stop is not None and stop(acc):
                    break
            points.append((acc, time.perf_counter() - t0))
    finally:
        if pool is not None:
            pool.shutdown()
    return points


def _records(cfg: SimConfig, points, epsilons) -> list[SimRecord]:
    """The records of ``_table_batch`` sums: per SNR point, one per threshold."""
    return [SimRecord(snr_db=snr, trials=n, block_errors=be, undetected_errors=ue,
                      erasures=er, inner_crc_failures=fails, outer_rescues=rescues,
                      mean_outer_queries=qsum / fails if fails else 0.0,
                      epsilon=eps, wall_time=wall)
            for snr, (acc, wall) in zip(cfg.snr_grid_db, points)
            for eps, (n, be, ue, er, fails, rescues, qsum) in zip(epsilons, acc.tolist())]


def _one_point(cfg: SimConfig, kind: str):
    if len(cfg.snr_grid_db) != 1:
        raise ValueError(f"{kind} runs at one SNR point, got the grid {cfg.snr_grid_db}")


# ---------------------------------------------------------------------------
# sweeps

def run_bler_sweep(cfg: SimConfig):
    """Block-error tallies per SNR point; writes CSV + JSON sidecar."""
    paths = _open_outputs(cfg, "bler")
    # the tallies read no retry, so none is decoded
    points = _sweep(replace(cfg, retry_on_threshold_fail=False), _table_batch,
                    stop=lambda acc: acc[0, 1] >= cfg.min_errors)
    records = _records(cfg, points, (None,))
    header = ["schema_version", "snr_db", "trials", "block_errors",
              "undetected_errors", "erasures", "inner_crc_failures",
              "outer_rescues", "mean_outer_queries", "bler", "bler_lo", "bler_hi"]
    rows = [[SCHEMA_VERSION, r.snr_db, r.trials, r.block_errors, r.undetected_errors,
             r.erasures, r.inner_crc_failures, r.outer_rescues, r.mean_outer_queries,
             r.bler, *wilson_interval(r.block_errors, r.trials)] for r in records]
    dat = ["# snr_db bler bler_lo bler_hi",
           *(" ".join(map(_fmt, row[1:2] + row[9:12])) for row in rows), ""]
    _write_table(paths, cfg, "bler", header, rows, dat,
                 wall_time=[r.wall_time for r in records])
    return records


def run_calibration(cfg: SimConfig):
    """Bin decoded trials by predicted error 1-SO; writes CSV + sidecar.

    Returns {"so": [CalibrationBin...], "so_forney": [...]} for the one SNR
    point of the grid, with bins ordered from the underflow bin upward.
    """
    _one_point(cfg, "calibration")
    paths = _open_outputs(cfg, "calibrate")
    # the bins read the inner soft outputs only, so no outer stage runs, and
    # with it no retry
    ((acc, wall),) = _sweep(replace(cfg, decoder="ca_scl"), _calibrate_batch)
    asc = (0.0,) + CALIBRATION_EDGES
    result = {}
    for key, (cnts, errs, sums) in zip(("so", "so_forney"), acc):
        result[key] = [CalibrationBin(
            lower=asc[i], upper=asc[i + 1], count=int(c),
            mean_predicted=float(s / c) if c else 0.0,
            empirical_error_rate=int(e) / int(c) if c else 0.0, errors=int(e))
            for i, (c, e, s) in enumerate(zip(cnts, errs, sums))]
    header = ["schema_version", "estimator", "bin_lower", "bin_upper", "count",
              "mean_predicted", "errors", "empirical_error_rate", "err_lo", "err_hi"]
    rows = [[SCHEMA_VERSION, key, b.lower, b.upper, b.count, b.mean_predicted, b.errors,
             b.empirical_error_rate, *wilson_interval(b.errors, b.count)]
            for key, bins in result.items() for b in bins]
    dat = []
    for key, bins in result.items():
        dat += [f"# {key}: mean_predicted empirical_error_rate",
                *(f"{_fmt(b.mean_predicted)} {_fmt(b.empirical_error_rate)}"
                  for b in bins if b.count), "", ""]
    _write_table(paths, cfg, "calibrate", header, rows, dat, trials=cfg.trials,
                 decoded=int(acc[0, 0].sum()), wall_time=wall)
    return result


def run_uer_sweep(cfg: SimConfig):
    """Per-(snr, epsilon) undetected-error and erasure tallies.

    Decodes each trial once and tallies it under every threshold of the
    grid.  With retry enabled, every inner decision that fails the
    strictest threshold of the grid (the smallest epsilon,
    ``cfg.pipe.retry_epsilon``) also gets its one outer attempt, in its
    batch's outer block; the outer decision is a pure function of the
    trial's LLRs, so this matches running the full pipeline per epsilon.  Runs exactly
    cfg.trials trials per SNR point.
    """
    if cfg.epsilon_grid is None:
        raise ValueError("run_uer_sweep needs an epsilon grid")
    if cfg.decoder != "cca_scl":
        raise ValueError("the UER sweep is defined for the cca_scl decoder")
    paths = _open_outputs(cfg, "uer")
    points = _sweep(cfg, functools.partial(_table_batch, epsilons=cfg.epsilon_grid))
    records = _records(cfg, points, cfg.epsilon_grid)
    header = ["schema_version", "snr_db", "epsilon", "trials", "block_errors",
              "undetected_errors", "erasures", "uer", "uer_lo", "uer_hi",
              "erasure_rate"]
    rows = [[SCHEMA_VERSION, r.snr_db, r.epsilon, r.trials, r.block_errors,
             r.undetected_errors, r.erasures, r.uer,
             *wilson_interval(r.undetected_errors, r.trials), r.erasures / r.trials]
            for r in records]
    dat = ["# epsilon uer uer_lo uer_hi",
           *(" ".join(map(_fmt, row[2:3] + row[7:10])) for row in rows), ""]
    # one record per (snr, epsilon), epsilon fastest; one wall time per snr
    per_snr = records[::len(cfg.epsilon_grid)]
    _write_table(paths, cfg, "uer", header, rows, dat,
                 wall_time=[r.wall_time for r in per_snr])
    return records


def run_llr_profile(cfg: SimConfig):
    """Sorted reliability profiles of inner and outer LLRs, averaged.

    Per trial, sorts |channel LLR| ascending (N values) and |outer LLR|
    ascending (K values); emits the across-trial mean at each rank at the
    one SNR point of the grid.
    """
    _one_point(cfg, "the LLR profile")
    paths = _open_outputs(cfg, "diag_llr")
    # rounds of whole batches keep the batch grid of trial 0 at any
    # round_trials, so the sums add up in one order
    whole = replace(cfg, round_trials=cfg.batch_size * cfg.workers)
    ((acc, wall),) = _sweep(whole, _profile_batch)
    n = cfg.dims.n_code
    profile = {"inner": acc[:n] / cfg.trials, "outer": acc[n:] / cfg.trials}
    header = ["schema_version", "series", "rank", "mean_abs_llr"]
    rows = [[SCHEMA_VERSION, series, rank, v]
            for series, values in profile.items() for rank, v in enumerate(values)]
    dat = []
    for series, values in profile.items():
        dat += [f"# {series}: rank mean_abs_llr",
                *(f"{rank} {_fmt(v)}" for rank, v in enumerate(values)), "", ""]
    _write_table(paths, cfg, "diag_llr", header, rows, dat, trials=cfg.trials,
                 wall_time=wall)
    return profile


# ---------------------------------------------------------------------------
# output

def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _open_outputs(cfg: SimConfig, kind: str) -> dict:
    out_dir = Path(cfg.out_dir or os.environ.get(OUT_DIR_ENV, "."))
    if not out_dir.is_dir():
        raise FileNotFoundError(f"output directory {out_dir} does not exist")
    d = cfg.dims
    stem = cfg.out_stem or (
        f"{kind}_n{d.n_code}k{d.k_crc}m{d.m_msg}"
        f"_{'sys' if cfg.systematic else 'nonsys'}_L{cfg.list_size}"
        f"_{cfg.decoder}_seed{cfg.master_seed}"
    )
    paths = {
        "csv": out_dir / f"{stem}.csv",
        "json": out_dir / f"{stem}.json",
        "plot": out_dir / f"{stem}.dat" if cfg.emit_plot else None,
    }
    # fail before computing anything if the target is not writable
    with open(paths["csv"], "w", newline=""):
        pass
    return paths


def _write_table(paths: dict, cfg: SimConfig, kind: str, header: list[str],
                 rows: list[list], dat: list[str], **sidecar):
    """Write one table: the CSV of ``header`` and ``rows``; the JSON sidecar
    of ``cfg``, ``kind`` and the ``sidecar`` entries; and, under
    ``emit_plot``, the ``.dat`` lines ``dat`` joined by newlines."""
    with open(paths["csv"], "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\r\n")
        w.writerow(header)
        w.writerows([_fmt(v) for v in row] for row in rows)
    blob = {"schema_version": SCHEMA_VERSION, "config": _config_dict(cfg),
            "kind": kind, **sidecar}
    # serialised first, so a value JSON cannot write leaves no partial file
    text = json.dumps(blob, indent=2, sort_keys=True) + "\n"
    paths["json"].write_text(text)
    if paths["plot"]:
        paths["plot"].write_text("\n".join(dat))


def _config_dict(cfg: SimConfig) -> dict:
    d = asdict(cfg)
    d["dims"] = [cfg.dims.n_code, cfg.dims.k_crc, cfg.dims.m_msg]
    d["snr_grid_db"] = list(cfg.snr_grid_db)
    if cfg.epsilon_grid is not None:
        d["epsilon_grid"] = list(cfg.epsilon_grid)
    return d
