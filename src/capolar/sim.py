"""Monte Carlo harness: BLER sweeps, soft-output calibration, UER sweeps.

Determinism is the organising principle.  Every trial owns a counter-based
RNG keyed by (master_seed, trial index), trials are grouped into fixed-size
batches, batches into fixed-size rounds, and partial results fold in batch
order.  The worker count changes how batches are scheduled, never what they
compute, so re-running a sweep with a different pool width produces byte
identical CSVs.  The stop rule (enough trials or enough block errors) is
evaluated only at round boundaries for the same reason.

Output is RFC 4180 CSV plus a JSON sidecar carrying the full configuration,
seed, and wall times; wall times stay out of the CSV so the CSV stays
reproducible.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .channel import (ChannelParams, llr_from_channel, message_bits, modulate,
                      saturate_llr, transmit)
from .crc import CrcSpec, crc_spec_for
from .outer import outer_llr
from .pipeline import INNER, PipelineConfig, apply_threshold, decide_block
from .polar import CodeDims, PolarCode, construct_polar, ca_encode
from .scl import _checked_int, ca_select_batch, scl_decode_batch

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
# an extra underflow bin so overconfident estimators stay visible
CALIBRATION_EDGES = tuple(10.0 ** (-0.5 * i) for i in reversed(range(11)))


@dataclass(frozen=True)
class SimConfig:
    """One experiment: code, channel grid, decoder, budgets, seeding."""

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
    outer_list_size: int = 1
    outer_max_weight: int | None = None
    outer_decoder: str = "sogrand"
    retry_on_threshold_fail: bool = False
    workers: int = 1
    batch_size: int = 512
    round_trials: int = 8192
    out_dir: str | None = None
    out_stem: str | None = None
    emit_plot: bool = False

    def __post_init__(self):
        # stored as plain ints, so the JSON sidecar can write them
        for name, low in (("trials", 1), ("min_errors", 1), ("batch_size", 1),
                          ("round_trials", 1), ("workers", 1), ("master_seed", None),
                          ("list_size", 1), ("outer_max_queries", 1),
                          ("outer_list_size", 1), ("outer_max_weight", 0)):
            value = getattr(self, name)
            if value is not None or name != "outer_max_weight":  # None: no cap
                object.__setattr__(self, name, _checked_int(value, name, low))
        if len(self.snr_grid_db) == 0:
            raise ValueError("snr grid must be nonempty")
        if not all(math.isfinite(snr) for snr in self.snr_grid_db):
            raise ValueError(f"snr grid points must be finite, got {self.snr_grid_db}")
        if self.decoder not in ("ca_scl", "cca_scl"):
            raise ValueError(f"unknown decoder {self.decoder!r}")
        if self.outer_decoder not in ("sogrand", "gcd"):
            raise ValueError(f"unknown outer decoder {self.outer_decoder!r}")
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

    def build_code(self) -> PolarCode:
        return construct_polar(self.dims.n_code, self.dims.k_crc,
                               method=self.method, systematic=self.systematic)

    def crc(self) -> CrcSpec:
        return crc_spec_for(self.dims.parity_bits)


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
# batch engine

@dataclass(frozen=True)
class _Plan:
    """Picklable worker payload: everything a batch needs, fully built."""

    dims: CodeDims
    pipe: PipelineConfig
    decoder: str
    master_seed: int
    # with --retry: inner decisions with so <= this could fail some threshold
    # of the grid, so their batch also decodes them through the outer stage
    retry_below: float | None


def _plan_for(cfg: SimConfig) -> _Plan:
    pipe = PipelineConfig(cfg.build_code(), cfg.crc(), cfg.list_size,
                          outer_max_queries=cfg.outer_max_queries,
                          outer_list_size=cfg.outer_list_size,
                          outer_max_weight=cfg.outer_max_weight,
                          outer_decoder=cfg.outer_decoder)
    retry_below = 1.0 - min(cfg.epsilon_grid) if cfg.retry_on_threshold_fail else None
    return _Plan(cfg.dims, pipe, cfg.decoder, cfg.master_seed, retry_below)


def _trial_wave(plan: _Plan, snr_db: float, trials):
    """Messages and decoder-input LLRs for the given trial indices (ints)."""
    params = ChannelParams(snr_db, plan.dims.rate)
    msgs = message_bits(plan.master_seed, trials, plan.dims.m_msg)
    s = modulate(ca_encode(msgs, plan.pipe.code, plan.pipe.spec))
    y = transmit(s, params, plan.master_seed, trials)
    return msgs, saturate_llr(llr_from_channel(y, params))


def _inner_pass(plan: _Plan, llr: np.ndarray):
    out = scl_decode_batch(llr, plan.pipe.code, plan.pipe.list_size)
    return ca_select_batch(out, plan.pipe.spec)


def _decide_batch(args):
    """Per-trial decision columns for one batch: the engine of all sweeps.

    ``decide_block``'s columns plus ``correct`` and ``alt_correct``, whether
    the decision and the retry equal the sent message.  Under ``ca_scl`` no
    outer stage runs and a CRC failure, no decision, is never correct.
    """
    plan, snr_db, start, count = args
    msgs, llr = _trial_wave(plan, snr_db, range(start, start + count))
    sel = _inner_pass(plan, llr)
    outer = plan.decoder == "cca_scl"
    cols = decide_block(sel, llr if outer else None, plan.pipe, plan.retry_below)
    cols["correct"] = (cols["message"] == msgs).all(axis=1) & (cols["found"] | outer)
    cols["alt_correct"] = (cols["alt_message"] == msgs).all(axis=1) & cols["retried"]
    return cols


def _bler_batch(args):
    cols = _decide_batch(args)
    correct, found, origin = cols["correct"], cols["found"], cols["origin"]
    plan = args[0]
    n = len(correct)
    inner_fail = int((~found).sum())
    block_errors = int((~correct).sum())
    if plan.decoder == "ca_scl":
        undetected = int((found & ~correct).sum())
        erasures = inner_fail
        rescues = 0
        outer_n = 0
    else:
        undetected = block_errors  # every trial emits a decision
        erasures = 0
        rescues = int((~found & correct).sum())
        outer_n = int((origin != INNER).sum())
    return (n, block_errors, undetected, erasures, inner_fail, rescues,
            int(cols["queries"].sum()), outer_n)


def _calibrate_batch(args, edges=CALIBRATION_EDGES):
    cols = _decide_batch(args)
    found = cols["found"]
    wrong = found & ~cols["correct"]
    edge_arr = np.array(edges)
    nbins = len(edges)  # one bin per edge pair plus the underflow bin
    out = []
    for key in ("so", "so_forney"):
        pred = np.clip(1.0 - cols[key][found], 0.0, 1.0)
        idx = np.searchsorted(edge_arr, pred, side="left")
        counts = np.bincount(idx, minlength=nbins)
        errs = np.bincount(idx[wrong[found]], minlength=nbins)
        sums = np.bincount(idx, weights=pred, minlength=nbins)
        out.append((counts, errs, sums))
    return len(found), int(found.sum()), out


# ---------------------------------------------------------------------------
# round scheduling

def _batches(start: int, todo: int, batch_size: int):
    offs = range(0, todo, batch_size)
    return [(start + o, min(batch_size, todo - o)) for o in offs]


class _Runner:
    """Maps batch jobs over an optional process pool, preserving order."""

    def __init__(self, workers: int):
        self.pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None

    def map(self, fn, jobs):
        if self.pool is None:
            return [fn(j) for j in jobs]
        return list(self.pool.map(fn, jobs))

    def close(self):
        if self.pool is not None:
            self.pool.shutdown()


def _rounds(cfg: SimConfig, runner: _Runner, plan: _Plan, snr_db: float,
            batch_fn, fold, stop):
    """Run rounds of batches until the stop rule fires or trials run out."""
    done = 0
    while done < cfg.trials:
        todo = min(cfg.round_trials, cfg.trials - done)
        jobs = [(plan, snr_db, s, c) for s, c in _batches(done, todo, cfg.batch_size)]
        for part in runner.map(batch_fn, jobs):
            fold(part)
        done += todo
        if stop():
            break
    return done


# ---------------------------------------------------------------------------
# sweeps

def run_bler_sweep(cfg: SimConfig):
    """Block-error tallies per SNR point; writes CSV + JSON sidecar."""
    # the tallies read no retry, so none is decoded
    plan = replace(_plan_for(cfg), retry_below=None)
    paths = _open_outputs(cfg, "bler")
    runner = _Runner(cfg.workers)
    records = []
    try:
        for snr in cfg.snr_grid_db:
            tally = np.zeros(8, dtype=np.int64)

            def fold(part, tally=tally):
                tally += np.array(part, dtype=np.int64)

            t0 = time.perf_counter()
            _rounds(cfg, runner, plan, snr, _bler_batch, fold,
                    stop=lambda: tally[1] >= cfg.min_errors)
            wall = time.perf_counter() - t0
            n, be, ue, er, fails, rescues, qsum, outer_n = (int(v) for v in tally)
            records.append(SimRecord(
                snr_db=snr, trials=n, block_errors=be, undetected_errors=ue,
                erasures=er, inner_crc_failures=fails, outer_rescues=rescues,
                mean_outer_queries=qsum / outer_n if outer_n else 0.0,
                wall_time=wall))
    finally:
        runner.close()
    _write_bler_csv(paths, records, cfg)
    return records


def run_calibration(cfg: SimConfig, edges=None):
    """Bin decoded trials by predicted error 1-SO; writes CSV + sidecar.

    Returns {"so": [CalibrationBin...], "so_forney": [...]} for the first
    SNR point of the grid (calibration is a single-point experiment) with
    bins ordered from the underflow bin upward.
    """
    edges = CALIBRATION_EDGES if edges is None else tuple(float(e) for e in edges)
    if list(edges) != sorted(set(edges)) or edges[0] <= 0.0 or edges[-1] > 1.0:
        raise ValueError("edges must be strictly ascending within (0, 1]")
    # the bins read the inner soft outputs only, so no outer stage runs
    plan = replace(_plan_for(cfg), decoder="ca_scl", retry_below=None)
    paths = _open_outputs(cfg, "calibrate")
    runner = _Runner(cfg.workers)
    snr = cfg.snr_grid_db[0]
    nbins = len(edges)
    acc = {k: [np.zeros(nbins, dtype=np.int64), np.zeros(nbins, dtype=np.int64),
               np.zeros(nbins)] for k in ("so", "so_forney")}
    seen = {"trials": 0, "decoded": 0}
    t0 = time.perf_counter()

    def fold(part):
        count, decoded, per_est = part
        seen["trials"] += count
        seen["decoded"] += decoded
        for key, (cnts, errs, sums) in zip(("so", "so_forney"), per_est):
            acc[key][0] += cnts
            acc[key][1] += errs
            acc[key][2] += sums

    batch_fn = functools.partial(_calibrate_batch, edges=edges)
    try:
        _rounds(cfg, runner, plan, snr, batch_fn, fold, stop=lambda: False)
    finally:
        runner.close()
    wall = time.perf_counter() - t0

    asc = (0.0,) + edges
    result = {}
    for key in ("so", "so_forney"):
        cnts, errs, sums = acc[key]
        bins = []
        for i in range(nbins):
            c = int(cnts[i])
            bins.append(CalibrationBin(
                lower=asc[i], upper=asc[i + 1], count=c,
                mean_predicted=float(sums[i] / c) if c else 0.0,
                empirical_error_rate=int(errs[i]) / c if c else 0.0,
                errors=int(errs[i])))
        result[key] = bins
    _write_calibration_csv(paths, result, cfg, seen, wall)
    return result


def run_uer_sweep(cfg: SimConfig):
    """Per-(snr, epsilon) undetected-error and erasure tallies.

    Decodes each trial once; the threshold grid is applied afterwards to the
    stored soft outputs.  With retry enabled, every inner decision that fails
    the widest threshold of the grid also gets its one outer attempt, in its
    batch's outer block; the outer decision is a pure function of the
    trial's LLRs, so this matches running the full pipeline per epsilon.
    Runs exactly cfg.trials trials per SNR point.
    """
    if cfg.epsilon_grid is None:
        raise ValueError("run_uer_sweep needs an epsilon grid")
    if cfg.decoder != "cca_scl":
        raise ValueError("the UER sweep is defined for the cca_scl decoder")
    plan = _plan_for(cfg)
    paths = _open_outputs(cfg, "uer")
    runner = _Runner(cfg.workers)
    records = []
    try:
        for snr in cfg.snr_grid_db:
            keys = ("correct", "so", "origin", "queries", "alt_so", "alt_correct")
            parts = {key: [] for key in keys}

            def fold(part):
                for key in keys:
                    parts[key].append(part[key])

            t0 = time.perf_counter()
            _rounds(cfg, runner, plan, snr, _decide_batch, fold, stop=lambda: False)
            cols = {key: np.concatenate(parts[key]) for key in keys}
            correct, outer = cols["correct"], cols["origin"] != INNER
            wall = time.perf_counter() - t0

            for eps in cfg.epsilon_grid:
                accepted, retry_taken = apply_threshold(cols, eps)
                undetected = ((accepted & ~correct)
                              | (retry_taken & ~cols["alt_correct"]))
                records.append(SimRecord(
                    snr_db=snr, trials=len(correct),
                    block_errors=int((~correct).sum()),
                    undetected_errors=int(undetected.sum()),
                    erasures=int((~accepted & ~retry_taken).sum()),
                    inner_crc_failures=int(outer.sum()),
                    outer_rescues=int((outer & correct).sum()),
                    mean_outer_queries=float(cols["queries"][outer].mean())
                    if outer.any() else 0.0,
                    epsilon=eps, wall_time=wall))
    finally:
        runner.close()
    _write_uer_csv(paths, records, cfg)
    return records


def run_llr_profile(cfg: SimConfig):
    """Sorted reliability profiles of inner and outer LLRs, averaged.

    Per trial, sorts |channel LLR| ascending (N values) and |outer LLR|
    ascending (K values); emits the across-trial mean at each rank.
    """
    plan = _plan_for(cfg)
    paths = _open_outputs(cfg, "diag_llr")
    snr = cfg.snr_grid_db[0]
    n, k = cfg.dims.n_code, cfg.dims.k_crc
    sum_inner = np.zeros(n)
    sum_outer = np.zeros(k)
    done = 0
    while done < cfg.trials:
        count = min(cfg.batch_size, cfg.trials - done)
        _, llr = _trial_wave(plan, snr, range(done, done + count))
        sum_inner += np.sort(np.abs(llr), axis=1).sum(axis=0)
        lo = outer_llr(llr, plan.pipe.code)
        sum_outer += np.sort(np.abs(lo), axis=1).sum(axis=0)
        done += count
    profile = {
        "inner": sum_inner / done,
        "outer": sum_outer / done,
    }
    _write_profile_csv(paths, profile, cfg)
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


def _write_rows(path: Path, header: list[str], rows: list[list]):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\r\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _sidecar(paths: dict, cfg: SimConfig, extra: dict):
    blob = {"schema_version": SCHEMA_VERSION, "config": _config_dict(cfg)}
    blob.update(extra)
    # serialised first, so a value JSON cannot write leaves no partial file
    text = json.dumps(blob, indent=2, sort_keys=True) + "\n"
    with open(paths["json"], "w") as fh:
        fh.write(text)


def _config_dict(cfg: SimConfig) -> dict:
    d = asdict(cfg)
    d["dims"] = [cfg.dims.n_code, cfg.dims.k_crc, cfg.dims.m_msg]
    d["snr_grid_db"] = list(cfg.snr_grid_db)
    if cfg.epsilon_grid is not None:
        d["epsilon_grid"] = list(cfg.epsilon_grid)
    return d


def _write_bler_csv(paths, records: list[SimRecord], cfg: SimConfig):
    header = ["schema_version", "snr_db", "trials", "block_errors",
              "undetected_errors", "erasures", "inner_crc_failures",
              "outer_rescues", "mean_outer_queries", "bler", "bler_lo", "bler_hi"]
    rows = []
    for r in records:
        lo, hi = wilson_interval(r.block_errors, r.trials)
        rows.append([SCHEMA_VERSION, r.snr_db, r.trials, r.block_errors,
                     r.undetected_errors, r.erasures, r.inner_crc_failures,
                     r.outer_rescues, r.mean_outer_queries, r.bler, lo, hi])
    _write_rows(paths["csv"], header, rows)
    _sidecar(paths, cfg, {"kind": "bler",
                          "wall_time": [r.wall_time for r in records]})
    if paths["plot"]:
        lines = ["# snr_db bler bler_lo bler_hi"]
        for row in rows:
            lines.append(" ".join(_fmt(v) for v in row[1:2] + row[9:12]))
        paths["plot"].write_text("\n".join(lines) + "\n")


def _write_calibration_csv(paths, result, cfg: SimConfig, seen, wall):
    header = ["schema_version", "estimator", "bin_lower", "bin_upper", "count",
              "mean_predicted", "errors", "empirical_error_rate", "err_lo", "err_hi"]
    rows = []
    for key, bins in result.items():
        for b in bins:
            lo, hi = wilson_interval(b.errors, b.count) if b.count else (0.0, 1.0)
            rows.append([SCHEMA_VERSION, key, b.lower, b.upper, b.count,
                         b.mean_predicted, b.errors, b.empirical_error_rate,
                         lo, hi])
    _write_rows(paths["csv"], header, rows)
    _sidecar(paths, cfg, {"kind": "calibrate", "trials": seen["trials"],
                          "decoded": seen["decoded"], "wall_time": wall})
    if paths["plot"]:
        lines = []
        for key, bins in result.items():
            lines.append(f"# {key}: mean_predicted empirical_error_rate")
            for b in bins:
                if b.count:
                    lines.append(f"{_fmt(b.mean_predicted)} "
                                 f"{_fmt(b.empirical_error_rate)}")
            lines.append("")
            lines.append("")
        paths["plot"].write_text("\n".join(lines))


def _write_uer_csv(paths, records: list[SimRecord], cfg: SimConfig):
    header = ["schema_version", "snr_db", "epsilon", "trials", "block_errors",
              "undetected_errors", "erasures", "uer", "uer_lo", "uer_hi",
              "erasure_rate"]
    rows = []
    for r in records:
        lo, hi = wilson_interval(r.undetected_errors, r.trials)
        rows.append([SCHEMA_VERSION, r.snr_db, r.epsilon, r.trials,
                     r.block_errors, r.undetected_errors, r.erasures,
                     r.uer, lo, hi, r.erasures / r.trials])
    _write_rows(paths["csv"], header, rows)
    # one record per (snr, epsilon), epsilon fastest; one wall time per snr
    per_snr = records[::len(cfg.epsilon_grid)]
    _sidecar(paths, cfg, {"kind": "uer",
                          "wall_time": [r.wall_time for r in per_snr]})
    if paths["plot"]:
        lines = ["# epsilon uer uer_lo uer_hi"]
        for row in rows:
            lines.append(" ".join(_fmt(v) for v in row[2:3] + row[7:10]))
        paths["plot"].write_text("\n".join(lines) + "\n")


def _write_profile_csv(paths, profile, cfg: SimConfig):
    header = ["schema_version", "series", "rank", "mean_abs_llr"]
    rows = []
    for series in ("inner", "outer"):
        for rank, v in enumerate(profile[series]):
            rows.append([SCHEMA_VERSION, series, rank, v])
    _write_rows(paths["csv"], header, rows)
    _sidecar(paths, cfg, {"kind": "diag_llr", "trials": cfg.trials})
    if paths["plot"]:
        lines = []
        for series in ("inner", "outer"):
            lines.append(f"# {series}: rank mean_abs_llr")
            for rank, v in enumerate(profile[series]):
                lines.append(f"{rank} {_fmt(v)}")
            lines.append("")
            lines.append("")
        paths["plot"].write_text("\n".join(lines))
