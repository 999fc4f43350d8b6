#!/usr/bin/env python3
"""capolar benchmark: sweep throughput, set-up time and per-layer spans.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs sweep.py as fresh interpreters, one after another, until ``--seconds``
have passed (at least MIN_PROCESSES of them, so set-up time is a median).
Process k runs the workload's timed sweep at master seed 1000 * N + k.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
TRACE_PAIRS untraced/traced pairs at the same seeds and reports the
per-layer metrics.
The last stdout line is the result object; the line before it carries the
per-process details, CSV sha256s and run metadata, also written to
benchmark/results/.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from workloads import EPSILON_GRID, WARMUP_TRIALS, WORKLOADS  # noqa: E402

MIN_PROCESSES = 3
TRACE_PAIRS = 2
DEADLINE_S = 170.0  # the whole run, sweep processes included
FLOAT_RTOL = 1e-9
MAX_ERRORS = 5  # kept per process in the details

KIND = {"run_bler_sweep": "bler", "run_calibration": "calibrate",
        "run_uer_sweep": "uer"}


# ---------------------------------------------------------------------------
# output checks

def _cell(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def read_csv(path: Path) -> list[list]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return [rows[0]] + [[_cell(c) for c in row] for row in rows[1:]]


def compare_with_reference(path: Path, ref: Path) -> list[str]:
    """Integers and strings must match exactly, floats to FLOAT_RTOL."""
    got, want = read_csv(path), read_csv(ref)
    if got[0] != want[0]:
        return [f"header {got[0]} != {want[0]}"]
    if len(got) != len(want):
        return [f"{len(got) - 1} rows, reference has {len(want) - 1}"]
    errors = []
    for r, (row, ref_row) in enumerate(zip(got[1:], want[1:]), start=1):
        for col, a, b in zip(got[0], row, ref_row):
            if isinstance(a, float) or isinstance(b, float):
                same = math.isclose(a, b, rel_tol=FLOAT_RTOL, abs_tol=0.0)
            else:
                same = type(a) is type(b) and a == b
            if not same:
                errors.append(f"row {r} {col}: {a!r} != {b!r}")
    return errors


def check_sweep_csv(path: Path, kind: str, trials: int) -> list[str]:
    """Invariants of a sweep CSV at any seed."""
    header, *rows = read_csv(path)
    recs = [dict(zip(header, row)) for row in rows]
    errors = []
    if kind == "bler":
        if len(recs) != 1:
            errors.append(f"{len(recs)} rows, expected 1")
        for r in recs:
            if r["trials"] != trials:
                errors.append(f"trials {r['trials']} != {trials}")
            if not 0 <= r["outer_rescues"] <= r["inner_crc_failures"] <= trials:
                errors.append("rescues/failures out of range")
            if not 0 <= r["block_errors"] <= trials or r["bler"] != r["block_errors"] / trials:
                errors.append("block errors inconsistent")
    elif kind == "uer":
        if len(recs) != len(EPSILON_GRID):
            errors.append(f"{len(recs)} rows, expected {len(EPSILON_GRID)}")
        for r in recs:
            if r["trials"] != trials:
                errors.append(f"trials {r['trials']} != {trials}")
            if not 0 <= r["undetected_errors"] <= trials - r["erasures"]:
                errors.append("undetected errors out of range")
            if r["erasure_rate"] != r["erasures"] / trials:
                errors.append("erasure rate inconsistent")
    else:
        decoded = {}
        for r in recs:
            decoded[r["estimator"]] = decoded.get(r["estimator"], 0) + r["count"]
            if not 0 <= r["errors"] <= r["count"]:
                errors.append("bin errors out of range")
        if set(decoded) != {"so", "so_forney"} or len(set(decoded.values())) != 1:
            errors.append(f"estimators disagree on decoded trials: {decoded}")
        elif not 0 < decoded["so"] <= trials:
            errors.append(f"{decoded['so']} decoded trials of {trials}")
    return errors


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# sweep processes

def run_process(workload: str, seed: int, trials: int, trace: int,
                out_dir: Path, timeout: float) -> dict:
    """One fresh sweep interpreter plus the checks of its CSVs."""
    out_dir.mkdir(parents=True)
    t0 = time.perf_counter()
    cmd = [sys.executable, str(HERE / "sweep.py"), "--workload", workload,
           "--seed", str(seed), "--trials", str(trials), "--out", str(out_dir),
           "--trace", str(trace), "--t0", repr(t0)]
    rec = {"seed": seed, "trace": trace, "errors": []}
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        rec["errors"].append(f"timed out after {timeout:.0f} s")
        return rec
    rec["wall_s"] = time.perf_counter() - t0
    if proc.returncode != 0:
        rec["errors"].append(f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return rec
    rec.update(json.loads(proc.stdout.strip().splitlines()[-1]))

    kind = KIND[WORKLOADS[workload]["sweep"]]
    warm, timed = out_dir / "warmup.csv", out_dir / "sweep.csv"
    rec["warmup_sha256"] = sha256(warm)
    rec["sweep_sha256"] = sha256(timed)
    ref = HERE / "reference" / f"{workload}.csv"
    rec["errors"] += [f"warm-up vs reference: {e}"
                      for e in compare_with_reference(warm, ref)]
    rec["errors"] += [f"sweep: {e}" for e in check_sweep_csv(timed, kind, trials)]
    del rec["errors"][MAX_ERRORS:]
    return rec


def run_processes(workload: str, seed: int, seconds: float, trace: int,
                  trials: int, work: Path) -> list[dict]:
    """Sweep processes one after another.

    Untraced, processes run for about ``seconds``: another one starts only
    if it is expected, from the duration of the previous one, to end in
    time.  Traced, exactly TRACE_PAIRS seeds run, so the counts repeat
    exactly at a seed; each seed runs untraced and then traced, and the
    traced CSVs must be byte-identical to the untraced ones.
    """
    start = time.perf_counter()
    recs = []
    k = 0
    last = 0.0

    def more() -> bool:
        if trace:
            return k < TRACE_PAIRS
        return k < MIN_PROCESSES or time.perf_counter() - start + last <= seconds

    while more():
        begun = time.perf_counter()
        sub_seed = 1000 * seed + k
        for mode in ((0, 1) if trace else (0,)):
            left = max(1.0, DEADLINE_S - (time.perf_counter() - start))
            rec = run_process(workload, sub_seed, trials, mode,
                              work / f"p{k}t{mode}", left)
            recs.append(rec)
            if mode == 1 and not rec["errors"] and not recs[-2]["errors"]:
                for key in ("warmup_sha256", "sweep_sha256"):
                    if rec[key] != recs[-2][key]:
                        rec["errors"].append(f"traced {key} differs from untraced")
            if any("timed out" in e for e in rec["errors"]):
                return recs
        last = time.perf_counter() - begun
        k += 1
    return recs


# ---------------------------------------------------------------------------
# metrics

def end_to_end(recs: list[dict]) -> dict:
    return {
        "trials_per_s": sum(r["trials"] for r in recs) / sum(r["sweep_s"] for r in recs),
        "setup_s": statistics.median(r["setup_s"] for r in recs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in recs),
    }


def _rank_percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def _top_percentile(values: list[float]) -> tuple[float, float]:
    """The highest of a few percentiles with at least ten samples above it."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(values) * (1.0 - pct / 100.0) >= 10:
            return pct, _rank_percentile(values, pct)
    return 50.0, _rank_percentile(values, 50.0)


def per_layer(pairs: list[tuple[dict, dict]]) -> dict:
    """Per-layer metrics from the spans of the traced processes."""
    time_in: dict[str, float] = {}
    calls: dict[str, int] = {}
    call_s: dict[str, list[float]] = {"outer.gcd": [], "outer.sogrand": []}
    queries = {"outer.gcd": 0, "outer.sogrand": 0}
    exhausted = {"outer.gcd": 0, "outer.sogrand": 0}
    fails = rows_selected = retry_calls = 0
    resolve_child_s = sim_self_s = first_call_s = 0.0
    trials = crc_failures = rescues = 0
    untraced_s = traced_s = 0.0

    for plain, traced in pairs:
        untraced_s += plain["sweep_s"]
        traced_s += traced["sweep_s"]
        trials += traced["trials"]
        crc_failures += traced["inner_crc_failures"]
        rescues += traced["outer_rescues"]
        with open(traced["spans"]) as fh:
            cols = json.load(fh)
        counts = {int(i): v for i, v in cols["info"].items()}
        spans = [(name, parent, t0, t1, counts.get(i)) for i, (name, parent, t0, t1)
                 in enumerate(zip(cols["names"], cols["parents"], cols["starts"], cols["ends"]))]

        root = []
        child_s = [0.0] * len(spans)
        for i, (name, parent, t0, t1, info) in enumerate(spans):
            root.append(i if parent < 0 else root[parent])
            if parent >= 0:
                child_s[parent] += t1 - t0
        outer = [s for s in spans if s[0] in call_s]
        first_call_s += (outer[0][3] - outer[0][2]) if outer else 0.0

        for i, (name, parent, t0, t1, info) in enumerate(spans):
            if spans[root[i]][0] != "sim.sweep":
                continue
            dur = t1 - t0
            if parent < 0:
                sim_self_s += dur - child_s[i]
                continue
            time_in[name] = time_in.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            if name in call_s:
                call_s[name].append(dur)
                queries[name] += info["queries"]
                exhausted[name] += info["queries"] >= info["budget"]
            elif name == "scl.ca_select_batch":
                fails += info["fails"]
                rows_selected += info["rows"]
            elif name == "pipeline.resolve_decision":
                resolve_child_s += child_s[i]
                retry_calls += spans[parent][0] == "sim.retry_decisions"

    def us_per(name, base):
        return 1e6 * time_in.get(name, 0.0) / base if base else 0.0

    channel_s = sum(v for k, v in time_in.items() if k.startswith("channel."))
    n_resolve = calls.get("pipeline.resolve_decision", 0)
    m = {
        "sim.trials": trials,
        "channel.us_per_trial": 1e6 * channel_s / trials,
        "polar.ca_encode.us_per_trial": us_per("polar.ca_encode", trials),
        "polar.ca_encode.calls": calls.get("polar.ca_encode", 0),
        "scl.scl_decode_batch.us_per_trial": us_per("scl.scl_decode_batch", trials),
        "scl.ca_select_batch.us_per_trial": us_per("scl.ca_select_batch", trials),
        "scl.crc_fail_rate": fails / rows_selected if rows_selected else 0.0,
        "outer.outer_llr.calls": calls.get("outer.outer_llr", 0),
        "outer.outer_llr.us_per_call": us_per("outer.outer_llr",
                                              calls.get("outer.outer_llr", 0)),
        "outer.first_call_s": first_call_s / len(pairs),
        "outer.rescue_rate": rescues / crc_failures if crc_failures else 0.0,
        "pipeline.resolve_decision.calls": n_resolve,
        "pipeline.resolve_decision.self_us_per_call":
            1e6 * (time_in.get("pipeline.resolve_decision", 0.0) - resolve_child_s)
            / n_resolve if n_resolve else 0.0,
        "pipeline.retry_calls": retry_calls,
        "sim.retry_decisions.us_per_trial": us_per("sim.retry_decisions", trials),
        "sim.self_us_per_trial": 1e6 * sim_self_s / trials,
        "trace.overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s,
    }
    for name, durations in call_s.items():
        n = len(durations)
        pct, top = _top_percentile(durations) if n else (0.0, 0.0)
        m[f"{name}.calls"] = n
        m[f"{name}.call_ms.p50"] = 1e3 * _rank_percentile(durations, 50.0) if n else 0.0
        m[f"{name}.call_ms.top"] = 1e3 * top
        m[f"{name}.call_ms.top_pct"] = pct
        m[f"{name}.queries_per_call"] = queries[name] / n if n else 0.0
        m[f"{name}.ns_per_query"] = 1e9 * sum(durations) / queries[name] if n else 0.0
        m[f"{name}.budget_exhausted_rate"] = exhausted[name] / n if n else 0.0
    return m


# ---------------------------------------------------------------------------
# metadata and entry point

def metadata() -> dict:
    # the ceiling keeps git from looking above the checkout for a repository
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, cwd=ROOT, env=env)
        sha = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        sha = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--trials", type=int, default=None,
                    help="override the workload's timed trial count (smoke test)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("need --seed >= 0 and --seconds > 0")
    if not (ROOT / "src" / "capolar" / "__init__.py").is_file():
        print(f"no capolar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    trials = args.trials or WORKLOADS[args.workload]["trials"]

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "trials": trials,
            "warmup_trials": WARMUP_TRIALS, **metadata(),
            "loadavg_start": os.getloadavg()}
    work = HERE / "work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        recs = run_processes(args.workload, args.seed, args.seconds,
                             args.trace, trials, work)
        # metrics come from every process that ran to the end, even one whose
        # output check failed; that one still counts in ``failed``
        failed = sum(bool(r["errors"]) for r in recs)
        done = [r for r in recs if "sweep_s" in r]
        pairs = [(recs[i], recs[i + 1]) for i in range(0, len(recs) - 1, 2)
                 if "sweep_s" in recs[i] and "sweep_s" in recs[i + 1]]
        if not (pairs if args.trace else done):
            print(json.dumps({**info, "processes": recs}), file=sys.stderr)
            return 1
        values = per_layer(pairs) if args.trace else end_to_end(done)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    info["loadavg_end"] = os.getloadavg()
    info["numpy"] = next((r["numpy"] for r in recs if "numpy" in r), None)
    for r in recs:
        r.pop("spans", None)
    info["processes"] = recs
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    detail = json.dumps({**info, "metrics": metrics})
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(detail + "\n")
    print(detail)
    print(json.dumps({"correct": failed == 0, "attempted": len(recs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
