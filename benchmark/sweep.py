"""One sweep process of the benchmark: warm-up, then one timed sweep.

Run by run.py as a fresh interpreter, so every process pays the import, the
code construction and the cold outer schedule cache once, as a CLI call
does.  The warm-up sweep runs at the reference seed and its CSV is checked
against reference/<workload>.csv by run.py; the timed sweep runs at
``--seed`` with the workload's trial count.

With ``--trace 1`` the names that capolar.sim and capolar.pipeline import
are wrapped from here, each call becomes an in-memory span, and the spans
are written to <out>/spans.json when the process ends.  The wrappers are
restored in ``finally``.

Prints one JSON line: set-up and sweep wall times (perf_counter), peak RSS
and the sweep tallies run.py needs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

sys.path.insert(0, str(HERE))
from workloads import REFERENCE_SEED, WARMUP_TRIALS, WORKLOADS  # noqa: E402


class Tracer:
    """Spans of wrapped module-level names, kept in memory."""

    # (module attribute, span name); names missing from a module are skipped
    TARGETS = {
        "sim": [("message_rng", "channel.message_rng"),
                ("modulate", "channel.modulate"),
                ("transmit", "channel.transmit"),
                ("llr_from_channel", "channel.llr_from_channel"),
                ("saturate_llr", "channel.saturate_llr"),
                ("ca_encode", "polar.ca_encode"),
                ("scl_decode_batch", "scl.scl_decode_batch"),
                ("ca_select_batch", "scl.ca_select_batch"),
                ("resolve_decision", "pipeline.resolve_decision"),
                ("outer_llr", "outer.outer_llr"),
                ("_retry_decisions", "sim.retry_decisions")],
        "pipeline": [("outer_llr", "outer.outer_llr"),
                     ("gcd_decode", "outer.gcd"),
                     ("sogrand_decode", "outer.sogrand")],
    }

    def __init__(self):
        # one column per field, so recording a span allocates no object the
        # garbage collector tracks and the collector's work does not grow
        self.names: list[str] = []
        self.parents: list[int] = []  # span index, -1 for a root
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.info: dict[int, dict] = {}  # counts, for the spans that have them
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.wrapped: list[str] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            info = _span_info(name, args, kwargs, out)
            if info is not None:
                self.info[idx] = info
            return out
        return traced

    def dump(self, path: Path):
        with open(path, "w") as fh:
            json.dump({"wrapped": self.wrapped, "names": self.names,
                       "parents": self.parents, "starts": self.starts,
                       "ends": self.ends, "info": self.info}, fh)

    def install(self, modules: dict):
        for key, targets in self.TARGETS.items():
            mod = modules[key]
            for attr, name in targets:
                if hasattr(mod, attr):
                    orig = getattr(mod, attr)
                    self._saved.append((mod, attr, orig))
                    self.wrapped.append(f"{mod.__name__}.{attr}")
                    setattr(mod, attr, self.wrap(orig, name))

    def restore(self):
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()


def _span_info(name: str, args, kwargs, out):
    """Counts recorded at the layer boundary, so ratios have their base."""
    if name in ("scl.scl_decode_batch", "polar.ca_encode"):
        return {"rows": int(args[0].shape[0])}
    if name == "scl.ca_select_batch":
        found = out["found"]
        return {"rows": int(found.shape[0]), "fails": int((~found).sum())}
    if name in ("outer.gcd", "outer.sogrand"):
        return {"queries": int(out.queries_used),
                "budget": int(kwargs.get("max_queries", 1 << 16))}
    return None


def build_config(sim, polar, workload: str, seed: int, trials: int,
                 out_dir: Path, stem: str):
    """The SimConfig a workload gives for one seed; workers stay at 1."""
    spec = dict(WORKLOADS[workload]["config"])
    spec["dims"] = polar.CodeDims(*spec["dims"])
    return sim.SimConfig(**spec, trials=trials, min_errors=trials + 1,
                         master_seed=seed, workers=1, out_dir=str(out_dir),
                         out_stem=stem)


def _tallies(result) -> dict:
    """CRC failures and outer rescues from a sweep's returned records."""
    if isinstance(result, list) and result:
        return {"inner_crc_failures": int(result[0].inner_crc_failures),
                "outer_rescues": int(result[0].outer_rescues)}
    return {"inner_crc_failures": 0, "outer_rescues": 0}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trials", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="perf_counter() of run.py just before the spawn")
    args = ap.parse_args(argv)
    out_dir = Path(args.out)

    sys.path.insert(0, str(SRC))
    import numpy
    import capolar
    from capolar import pipeline, polar, sim
    if Path(capolar.__file__).resolve().parent != (SRC / "capolar").resolve():
        raise RuntimeError(f"capolar imported from {capolar.__file__}, not {SRC}")

    sweep = getattr(sim, WORKLOADS[args.workload]["sweep"])
    cfg = build_config(sim, polar, args.workload, args.seed, args.trials,
                       out_dir, "sweep")
    warm = dataclasses.replace(cfg, trials=WARMUP_TRIALS, min_errors=WARMUP_TRIALS + 1,
                               master_seed=REFERENCE_SEED, out_stem="warmup")

    tracer = Tracer() if args.trace else None
    try:
        if tracer:
            tracer.install({"sim": sim, "pipeline": pipeline})
            span = tracer.open("sim.warmup")
        sweep(warm)
        if tracer:
            tracer.close(span)
        setup_s = time.perf_counter() - args.t0

        if tracer:
            span = tracer.open("sim.sweep")
        t_start = time.perf_counter()
        result = sweep(cfg)
        sweep_s = time.perf_counter() - t_start
        if tracer:
            tracer.close(span)
    finally:
        if tracer:
            tracer.restore()

    report = {
        "setup_s": setup_s,
        "sweep_s": sweep_s,
        "trials": cfg.trials,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
        **_tallies(result),
    }
    if tracer:
        report["spans"] = str(out_dir / "spans.json")
        tracer.dump(Path(report["spans"]))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
