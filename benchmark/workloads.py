"""Workload table shared by run.py and sweep.py.

Plain data only, so run.py can read it without importing capolar.
Each workload calls one public sweep function behind the CLI with a fixed
trial count; ``min_errors`` sits above that count so the stop rule never
changes how much work a sweep does, and ``batch_size`` / ``round_trials``
keep the program's defaults so a change of those defaults shows up.
"""

# The warm-up sweep of every sweep process runs at this seed with this many
# trials, and its CSV is compared with reference/<workload>.csv.
REFERENCE_SEED = 2024
WARMUP_TRIALS = 512

EPSILON_GRID = (10.0 ** -1, 10.0 ** -1.5, 10.0 ** -2, 10.0 ** -2.5, 10.0 ** -3)

WORKLOADS = {
    # C4/C5 path: ~13% of trials fail the CRC and each failure costs a full
    # 65,536-query gcd_decode, so the outer stage is ~93% of a trial.
    "bler-gcd": {
        "sweep": "run_bler_sweep",
        "trials": 2048,
        "config": {"dims": (64, 48, 24), "snr_grid_db": (5.0,),
                   "list_size": 4, "decoder": "cca_scl",
                   "outer_decoder": "gcd", "outer_max_queries": 1 << 16},
    },
    # C6 path: SCL ~75% and trial generation ~22%; the outer decoder never
    # runs, so an outer-kernel change should not move this workload.
    "calibrate": {
        "sweep": "run_calibration",
        "trials": 16384,
        "config": {"dims": (64, 43, 32), "snr_grid_db": (2.0,),
                   "list_size": 8, "decoder": "ca_scl"},
    },
    # C7 path at 3 dB: sogrand stops at its first hit (~1.9k queries per
    # call, never the budget) and --retry regenerates retried trials one at
    # a time in the parent.  At the script's 5 dB the outer runs once per
    # ~8k trials and this would repeat "calibrate".
    "uer-sogrand-retry": {
        "sweep": "run_uer_sweep",
        "trials": 12288,
        "config": {"dims": (64, 43, 32), "snr_grid_db": (3.0,),
                   "list_size": 8, "decoder": "cca_scl",
                   "outer_decoder": "sogrand", "epsilon_grid": EPSILON_GRID,
                   "retry_on_threshold_fail": True},
    },
}
