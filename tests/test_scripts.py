"""Smoke runs of the scripts in scripts/: each one's run() with a tiny
trial budget, so a renamed or deleted flag fails here, not in a long run."""

import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# per script: the arguments beyond the tiny budget, and the stems it writes
RUNS = {
    "run_bler_comparison": (["--only", "nonsys4824"],
                            ["nonsys4824_ca_scl", "nonsys4824_cca_scl"]),
    "run_calibration": ([], ["calibration"]),
    "run_uer_sweep": ([], ["uer_nonsystematic", "uer_systematic"]),
}


@pytest.mark.parametrize("script", sorted(RUNS))
def test_script_runs_and_writes_its_tables(tmp_path, script):
    argv, stems = RUNS[script]
    run = runpy.run_path(str(SCRIPTS / f"{script}.py"))["run"]
    assert run(argv + ["--trials", "256", "--out", str(tmp_path)]) == 0
    for stem in stems:
        for suffix in (".csv", ".json", ".dat"):
            assert (tmp_path / stem).with_suffix(suffix).is_file(), stem + suffix


def test_every_script_is_smoke_tested():
    assert {p.stem for p in SCRIPTS.glob("*.py")} == set(RUNS)
