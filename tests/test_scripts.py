import json
import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_planted_synergy_experiment_writes_summary(tmp_path, package_env):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "planted_synergy_experiment.py"), "--seeds", "1",
         "--models", "5", "--samples", "400", "--out", str(tmp_path)],
        capture_output=True, text=True, env=package_env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    assert set(summary) == {
        "seeds", "sq_correlation_wins", "sq_top1_beats_best_single",
        "sq_top1_beats_ck_top1", "mean_r", "elapsed_seconds",
    }
    assert summary["seeds"] == 1
    assert set(summary["mean_r"]) == {"CK", "BD", "KW", "SQ"}
    assert (tmp_path / "per_seed.csv").is_file()


def test_demo_pipeline_runs_every_command(tmp_path, package_env):
    # The script's `python3` must be the interpreter running the tests.
    package_env["PATH"] = os.pathsep.join([str(Path(sys.executable).parent),
                                           package_env.get("PATH", "")])
    proc = subprocess.run(
        ["bash", str(SCRIPTS / "demo_pipeline.sh")],
        cwd=tmp_path, capture_output=True, text=True, env=package_env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    run = tmp_path / "demo_run"
    assert (run / "pool" / "manifest.json").is_file()
    assert (run / "pool" / "labels.csv").is_file()
    assert sorted(p.name for p in (run / "eval").iterdir()) == [
        "correlations.json", *(f"scatter_{m}.csv" for m in ("bd", "ck", "gd", "kw", "qs", "sq"))
    ]
    assert (run / "sel" / "selection_sq.csv").is_file()
    assert json.loads((run / "case" / "case_study.json").read_text())["sample_id"] == "s00005"
