import json
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
