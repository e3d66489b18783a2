import csv
import io
import json
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from sqdiv.analytics import sweep
from sqdiv.cli import main
from sqdiv.pool import correctness, load_pool, write_pool
from sqdiv.qmetrics import DiversityScore
from sqdiv.scoring import FocalResult, ScoreConfig, SQBreakdown, score_team
from sqdiv.selection import select_and_evaluate
from sqdiv.teams import consensus, make_team

from _pools import pool_from_labels, random_pool


def run(args, capsys):
    try:
        code = main(args)
    except SystemExit as exc:  # argparse's own usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def sim_pool(tmp_path, capsys):
    out = tmp_path / "pool"
    code, _, _ = run(
        ["simulate", "--models", "4", "--samples", "120", "--classes", "3",
         "--groups", "2", "--seed", "5", "--out", str(out)],
        capsys,
    )
    assert code == 0
    return out / "manifest.json"


def test_simulate_writes_expected_files(tmp_path, capsys):
    out = tmp_path / "pool"
    code, stdout, _ = run(
        ["simulate", "--models", "4", "--samples", "60", "--classes", "3",
         "--groups", "2", "--seed", "7", "--out", str(out)],
        capsys,
    )
    assert code == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == [".sqdiv-cache", "labels.csv", "manifest.json", "model_00.csv",
                     "model_01.csv", "model_02.csv", "model_03.csv"]
    [entry] = (out / ".sqdiv-cache").iterdir()
    assert re.fullmatch(r"manifest\.json\.[0-9a-f]{64}\.[0-9a-f]{64}\.npy", entry.name)
    assert "pool fingerprint" in stdout
    assert "planted team" in stdout

    pool = load_pool(out / "manifest.json")
    fingerprint = stdout.splitlines()[0].split()[-1]
    assert pool.fingerprint() == fingerprint


def test_simulate_repeats_identically(tmp_path, capsys):
    args = ["simulate", "--models", "3", "--samples", "50", "--classes", "3",
            "--groups", "3", "--seed", "9"]
    code1, out1, _ = run(args + ["--out", str(tmp_path / "a")], capsys)
    code2, out2, _ = run(args + ["--out", str(tmp_path / "b")], capsys)
    assert code1 == code2 == 0
    assert out1.splitlines()[0] == out2.splitlines()[0]
    for name in ("manifest.json", "labels.csv", "model_00.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_simulate_rejects_single_model(tmp_path, capsys):
    code, _, err = run(
        ["simulate", "--models", "1", "--out", str(tmp_path / "x")], capsys
    )
    assert code == 2
    assert "usage error" in err


def test_evaluate_outputs(sim_pool, tmp_path, capsys):
    out = tmp_path / "eval"
    code, stdout, _ = run(
        ["evaluate", "--pool", str(sim_pool), "--out", str(out), "--seed", "0"],
        capsys,
    )
    assert code == 0
    report = json.loads((out / "correlations.json").read_text())
    assert set(report) == {"CK", "QS", "BD", "GD", "KW", "SQ"}
    for metric in report:
        rows = list(csv.reader((out / f"scatter_{metric.lower()}.csv").open()))
        assert rows[0] == ["team", "size", "score", "accuracy"]
        assert len(rows) - 1 == 11  # all teams of a 4-model pool
        assert f"{metric} " in stdout


@pytest.mark.parametrize("method", ["soft", "majority"])
@pytest.mark.parametrize("m", [4, 11], ids=["digit-keys", "hyphen-keys"])
def test_scatter_files_equal_csv_writer_rows(tmp_path, capsys, m, method):
    manifest = write_pool(random_pool(m, m, 40, 3), tmp_path / "pool")
    out = tmp_path / "eval"
    code, _, _ = run(
        ["evaluate", "--pool", str(manifest), "--consensus", method, "--out", str(out)], capsys
    )
    assert code == 0
    pool = load_pool(manifest)
    metrics = ["CK", "QS", "BD", "GD", "KW", "SQ"]
    result = sweep(pool, correctness(pool), metrics, consensus_method=method)
    assert ("-" in result.team_keys[0]) == (m > 10)
    for metric in metrics:
        expected = io.StringIO(newline="")
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["team", "size", "score", "accuracy"])
        writer.writerows(result.rows(metric))
        path = out / f"scatter_{metric.lower()}.csv"
        assert path.read_bytes() == expected.getvalue().encode("utf-8"), metric


@pytest.mark.parametrize("metric", ["sq", "qs"])
@pytest.mark.parametrize("m", [4, 11], ids=["digit-keys", "hyphen-keys"])
def test_selection_file_equals_csv_writer_rows(tmp_path, capsys, m, metric):
    manifest = write_pool(random_pool(m, m, 40, 3), tmp_path / "pool")
    out = tmp_path / "sel"
    code, _, _ = run(["select", "--pool", str(manifest), "--metric", metric,
                      "--out", str(out)], capsys)
    assert code == 0
    pool = load_pool(manifest)
    report = select_and_evaluate(pool, correctness(pool), metric, k=10)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["rank", "team", "metric", "score", "ensemble_acc", "best_single_acc",
                     "improvement"])
    writer.writerows((r.rank, r.team_key, r.metric, r.score, r.ensemble_accuracy,
                      r.best_single_accuracy, r.improvement) for r in report.rows)
    path = out / f"selection_{metric}.csv"
    assert path.read_bytes() == expected.getvalue().encode("utf-8")


def test_evaluate_zero_alpha_weight_equals_epsilon_mean(sim_pool, tmp_path, capsys):
    out = tmp_path / "eval"
    code, _, _ = run(
        ["evaluate", "--pool", str(sim_pool), "--out", str(out),
         "--metrics", "sq", "--w-epsilon", "1", "--w-alpha", "0"],
        capsys,
    )
    assert code == 0
    pool = load_pool(sim_pool)
    cm = correctness(pool)
    rows = list(csv.DictReader((out / "scatter_sq.csv").open()))
    for row in rows:
        team = make_team([int(ch) for ch in row["team"]], pool.n_models)
        breakdown = score_team(pool, cm, team, "SQ", ScoreConfig(w_alpha=0.0)).detail
        eps_mean = float(np.mean([f.sq_epsilon for f in breakdown.per_focal]))
        assert float(row["score"]) == pytest.approx(eps_mean, abs=1e-12)


def test_evaluate_planted_pool_ranks_sq_highest(tmp_path, capsys):
    pool_dir = tmp_path / "pool"
    code, _, _ = run(
        ["simulate", "--models", "6", "--samples", "1500", "--classes", "8",
         "--groups", "3", "--seed", "1", "--out", str(pool_dir)],
        capsys,
    )
    assert code == 0
    out = tmp_path / "eval"
    code, _, _ = run(
        ["evaluate", "--pool", str(pool_dir / "manifest.json"), "--out", str(out),
         "--metrics", "ck,bd,kw,sq"],
        capsys,
    )
    assert code == 0
    report = json.loads((out / "correlations.json").read_text())
    assert report["SQ"] > report["CK"]
    assert report["SQ"] > report["BD"]
    assert report["SQ"] > report["KW"]


def test_select_output_shape(sim_pool, tmp_path, capsys):
    out = tmp_path / "sel"
    code, stdout, _ = run(
        ["select", "--pool", str(sim_pool), "--out", str(out),
         "--metric", "sq", "--topk", "5"],
        capsys,
    )
    assert code == 0
    rows = list(csv.DictReader((out / "selection_sq.csv").open()))
    assert len(rows) == 5
    assert [r["rank"] for r in rows] == ["1", "2", "3", "4", "5"]
    assert "top1 team=" in stdout
    for row in rows:
        improvement = float(row["ensemble_acc"]) - float(row["best_single_acc"])
        assert float(row["improvement"]) == pytest.approx(improvement, abs=1e-12)


def test_select_all_clone_pool_prefers_smaller_teams(tmp_path, capsys):
    labels = np.tile(np.array([0, 1, 0, 1, 1, 0, 1, 0]), (4, 1))
    labels[:, 7] = 1  # shared mistake: every team scores identically
    pool = pool_from_labels(labels, truth=(0, 1, 0, 1, 1, 0, 1, 0), n_classes=2)
    manifest = write_pool(pool, tmp_path / "clones")
    out = tmp_path / "sel"
    code, _, _ = run(
        ["select", "--pool", str(manifest), "--out", str(out), "--metric", "ck"],
        capsys,
    )
    assert code == 0
    rows = list(csv.DictReader((out / "selection_ck.csv").open()))
    assert rows[0]["team"] == "01"
    sizes = [len(r["team"]) for r in rows]
    assert sizes == sorted(sizes)


def test_select_end_ue_matches_library(sim_pool, tmp_path, capsys):
    out = tmp_path / "sel"
    code, _, _ = run(
        ["select", "--pool", str(sim_pool), "--out", str(out),
         "--metric", "bd", "--topk", "3"],
        capsys,
    )
    assert code == 0
    pool = load_pool(sim_pool)
    cm = correctness(pool)
    report = select_and_evaluate(pool, cm, "bd", ScoreConfig(), k=3)
    rows = list(csv.DictReader((out / "selection_bd.csv").open()))
    for row, expected in zip(rows, report.rows):
        assert row["team"] == expected.team_key
        assert float(row["score"]) == expected.score
        assert float(row["ensemble_acc"]) == expected.ensemble_accuracy


@pytest.mark.parametrize("argv", [
    ["evaluate"],
    ["evaluate", "--neg-cap", "50"],
    ["evaluate", "--full-set", "--consensus", "majority"],
    ["select", "--metric", "sq"],
    ["select", "--metric", "qs", "--neg-cap", "50"],
])
def test_cli_builds_no_score_objects(sim_pool, tmp_path, capsys, monkeypatch, argv):
    """The CLI reads score columns as arrays: no per-team score, SQ
    breakdown or focal record is ever constructed."""
    built = []
    for cls in (DiversityScore, SQBreakdown, FocalResult):
        def counting(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    code, _, err = run([*argv, "--pool", str(sim_pool), "--out", str(tmp_path / "o")], capsys)
    assert code == 0, err
    assert built == []


def test_inspect_round_trip(sim_pool, tmp_path, capsys):
    out = tmp_path / "case"
    code, stdout, _ = run(
        ["inspect", "--pool", str(sim_pool), "--team", "013",
         "--sample", "s00002", "--out", str(out)],
        capsys,
    )
    assert code == 0
    record = json.loads((out / "case_study.json").read_text())
    assert record["team"] == "013"
    assert record["sample_id"] == "s00002"
    assert len(record["members"]) == 3

    pool = load_pool(sim_pool)
    fused = consensus(pool, [0, 1, 3])
    j = pool.sample_ids.index("s00002")
    assert record["consensus"]["predicted"] == pool.classes[int(fused.predicted[j])]
    assert f"sample s00002" in stdout


def test_inspect_unknown_sample_or_member(sim_pool, tmp_path, capsys):
    code, _, err = run(
        ["inspect", "--pool", str(sim_pool), "--team", "01",
         "--sample", "missing", "--out", str(tmp_path / "x")],
        capsys,
    )
    assert code == 2
    assert "unknown sample_id" in err

    code, _, err = run(
        ["inspect", "--pool", str(sim_pool), "--team", "09",
         "--sample", "s00000", "--out", str(tmp_path / "y")],
        capsys,
    )
    assert code == 2
    assert "unknown team member" in err


def test_evaluate_perfect_pool_fails_with_context(tmp_path, capsys):
    labels = np.zeros((2, 4), dtype=int)
    pool = pool_from_labels(labels, truth=(0, 0, 0, 0), n_classes=2)
    manifest = write_pool(pool, tmp_path / "perfect")
    code, _, err = run(
        ["evaluate", "--pool", str(manifest), "--out", str(tmp_path / "out"),
         "--metrics", "ck"],
        capsys,
    )
    assert code == 1
    assert "team 01" in err


def test_config_file_supplies_and_cli_overrides(sim_pool, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"metrics": "bd", "w-alpha": 0.0, "out": str(tmp_path / "c1")}))
    code, _, _ = run(["evaluate", "--pool", str(sim_pool), "--config", str(config)], capsys)
    assert code == 0
    assert (tmp_path / "c1" / "scatter_bd.csv").exists()
    assert not (tmp_path / "c1" / "scatter_ck.csv").exists()

    code, _, _ = run(
        ["evaluate", "--pool", str(sim_pool), "--config", str(config),
         "--metrics", "kw", "--out", str(tmp_path / "c2")],
        capsys,
    )
    assert code == 0
    assert (tmp_path / "c2" / "scatter_kw.csv").exists()
    assert not (tmp_path / "c2" / "scatter_bd.csv").exists()


@pytest.mark.parametrize("argv", [
    ["evaluate", "--w-alpha", "-1"],
    ["select", "--metric", "sq", "--w-alpha", "-1"],
    ["evaluate", "--neg-cap", "0"],
    ["evaluate", "--w-epsilon", "nan"],
    ["select", "--metric", "sq", "--w-alpha", "inf"],
    ["select", "--metric", "sq", "--w-epsilon=-inf"],
])
def test_bad_scoring_flag_is_usage_error(sim_pool, tmp_path, capsys, argv):
    out = tmp_path / "out"
    code, _, err = run(argv + ["--pool", str(sim_pool), "--out", str(out)], capsys)
    assert code == 2
    assert "bad scoring flag" in err
    assert not out.exists()


_SIZE_FLAGS = (["--min-size", "1"], ["--max-size", "99"], ["--min-size", "5", "--max-size", "3"])


@pytest.mark.parametrize("argv", [
    *([command, *flags] for command in ("evaluate", "select") for flags in _SIZE_FLAGS),
    ["evaluate", "--metrics", "sq,SQ"],
    ["evaluate", "--metrics", ","],
    ["select", "--topk", "0"],
    ["simulate", "--base-accuracy", "0.9:abc"],
    ["simulate", "--neg-cap", "5"],
    ["inspect", "--team", "01", "--sample", "s00000", "--w-alpha", "3"],
], ids=" ".join)
def test_bad_flag_is_usage_error(sim_pool, tmp_path, capsys, argv):
    out = tmp_path / "out"
    if argv[0] != "simulate":
        argv = argv + ["--pool", str(sim_pool)]
    code, _, _ = run(argv + ["--out", str(out)], capsys)
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("value", ["0.9:inf", "1e999:0.9", "-inf:0.9", "1e308:-1e308",
                                   "0.9:", ",", "0.9,0.9,nan"])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_base_accuracy_that_is_not_finite_is_usage_error(tmp_path, capsys, value, via):
    """Rejected before np.linspace, which would warn, naming the flag."""
    out = tmp_path / "out"
    argv = ["simulate", "--models", "3", "--samples", "10", "--classes", "2", "--out", str(out)]
    if via == "flag":
        argv.append(f"--base-accuracy={value}")
    else:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"base-accuracy": value}))
        argv += ["--config", str(config)]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err.splitlines() == [f"usage error: --base-accuracy takes finite numbers: {value!r}"]
    assert not out.exists()


@pytest.mark.parametrize("models, argv, message", [
    (4, ["evaluate", "--min-size", "4"], "--min-size 4 --max-size 4 leave 1 candidate team"),
    (4, ["evaluate", "--min-size", "3", "--max-size", "3"], None),
    (17, ["evaluate"], "131054 candidate teams on a 17-model pool exceed the budget"),
    (17, ["select", "--metric", "ck"], "131054 candidate teams on a 17-model pool"),
], ids=str)
def test_team_count_is_checked_before_scoring(tmp_path, capsys, models, argv, message):
    """evaluate needs 2 teams to correlate, and no command enumerates more
    teams than the budget; both are usage errors decided before --out."""
    manifest = write_pool(random_pool(3, models, 6, 3), tmp_path / "pool")
    out = tmp_path / "out"
    code, _, err = run(argv + ["--pool", str(manifest), "--out", str(out)], capsys)
    if message is None:
        assert code == 0
        assert out.exists()
    else:
        assert code == 2
        assert message in err
        assert not out.exists()


@pytest.mark.parametrize("config, key", [
    ({"negcap": 50}, "negcap"),
    ({"alpha-on": "correctnes"}, "alpha-on"),
    ({"topk": 2.5}, "topk"),
    ({"full-set": "false"}, "full_set"),
    ({"topk": True}, "topk"),
], ids=str)
def test_bad_config_is_usage_error(sim_pool, tmp_path, capsys, config, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code, _, err = run(
        ["select", "--pool", str(sim_pool), "--config", str(path), "--out", str(out)], capsys
    )
    assert code == 2
    assert key in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "select"])
def test_non_finite_config_weight_is_usage_error(sim_pool, tmp_path, capsys, command):
    path = tmp_path / "cfg.json"
    path.write_text('{"w_epsilon": NaN}')  # json.dumps writes NaN too
    out = tmp_path / "out"
    code, _, err = run(
        [command, "--pool", str(sim_pool), "--config", str(path), "--out", str(out)], capsys
    )
    assert code == 2
    assert "bad scoring flag: weights must be finite" in err
    assert not out.exists()


def test_overflowing_sq_correlation_is_null(sim_pool, tmp_path, capsys):
    """Weights of 1e200 give finite SQ scores whose variance overflows; their
    correlation is written as null, so correlations.json stays strict JSON."""
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, _ = run(
            ["evaluate", "--pool", str(sim_pool), "--w-epsilon", "1e200", "--w-alpha", "1e200",
             "--out", str(out)], capsys,
        )
    assert code == 0
    assert "SQ pearson=undefined" in stdout

    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    report = json.loads((out / "correlations.json").read_text(), parse_constant=reject)
    assert report["SQ"] is None
    assert all(isinstance(report[m], float) for m in ("CK", "QS", "BD", "GD", "KW"))


@pytest.mark.parametrize("command", ["evaluate", "select"])
def test_sq_weights_that_overflow_a_score_are_an_error(sim_pool, tmp_path, capsys, command):
    """Weights near the float maximum are finite, but the SQ score they give
    is not: the run fails with one line naming the weights, before --out."""
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run(
            [command, "--pool", str(sim_pool), "--w-epsilon", "1e308", "--w-alpha", "1e308",
             "--out", str(out)], capsys,
        )
    assert code == 1
    assert err == ("error: SQ weights w_epsilon=1e+308 and w_alpha=1e+308 overflow "
                   "the SQ score\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "select"])
def test_neg_cap_past_int64_equals_a_cap_of_every_sample(tmp_path, capsys, command):
    """A cap at or above the sample count keeps every negative sample, however
    far past the int64 range it lies."""
    manifest = tmp_path / "pool" / "manifest.json"
    assert run(["simulate", "--models", "4", "--samples", "50",
                "--out", str(manifest.parent)], capsys)[0] == 0
    metric = ["--metric", "ck"] if command == "select" else []
    outputs = []
    for cap in ("50", "100000000000000000000"):
        out = tmp_path / f"cap{len(cap)}"
        code, stdout, err = run([command, "--pool", str(manifest), *metric, "--neg-cap", cap,
                                 "--out", str(out)], capsys)
        assert (code, err) == (0, "")
        outputs.append((stdout.replace(str(out), "OUT"),
                        {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv", [
    ["simulate", "--models", "4", "--samples", "50"],
    ["evaluate", "--neg-cap", "5"],
    ["select", "--neg-cap", "5"],
    ["select"],
], ids=" ".join)
@pytest.mark.parametrize("via", ["flag", "config"])
def test_negative_seed_is_usage_error(sim_pool, tmp_path, capsys, argv, via):
    if argv[0] != "simulate":
        argv = argv + ["--pool", str(sim_pool)]
    if via == "flag":
        argv = argv + ["--seed", "-1"]
    else:
        config = tmp_path / "cfg.json"
        config.write_text('{"seed": -1}')
        argv = argv + ["--config", str(config)]
    out = tmp_path / "out"
    code, _, err = run(argv + ["--out", str(out)], capsys)
    assert code == 2
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert "seed must be a non-negative integer" in err
    assert not out.exists()


@pytest.mark.parametrize("message", ["Unable to allocate 149. GiB for an array", ""])
def test_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch, message):
    def exhausted(spec):
        raise MemoryError(message)

    monkeypatch.setattr("sqdiv.cli.generate", exhausted)
    out = tmp_path / "out"
    code, stdout, err = run(["simulate", "--models", "4", "--samples", "50",
                             "--out", str(out)], capsys)
    assert (code, stdout) == (1, "")
    assert err == f"error: {message or 'MemoryError'}\n"
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    (None, "config file not found: "),
    ("{", "config file is not valid JSON: "),
    ("[1]", "config file must hold a JSON object"),
], ids=["missing", "invalid-json", "not-an-object"])
def test_unreadable_config_is_usage_error(sim_pool, tmp_path, capsys, text, message):
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    out = tmp_path / "out"
    code, _, err = run(
        ["select", "--pool", str(sim_pool), "--config", str(path), "--out", str(out)], capsys
    )
    assert code == 2
    assert err.startswith(f"usage error: {message}") and err.count("\n") == 1
    assert not out.exists()


def _set(key, value):
    return lambda manifest: manifest.update({key: value})


def _string_entry(manifest):
    manifest["models"][1] = manifest["models"][1]["predictions_path"]


@pytest.mark.parametrize("edit, key", [
    (_set("models", [1, 2]), "'models' entry 0"),
    (_set("classes", 5), "'classes'"),
    (_set("labels_path", 5), "'labels_path'"),
    (_string_entry, "'models' entry 1"),
    (lambda manifest: manifest["models"][0].update(id=[0]), "'models' entry 0: 'id'"),
], ids=["int-entries", "int-classes", "int-labels-path", "string-entry", "list-id"])
def test_malformed_manifest_is_a_load_error(sim_pool, tmp_path, capsys, edit, key):
    manifest = json.loads(sim_pool.read_text())
    edit(manifest)
    sim_pool.write_text(json.dumps(manifest))
    out = tmp_path / "out"
    code, _, err = run(["select", "--pool", str(sim_pool), "--out", str(out)], capsys)
    assert code == 1
    assert err.startswith("error: manifest key ") and err.count("\n") == 1
    assert key in err and str(sim_pool) in err
    assert not out.exists()


def test_config_ignores_other_subcommands_flags(sim_pool, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"metrics": "bd", "topk": 5}))
    out = tmp_path / "out"
    code, _, _ = run(
        ["evaluate", "--pool", str(sim_pool), "--config", str(config), "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == ["correlations.json", "scatter_bd.csv"]


def test_missing_required_flags(capsys, tmp_path):
    code, _, err = run(["evaluate", "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert "--pool is required" in err
    code, _, err = run(["select", "--pool", "nope.json"], capsys)
    assert code == 2
    assert "--out is required" in err


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "sqdiv", "simulate", "--models", "2",
         "--samples", "10", "--classes", "2", "--groups", "1",
         "--seed", "1", "--out", str(tmp_path / "p")],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "pool fingerprint" in result.stdout
    assert "planted team n/a" in result.stdout  # single group has no planted team
    result = subprocess.run(
        [sys.executable, "-m", "sqdiv", "simulate", "--models", "0"],
        capture_output=True, text=True,
    )
    assert result.returncode == 2
