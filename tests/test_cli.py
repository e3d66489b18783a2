import csv
import io
import json
import math
import random
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
from sqdiv.synth import default_spec, generate
from sqdiv.teams import consensus, make_team

from _pools import pool_from_labels, random_pool


def run(args, capsys):
    try:
        code = main(args)
    except SystemExit as exc:  # -h and --help
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
    assert [p.name for p in (out / ".sqdiv-cache").iterdir()] == ["manifest.json.entry"]
    assert "pool fingerprint" in stdout
    assert "planted team" in stdout

    pool = load_pool(out / "manifest.json")
    fingerprint = stdout.splitlines()[0].split()[-1]
    assert pool.fingerprint() == fingerprint


@pytest.mark.parametrize("sizes", [None, (12, 1000, 15, 3), (4, 50, 3, 1)], ids=str)
def test_simulate_generates_default_spec(tmp_path, capsys, sizes):
    """simulate's flag defaults are default_spec's, which the benchmark
    relies on to check the pool simulate reports."""
    argv = ["simulate", "--out", str(tmp_path / "pool")]
    spec = default_spec()
    if sizes is not None:
        m, n, c, seed = sizes
        argv += ["--models", str(m), "--samples", str(n), "--classes", str(c),
                 "--seed", str(seed)]
        spec = default_spec(m, n, c, seed=seed)
    code, stdout, _ = run(argv, capsys)
    assert code == 0
    assert stdout.splitlines()[0] == f"pool fingerprint {generate(spec).fingerprint()}"


def test_simulate_repeats_identically(tmp_path, capsys):
    args = ["simulate", "--models", "3", "--samples", "50", "--classes", "3",
            "--groups", "3", "--seed", "9"]
    code1, out1, _ = run(args + ["--out", str(tmp_path / "a")], capsys)
    code2, out2, _ = run(args + ["--out", str(tmp_path / "b")], capsys)
    assert code1 == code2 == 0
    assert out1.splitlines()[0] == out2.splitlines()[0]
    for name in ("manifest.json", "labels.csv", "model_00.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# Runs a second process must repeat byte for byte: capped runs draw their
# negative sets from --seed, and an 11-model pool's team keys are hyphenated.
_REPEATED = [
    ["evaluate", "--pool", "../p4/manifest.json", "--neg-cap", "5", "--seed", "3"],
    ["select", "--pool", "../p4/manifest.json", "--neg-cap", "5", "--seed", "3"],
    ["evaluate", "--pool", "../p11/manifest.json"],
    ["select", "--pool", "../p11/manifest.json"],
    ["inspect", "--pool", "../p11/manifest.json", "--team", "0-3-10", "--sample", "s00003"],
]
_MAIN_EACH = ("import json, sys; from sqdiv.cli import main; "
              "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))")


def test_a_second_process_repeats_every_byte(tmp_path, capsys, monkeypatch, package_env):
    """Identical invocations write identical artifacts and stdout, here and
    in another process with another string hash seed."""
    monkeypatch.chdir(tmp_path)
    for m in (4, 11):
        assert run(["simulate", "--models", str(m), "--samples", "50", "--out", f"p{m}"],
                   capsys)[0] == 0
    argvs = [argv + ["--out", f"out{i}"] for i, argv in enumerate(_REPEATED)]
    (tmp_path / "first").mkdir()
    monkeypatch.chdir(tmp_path / "first")
    stdout = []
    for argv in argvs:
        code, out, err = run(argv, capsys)
        assert (code, err) == (0, ""), argv
        stdout.append(out)
    (tmp_path / "second").mkdir()
    env = {**package_env, "PYTHONHASHSEED": "0" if sys.flags.hash_randomization else "1"}
    second = subprocess.run([sys.executable, "-c", _MAIN_EACH, json.dumps(argvs)],
                            env=env, cwd=tmp_path / "second", capture_output=True, text=True,
                            timeout=120)
    assert (second.returncode, second.stderr) == (0, "")
    assert second.stdout == "".join(stdout)
    first, again = ({str(p.relative_to(d)): p.read_bytes() for p in d.rglob("*") if p.is_file()}
                    for d in (tmp_path / "first", tmp_path / "second"))
    assert len(first) == 17 and first == again


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


@pytest.mark.parametrize("text, message", [
    ('{"w-alpha": 0.5, "w_alpha": 2.0}', "config key repeats: 'w-alpha' and 'w_alpha'"),
    ('{"topk": 3, "topk": 5}', "config key repeats: 'topk' and 'topk'"),
    ('{"bogus": null}', "config key names no flag: bogus"),
], ids=["dash-and-underscore", "same-key", "unknown-null"])
def test_repeated_or_unknown_config_key_is_usage_error(sim_pool, tmp_path, capsys,
                                                       text, message):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    out = tmp_path / "out"
    code, _, err = run(
        ["select", "--pool", str(sim_pool), "--config", str(path), "--out", str(out)], capsys
    )
    assert (code, err) == (2, f"usage error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, config, message", [
    (["select", "--topk", "2.5"], None, "argument --topk: invalid int value: '2.5'"),
    (["select"], {"topk": 2.5}, "argument --topk: invalid int value: '2.5'"),
    (["select", "--bogus"], None, "unrecognized arguments: --bogus"),
    ([], None, "the following arguments are required: command"),
], ids=["typed-value", "config-value", "unknown-flag", "no-subcommand"])
def test_argparse_refusal_is_one_usage_error_line(sim_pool, tmp_path, capsys,
                                                  argv, config, message):
    """argparse's refusals are usage errors as every other one is: one
    stderr line, no usage synopsis, exit 2 and no --out."""
    out = tmp_path / "out"
    if argv:
        argv = argv + ["--pool", str(sim_pool), "--out", str(out)]
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    assert run(argv, capsys) == (2, "", f"usage error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [["-h"], ["select", "-h"], ["simulate", "--help"]], ids=" ".join)
def test_help_still_prints_and_exits_zero(capsys, argv):
    code, stdout, err = run(argv, capsys)
    assert (code, err) == (0, "")
    assert stdout.startswith("usage: sqdiv")


@pytest.mark.parametrize("config", [{"config": "nope.json", "topk": 3}, {"config": None}],
                         ids=["named", "null"])
def test_config_key_naming_a_config_file_is_usage_error(sim_pool, tmp_path, capsys, config):
    """A config file cannot name another: the key was typed, then never
    opened."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code, _, err = run(
        ["select", "--pool", str(sim_pool), "--config", str(path), "--out", str(out)], capsys
    )
    assert (code, err) == (2, "usage error: config key names another config file: config\n")
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


@pytest.mark.parametrize("write, message", [
    (lambda path: None, "config file not found: {}\n"),
    (lambda path: path.write_text("{"), "config file is not valid JSON: "),
    (lambda path: path.write_text("[1]"), "config file must hold a JSON object\n"),
    (lambda path: path.write_bytes(b'{"topk": 3}\xff'), "config file is not UTF-8 text: {}\n"),
    (lambda path: path.mkdir(), "config path is not a file: {}\n"),
], ids=["missing", "invalid-json", "not-an-object", "not-utf8", "directory"])
def test_unreadable_config_is_usage_error(sim_pool, tmp_path, capsys, write, message):
    path = tmp_path / "cfg.json"
    write(path)
    out = tmp_path / "out"
    code, _, err = run(
        ["select", "--pool", str(sim_pool), "--config", str(path), "--out", str(out)], capsys
    )
    assert code == 2
    assert err.startswith(f"usage error: {message.format(path)}") and err.count("\n") == 1
    assert not out.exists()


_INSPECT = ["inspect", "--team", "013", "--sample", "s00007"]


@pytest.mark.parametrize("command, key, value", [
    *((command, "consensus", value) for command in ("evaluate", "select", "inspect")
      for value in ("majority-voting", "MAJORITY")),
    *((command, "alpha-on", "LABELS") for command in ("evaluate", "select")),
    *(("evaluate", key, value) for key in ("out", "pool", "metrics")
      for value in (["o"], {"o": "o"})),
], ids=lambda v: v if isinstance(v, str) else type(v).__name__)
def test_config_value_is_refused_as_the_typed_flag_is(sim_pool, tmp_path, capsys,
                                                      monkeypatch, command, key, value):
    """A value argparse refuses when typed is refused from --config with the
    same message; a JSON list or object, which no flag takes, is refused too.
    Neither run creates --out, nor anything in the working directory."""
    monkeypatch.chdir(tmp_path / "pool")
    before = sorted(p.name for p in (tmp_path / "pool").iterdir())
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({key: value}))
    out = tmp_path / "out"
    argv = (_INSPECT if command == "inspect" else [command]) + ["--pool", str(sim_pool)]
    if key != "out":
        argv += ["--out", str(out)]
    code, _, err = run(argv[:1] + ["--config", str(config)] + argv[1:], capsys)
    assert code == 2
    if isinstance(value, str):
        assert (code, err) == run(argv + [f"--{key}={value}"], capsys)[::2]
    else:
        assert err == f"usage error: config value has the wrong type for: {key}\n"
    assert not out.exists()
    assert sorted(p.name for p in (tmp_path / "pool").iterdir()) == before


@pytest.mark.parametrize("argv, typed, config", [
    (["evaluate"], ["--consensus", "majority", "--neg-cap", "7", "--seed", "3", "--full-set",
                    "--alpha-on", "correctness", "--metrics", "ck,sq"],
     {"consensus": "majority", "neg-cap": 7, "seed": 3, "full_set": True,
      "alpha_on": "correctness", "spearman": False, "metrics": "ck,sq"}),
    (["evaluate"], ["--min-size", "3", "--w-alpha", "0.5", "--spearman"],
     {"consensus": "soft", "min-size": 3, "w_alpha": 0.5, "spearman": True}),
    (["select"], ["--metric", "qs", "--consensus", "majority", "--full-set", "--topk", "4"],
     {"metric": "qs", "consensus": "majority", "full-set": True, "topk": 4}),
    (["select"], ["--alpha-on", "correctness", "--neg-cap", "9", "--seed", "2"],
     {"metric": "sq", "alpha-on": "correctness", "neg_cap": 9, "seed": 2,
      "max-size": None, "full_set": None}),
    (_INSPECT, ["--consensus", "majority"], {"consensus": "majority"}),
], ids=["evaluate-capped", "evaluate-spearman", "select-qs", "select-sq", "inspect"])
def test_config_writes_what_the_typed_flags_write(sim_pool, tmp_path, capsys,
                                                  argv, typed, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    runs = []
    for name, extra in (("typed", typed), ("config", ["--config", str(path)])):
        out = tmp_path / name
        code, stdout, err = run(argv + extra + ["--pool", str(sim_pool), "--out", str(out)],
                                capsys)
        assert (code, err) == (0, "")
        runs.append((stdout.replace(str(out), "OUT"),
                     {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
    assert runs[0] == runs[1]


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


def _artifacts(manifest, tmp_path, capsys, name):
    """Every file evaluate and select write from the pool at manifest, with
    their stdout (the --out path replaced)."""
    written = {}
    for argv in (["evaluate", "--consensus", "majority"], ["select", "--metric", "qs"]):
        out = tmp_path / f"{name}-{argv[0]}"
        code, stdout, err = run(argv + ["--pool", str(manifest), "--out", str(out)], capsys)
        assert (code, err) == (0, "")
        written[argv[0]] = stdout.replace(str(out), "OUT")
        written.update({f"{argv[0]}/{p.name}": p.read_bytes() for p in sorted(out.iterdir())})
    return written


@pytest.mark.parametrize("ids", [[None] * 4, ["omit"] * 4, ["omit", 1, None, "omit"]],
                         ids=["all-null", "all-omitted", "mixed"])
def test_model_entries_without_id_load_as_positional_ids(sim_pool, tmp_path, capsys, ids):
    """Model ids are positional, so an entry need not declare one: a
    manifest whose entries omit `id` (or give null) loads and writes what the
    manifest with ids 0..M-1 writes."""
    manifest = json.loads(sim_pool.read_text())
    assert [e["id"] for e in manifest["models"]] == [0, 1, 2, 3]
    expected = _artifacts(sim_pool, tmp_path, capsys, "ids")
    for entry, value in zip(manifest["models"], ids):
        if value == "omit":
            del entry["id"]
        else:
            entry["id"] = value
    stripped = sim_pool.with_name("stripped.json")
    stripped.write_text(json.dumps(manifest))
    assert _artifacts(stripped, tmp_path, capsys, "stripped") == expected


def test_equal_declared_model_ids_still_fail(sim_pool, tmp_path, capsys):
    manifest = json.loads(sim_pool.read_text())
    del manifest["models"][0]["id"], manifest["models"][2]["id"]
    manifest["models"][3]["id"] = 1
    sim_pool.write_text(json.dumps(manifest))
    out = tmp_path / "out"
    code, _, err = run(["select", "--pool", str(sim_pool), "--out", str(out)], capsys)
    assert (code, err) == (1, f"error: duplicate model ids in manifest: {sim_pool}\n")
    assert not out.exists()


# Tokens the pool-file fuzz inserts: CSV syntax, numbers a probability cell
# must not hold, a NUL, a bare carriage return and a letter.
_FUZZ_TOKENS = (b",", b'"', b"nan", b"-1", b"1e999", b"\x00", b"\r", b"x")


def _mutate(data, rng):
    """`data` with one seeded mutation: a token inserted, a span deleted, a
    line duplicated or one bit of a byte flipped."""
    kind, at = rng.randrange(4), rng.randrange(len(data))
    if kind == 0:
        return data[:at] + rng.choice(_FUZZ_TOKENS) + data[at:]
    if kind == 1:
        return data[:at] + data[at + rng.randint(1, 12):]
    if kind == 2:
        lines = data.splitlines(keepends=True)
        i = rng.randrange(len(lines))
        return b"".join(lines[:i + 1] + lines[i:])
    flipped = bytearray(data)
    flipped[at] ^= 1 << rng.randrange(8)
    return bytes(flipped)


def _refuse_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def test_a_mutated_model_file_evaluates_or_fails_naming_it(tmp_path, capsys):
    """Seeded fuzz of the model files of an M=3, N=20, C=3 pool: evaluate on
    a fresh copy, with no cache, holding one mutated model file either exits
    0 with finite scores and strict-JSON correlations, or exits 1 with one
    `error: ` line naming that file and no --out. Nothing raises."""
    source = write_pool(random_pool(27, n_models=3, n_samples=20, n_classes=3),
                        tmp_path / "pool").parent
    files = {p.name: p.read_bytes() for p in source.iterdir() if p.is_file()}
    rng = random.Random(27)
    codes = []
    for i in range(300):
        copy = tmp_path / f"copy{i}"
        copy.mkdir()
        for name, data in files.items():
            (copy / name).write_bytes(data)
        target = copy / f"model_{rng.randrange(3):02d}.csv"
        target.write_bytes(_mutate(files[target.name], rng))
        out = copy / "out"
        code, _, err = run(["evaluate", "--pool", str(copy / "manifest.json"),
                            "--out", str(out)], capsys)
        codes.append(code)
        if code == 1:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert str(target) in err, err
            assert not out.exists()
            continue
        assert code == 0, err
        json.loads((out / "correlations.json").read_text(), parse_constant=_refuse_constant)
        for scatter in out.glob("scatter_*.csv"):
            rows = list(csv.DictReader(io.StringIO(scatter.read_text())))
            assert len(rows) == 4
            assert all(math.isfinite(float(row[k])) for row in rows
                       for k in ("score", "accuracy"))
    # Both outcomes are common, so each branch above was checked.
    assert min(codes.count(0), codes.count(1)) > 20, (codes.count(0), codes.count(1))


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


def test_artifacts_do_not_depend_on_blas_kernel_or_threads(tmp_path, package_env):
    """evaluate and select write the same bytes under every OpenBLAS kernel
    and thread count. On a pool of 5 models they run with OPENBLAS_CORETYPE
    unset, Prescott and Haswell. On a pool of 14 models, whose 16,369 teams
    are past the length at which OpenBLAS splits a dot over threads,
    evaluate runs with OPENBLAS_NUM_THREADS 1 and 2. Where numpy links
    another BLAS, which ignores these variables, the test passes trivially."""
    def sqdiv(*args, **env):
        run_env = {k: v for k, v in package_env.items() if k != "OPENBLAS_CORETYPE"}
        subprocess.run([sys.executable, "-m", "sqdiv", *args], env={**run_env, **env},
                       cwd=tmp_path, check=True, capture_output=True)

    def artifacts(out):
        return {p.name: p.read_bytes() for p in sorted((tmp_path / out).iterdir())}

    sqdiv("simulate", "--models", "5", "--samples", "100", "--classes", "3", "--seed", "1",
          "--out", "p5")
    sqdiv("simulate", "--models", "14", "--samples", "200", "--classes", "3", "--out", "p14")
    runs = {}
    for command in ("evaluate", "select"):
        for coretype in ("", "Prescott", "Haswell"):
            out = f"{command}{coretype}"
            env = {"OPENBLAS_CORETYPE": coretype} if coretype else {}
            sqdiv(command, "--pool", "p5/manifest.json", "--out", out, **env)
            runs.setdefault(command, []).append(artifacts(out))
    for threads in ("1", "2"):
        out = f"threads{threads}"
        sqdiv("evaluate", "--pool", "p14/manifest.json", "--out", out,
              OPENBLAS_NUM_THREADS=threads)
        runs.setdefault("threads", []).append(artifacts(out))
    for name, (first, *rest) in runs.items():
        assert first, name
        for other in rest:
            assert other == first, name
