"""Metamorphic relations through the pool files.

Each test writes a pool with write_pool, edits its files in a way whose
effect on every artifact is known exactly, and runs the CLI on both copies,
so the whole chain is checked against itself: the reader's join by sample
id, the cache, scoring, consensus and the writers. Every classical metric
is a function of the correctness outputs alone (Kuncheva & Whitaker 2003,
"Measures of diversity in classifier ensembles"), and SQ's kappa of label
co-occurrence counts, so the relations follow from the definitions.
"""

import contextlib
import csv
import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqdiv.cli import main
from sqdiv.pool import write_pool
from sqdiv.teams import parse_team_key, team_key_for

from _pools import random_pool

# The evaluate runs each relation covers: soft and majority voting, and a
# cap small enough to truncate most negative sets.
EVALUATE_RUNS = {
    "soft": ["evaluate"],
    "majority": ["evaluate", "--consensus", "majority"],
    "capped": ["evaluate", "--neg-cap", "7", "--seed", "3"],
}
# Those and select, uncapped and capped, for the relations that keep every
# artifact byte-identical.
RUNS = {**EVALUATE_RUNS, "select": ["select", "--metric", "sq", "--topk", "5"],
        "select-capped": ["select", "--metric", "bd", "--neg-cap", "7"]}

pools = st.tuples(st.integers(0, 10_000), st.integers(3, 6), st.integers(30, 200),
                  st.integers(2, 4))


def _run(argv, manifest, out):
    """What `argv` writes for the pool at `manifest`: stdout, the --out path
    replaced, and {file name: bytes} of --out."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv + ["--pool", str(manifest), "--out", str(out)])
    assert code == 0
    written = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return stdout.getvalue().replace(str(out), "OUT"), written


def _edit_lines(path, edit):
    """Rewrite the CSV file at `path` as edit(header line, data lines)."""
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(edit(lines[0], lines[1:])))


def _edit_manifest(manifest, edit):
    """Rewrite the manifest at `manifest` as edit(its JSON object)."""
    data = json.loads(manifest.read_text())
    edit(data)
    manifest.write_text(json.dumps(data))


@settings(max_examples=15, deadline=None)
@given(shape=pools)
def test_shuffled_model_file_rows_change_no_artifact(tmp_path_factory, shape):
    """(a) Model files are joined to the labels file by sample id, so
    shuffling their data rows, and not the labels file's, leaves every
    artifact of evaluate and select byte-identical, capped ones included:
    a capped draw is over positions in the labels file's order."""
    seed, m, n, c = shape
    pool = random_pool(seed, m, n, c)
    base = tmp_path_factory.mktemp("shuffle")
    original = write_pool(pool, base / "original")
    shuffled = write_pool(pool, base / "shuffled")
    rng = random.Random(seed)
    for i in range(m):
        _edit_lines(shuffled.parent / f"model_{i:02d}.csv",
                    lambda header, rows: [header, *rng.sample(rows, len(rows))])
    for name, argv in RUNS.items():
        assert (_run(argv, shuffled, base / f"{name}-shuffled")
                == _run(argv, original, base / f"{name}-original")), name


@settings(max_examples=15, deadline=None)
@given(shape=pools)
def test_relabelled_classes_change_no_artifact(tmp_path_factory, shape):
    """(b) Reversing the class order in the manifest and in every model
    file's columns, header included, permutes each probability row and
    nothing else, so every artifact of evaluate and select stays
    byte-identical. Vote ties go to the lowest class index, so the pools'
    probabilities are continuous: no exact tie decides a cell."""
    seed, m, n, c = shape
    pool = random_pool(seed, m, n, c)
    base = tmp_path_factory.mktemp("relabel")
    original = write_pool(pool, base / "original")
    relabelled = write_pool(pool, base / "relabelled")
    _edit_manifest(relabelled, lambda data: data["classes"].reverse())

    def reversed_cells(line):
        sample_id, *cells = line.rstrip(b"\r\n").split(b",")
        return b",".join([sample_id, *reversed(cells)]) + b"\r\n"

    for i in range(m):
        _edit_lines(relabelled.parent / f"model_{i:02d}.csv",
                    lambda header, rows: [reversed_cells(line) for line in [header, *rows]])
    for name, argv in RUNS.items():
        assert (_run(argv, relabelled, base / f"{name}-relabelled")
                == _run(argv, original, base / f"{name}-original")), name


# Scatter columns that are a function of counts alone, so a model order
# cannot move them; every other score averages pairs in the order of the
# team's members, which a permutation changes.
EXACT_UNDER_PERMUTATION = {"scatter_gd.csv", "scatter_kw.csv"}


@settings(max_examples=15, deadline=None)
@given(shape=pools)
def test_permuted_models_map_every_score_to_its_team(tmp_path_factory, shape):
    """(d) Reversing the manifest's model order renames model i as m-1-i,
    so each team's row moves to the team of the renamed members. GD, KW and
    every accuracy stay bit-equal; CK, QS, BD, SQ and the correlations,
    which add pair terms or teams in another order, agree within 1e-12."""
    seed, m, n, c = shape
    pool = random_pool(seed, m, n, c)
    base = tmp_path_factory.mktemp("permute")
    original = write_pool(pool, base / "original")
    permuted = write_pool(pool, base / "permuted")
    _edit_manifest(permuted, lambda data: data["models"].reverse())

    def renamed(key):
        return team_key_for(sorted(m - 1 - i for i in parse_team_key(key)), m)

    for name, argv in EVALUATE_RUNS.items():
        before = _run(argv, original, base / f"{name}-original")[1]
        after = _run(argv, permuted, base / f"{name}-permuted")[1]
        expected, scatter = _scatter(before), _scatter(after)
        assert scatter.keys() == expected.keys() and scatter, name
        for file, rows in expected.items():
            kept, scores = _by_team(rows)
            moved, moved_scores = _by_team(scatter[file], renamed)
            assert moved == kept, (name, file)
            if file in EXACT_UNDER_PERMUTATION:
                assert moved_scores == scores, (name, file)
            else:
                assert _floats(moved_scores) == pytest.approx(_floats(scores), rel=0, abs=1e-12), \
                    (name, file)
        assert json.loads(after["correlations.json"]) == pytest.approx(
            json.loads(before["correlations.json"]), rel=0, abs=1e-12), name


def _by_team(rows, rename=str):
    """{team: (size, accuracy)} and {team: score} of scatter rows, as text,
    each team key passed through `rename`."""
    return ({rename(team): (size, accuracy) for team, size, _, accuracy in rows},
            {rename(team): score for team, _, score, _ in rows})


def _floats(texts):
    return {key: float(text) for key, text in texts.items()}


def _scatter(files):
    """{scatter file name: [(team, size, score, accuracy) text]}."""
    return {name: [tuple(row) for row in csv.reader(io.StringIO(data.decode()))][1:]
            for name, data in files.items() if name.startswith("scatter_")}


@settings(max_examples=15, deadline=None)
@given(shape=pools)
def test_an_appended_all_right_sample_keeps_every_score(tmp_path_factory, shape):
    """(c) A sample on which every model puts probability 1 on the truth is
    in no negative set and comes last, so every score column stays
    byte-identical, capped ones included, and each team's accuracy becomes
    exactly (hits + 1) / (N + 1)."""
    seed, m, n, c = shape
    pool = random_pool(seed, m, n, c)
    base = tmp_path_factory.mktemp("append")
    original = write_pool(pool, base / "original")
    appended = write_pool(pool, base / "appended")
    truth = seed % c
    _edit_lines(appended.parent / "labels.csv",
                lambda header, rows: [header, *rows, f"extra,{pool.classes[truth]}\r\n".encode()])
    cells = ",".join("1.0" if k == truth else "0.0" for k in range(c))
    for i in range(m):
        _edit_lines(appended.parent / f"model_{i:02d}.csv",
                    lambda header, rows: [header, *rows, f"extra,{cells}\r\n".encode()])
    for name, argv in EVALUATE_RUNS.items():
        before = _scatter(_run(argv, original, base / f"{name}-original")[1])
        after = _scatter(_run(argv, appended, base / f"{name}-appended")[1])
        assert before.keys() == after.keys() and before
        for file, rows in before.items():
            assert [row[:3] for row in after[file]] == [row[:3] for row in rows], (name, file)
            hits = [round(float(row[3]) * n) for row in rows]
            assert [float(row[3]) for row in after[file]] == [(h + 1) / (n + 1) for h in hits]
