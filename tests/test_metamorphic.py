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
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from sqdiv.cli import main
from sqdiv.pool import write_pool

from _pools import random_pool

# The evaluate runs each relation covers: soft and majority voting, and a
# cap small enough to truncate most negative sets.
EVALUATE_RUNS = {
    "soft": ["evaluate"],
    "majority": ["evaluate", "--consensus", "majority"],
    "capped": ["evaluate", "--neg-cap", "7", "--seed", "3"],
}

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
    runs = {**EVALUATE_RUNS, "select": ["select", "--metric", "sq", "--topk", "5"],
            "select-capped": ["select", "--metric", "bd", "--neg-cap", "7"]}
    for name, argv in runs.items():
        assert (_run(argv, shuffled, base / f"{name}-shuffled")
                == _run(argv, original, base / f"{name}-original")), name


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
