import csv
import hashlib
import io
import json
import os
import re
import shutil
import signal
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sqdiv.pool as sqpool
from sqdiv.pool import (
    CorrectnessMatrix,
    PoolFormatError,
    PredictionPool,
    _plain_lines,
    correctness,
    load_pool,
    model_accuracy,
    write_pool,
)

import _reference as ref
from _pools import pool_from_probs, random_pool
from sqdiv.cli import main
from sqdiv.scoring import classical_scores


def test_minimal_pool_loads(tiny_pool):
    assert tiny_pool.n_models == 2
    assert tiny_pool.n_samples == 3
    assert tiny_pool.n_classes == 2
    assert tiny_pool.classes == ("cat", "dog")
    assert tiny_pool.sample_ids == ("s1", "s2", "s3")
    assert tiny_pool.truth.tolist() == [0, 1, 0]
    assert tiny_pool.models == ("model-0", "model-1")


def test_sample_order_follows_labels_file(write_manifest):
    # model rows deliberately listed out of labels order
    manifest = write_manifest(
        classes=["a", "b"],
        labels=[("x", "a"), ("y", "b")],
        model_rows=[
            {"y": (0.3, 0.7), "x": (0.9, 0.1)},
            {"x": (0.8, 0.2), "y": (0.4, 0.6)},
        ],
    )
    pool = load_pool(manifest)
    assert pool.sample_ids == ("x", "y")
    assert pool.probs[0, 0, 0] == pytest.approx(0.9)
    assert pool.probs[0, 1, 1] == pytest.approx(0.7)


def test_coverage_mismatch(write_manifest):
    manifest = write_manifest(
        classes=["a", "b"],
        labels=[("s1", "a"), ("s7", "b")],
        model_rows=[
            {"s1": (0.9, 0.1), "s7": (0.2, 0.8)},
            {"s1": (0.6, 0.4)},  # lacks s7
        ],
    )
    with pytest.raises(PoolFormatError, match="sample coverage mismatch"):
        load_pool(manifest)


def test_probability_normalization_error(write_manifest):
    manifest = write_manifest(
        classes=["a", "b"],
        labels=[("s1", "a")],
        model_rows=[{"s1": (0.7, 0.7)}, {"s1": (0.5, 0.5)}],
    )
    with pytest.raises(PoolFormatError, match="probability normalization"):
        load_pool(manifest)


def test_unknown_truth_label(write_manifest):
    manifest = write_manifest(
        classes=["a", "b"],
        labels=[("s1", "weasel")],
        model_rows=[{"s1": (0.5, 0.5)}, {"s1": (0.5, 0.5)}],
    )
    with pytest.raises(PoolFormatError, match="unknown class label"):
        load_pool(manifest)


def test_missing_files_and_small_manifests(tmp_path, write_manifest):
    with pytest.raises(PoolFormatError, match="^manifest file not found: "):
        load_pool(tmp_path / "nope.json")
    with pytest.raises(PoolFormatError, match="^manifest path is not a file: "):
        load_pool(tmp_path)

    manifest = write_manifest(
        classes=["a", "b"],
        labels=[("s1", "a")],
        model_rows=[{"s1": (1.0, 0.0)}, {"s1": (1.0, 0.0)}],
    )
    data = json.loads(manifest.read_text())
    data["models"] = data["models"][:1]
    manifest.write_text(json.dumps(data))
    with pytest.raises(PoolFormatError, match="at least 2 model files"):
        load_pool(manifest)

    data["models"] = [
        {"id": 5, "name": "gone", "predictions_path": "missing.csv"},
        data["models"][0],
    ]
    manifest.write_text(json.dumps(data))
    with pytest.raises(PoolFormatError, match="not found"):
        load_pool(manifest)

    # A data path naming a directory is not a file, not a missing one.
    for entry, key, context in ((data["models"][0], "predictions_path", "predictions"),
                                (data, "labels_path", "labels")):
        entry[key] = "."
        manifest.write_text(json.dumps(data))
        with pytest.raises(PoolFormatError, match=f"{context} path is not a file: "):
            load_pool(manifest)


@pytest.mark.parametrize("edit, message", [
    (lambda text: "{", "manifest is not valid JSON: {}: Expecting property name"),
    (lambda text: "[]", "manifest must hold a JSON object: {}"),
    (lambda text: text.replace('"labels_path"', '"labels"'), "manifest missing key 'labels_path': {}"),
    (lambda text: text.replace('"b"', '"a"'), "manifest must list at least 2 distinct classes: {}"),
    (lambda text: text.replace('"preds_1.csv"', '""'),
     "manifest key 'models' entry 1: 'predictions_path' must be a non-empty string: {}"),
    (lambda text: text.replace('"id": 1', '"id": 0'), "duplicate model ids in manifest: {}"),
], ids=["invalid-json", "not-an-object", "missing-key", "one-class", "empty-path", "repeated-id"])
def test_manifest_faults_name_the_manifest(write_manifest, edit, message):
    manifest = write_manifest(
        classes=["a", "b"],
        labels=[("s1", "a")],
        model_rows=[{"s1": (1.0, 0.0)}, {"s1": (1.0, 0.0)}],
    )
    manifest.write_text(edit(manifest.read_text()))
    with pytest.raises(PoolFormatError) as info:
        load_pool(manifest)
    assert str(info.value).startswith(message.format(manifest))


def _pool_args(**changes):
    """PredictionPool's arguments for a valid 2 x 2 x 2 pool, with `changes`."""
    args = dict(
        models=("m0", "m1"),
        classes=("a", "b"),
        sample_ids=("x", "y"),
        truth=[0, 1],
        probs=np.full((2, 2, 2), 0.5),
    )
    return {**args, **changes}


@pytest.mark.parametrize("changes, message", [
    ({"models": ("m0",)}, "a pool needs at least 2 models"),
    ({"classes": ("a",)}, "a pool needs at least 2 classes"),
    ({"sample_ids": (), "truth": []}, "a pool needs at least 1 sample"),
    ({"probs": np.full((2, 2, 3), 1 / 3)},
     "probs shape (2, 2, 3) does not match 2 models x 2 samples x 2 classes"),
    ({"truth": [0]}, "truth length does not match sample count"),
    ({"classes": ("a", "a")}, "duplicate class names"),
    ({"sample_ids": ("x", "x")}, "duplicate sample ids"),
    ({"truth": [0, 2]}, "truth entry is not a valid class index"),
    ({"truth": [-1, 0]}, "truth entry is not a valid class index"),
], ids=["one-model", "one-class", "no-sample", "shape", "truth-length", "repeated-class",
        "repeated-sample", "truth-too-high", "truth-negative"])
def test_constructor_rejects_inconsistent_pools(changes, message):
    PredictionPool(**_pool_args())
    with pytest.raises(PoolFormatError) as info:
        PredictionPool(**_pool_args(**changes))
    assert str(info.value) == message


def test_manifest_that_is_not_utf8_names_the_manifest(tiny_pool, tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_bytes(manifest.read_bytes() + b"\xff")
    message = f"^manifest file is not UTF-8 text: {re.escape(str(manifest))}$"
    with pytest.raises(PoolFormatError, match=message):
        load_pool(manifest)


def test_manifest_with_a_byte_order_mark_loads_as_without(tiny_pool, tmp_path):
    """The manifest is read as the data files are: a UTF-8 BOM is dropped."""
    manifest = tmp_path / "manifest.json"
    marked = tmp_path / "marked.json"
    marked.write_bytes(b"\xef\xbb\xbf" + manifest.read_bytes())
    pool = load_pool(marked)
    assert pool.probs.tobytes() == tiny_pool.probs.tobytes()
    assert pool.sample_ids == tiny_pool.sample_ids
    assert pool.truth.tolist() == tiny_pool.truth.tolist()
    assert pool.fingerprint() == tiny_pool.fingerprint()


@pytest.fixture
def forked(monkeypatch):
    """Share model files out among three forked workers however small the
    pool; yields the pids forked, and checks that none outlives the test."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        pytest.skip("no os.fork or os.sched_getaffinity")
    monkeypatch.setattr(sqpool, "_SPREAD_VALUES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    pids = []
    fork = os.fork

    def recorded_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded_fork)
    yield pids
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _load(manifest):
    """load_pool(manifest), and whether it parsed the model files."""
    calls = []
    read = sqpool._read_models
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sqpool, "_read_models", lambda *args: calls.append(1) or read(*args))
        pool = load_pool(manifest)
    return pool, bool(calls)


def _cache_files(manifest):
    """Names of the files in the cache directory beside `manifest`."""
    cache = manifest.parent / ".sqdiv-cache"
    return sorted(p.name for p in cache.iterdir()) if cache.is_dir() else []


def _cache_bytes(manifest):
    """{name: bytes} of the files in the cache directory beside `manifest`."""
    return {name: (manifest.parent / ".sqdiv-cache" / name).read_bytes()
            for name in _cache_files(manifest)}


def _drop_cache(manifest):
    shutil.rmtree(manifest.parent / ".sqdiv-cache")


def _assert_same_pool(pool, expected):
    assert pool.probs.tobytes() == expected.probs.tobytes()
    assert pool.sample_ids == expected.sample_ids
    assert pool.truth.tolist() == expected.truth.tolist()
    assert pool.fingerprint() == expected.fingerprint()


def test_malformed_rows(write_manifest, tmp_path):
    _check_malformed_rows(write_manifest, tmp_path, forked=None)


def test_malformed_rows_in_forked_workers(write_manifest, tmp_path, forked):
    _check_malformed_rows(write_manifest, tmp_path, forked)
    assert forked


def _check_malformed_rows(write_manifest, tmp_path, forked):
    manifest = write_manifest(
        classes=["a", "b"],
        labels=[("s1", "a")],
        model_rows=[{"s1": (1.0, 0.0)}, {"s1": (1.0, 0.0)}],
    )
    bad = tmp_path / "preds_0.csv"
    if forked is not None:
        # The faulty file goes to the forked worker, not the parent's share.
        data = json.loads(manifest.read_text())
        data["models"].reverse()
        manifest.write_text(json.dumps(data))
    # Every case runs beside a cache entry for the unmodified files, which
    # no load that fails replaces.
    load_pool(manifest)
    warm = _cache_bytes(manifest)
    assert list(warm) == ["manifest.json.entry"]
    if forked is not None:
        forked.clear()

    def fault(text, match):
        # A quoted id in a later row sends the file to csv.reader: both
        # readers must report the same fault on the same line.
        messages = []
        for body in (text, text + '"q",0.5,0.5\n'):
            bad.write_text(body)
            with pytest.raises(PoolFormatError, match=match) as info:
                load_pool(manifest)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        return messages[0]

    def located(message, line):
        return message.startswith(f"{bad}, line {line}: ") and "model 'model-0'" in message

    message = fault("sample_id,p_a,p_b\ns1,0.5,oops\n", "malformed row")
    assert located(message, 2) and "cannot parse 'oops'" in message
    message = fault("sample_id,p_a,p_b\ns1,0.5\n", "malformed row")
    assert located(message, 2) and "['s1', '0.5']" in message
    message = fault("sample_id,p_wat,p_b\ns1,0.5,0.5\n", "header")
    assert message == f"predictions header for model 'model-0' must be sample_id,p_a,p_b: {bad}"
    message = fault("sample_id,p_a,p_b\ns1,0.5,0.5\ns1,0.5,0.5\n", "duplicate sample_id")
    assert located(message, 3) and "'s1'" in message
    message = fault("sample_id,p_a,p_b\ns1,-0.2,1.2\n", "out of range")
    assert located(message, 2) and "sample 's1'" in message
    message = fault("sample_id,p_a,p_b\ns1,0.7,0.7\n", "probability normalization")
    assert located(message, 2) and "sums to 1.40000000" in message

    # Lines count blank lines and line breaks inside quoted ids.
    message = fault('sample_id,p_a,p_b\n\n"s\n1",0.5,0.5\n"s\n1",0.5,0.5\n', "duplicate")
    assert located(message, 5)
    # Checks run over the whole file in the order width, duplicate, parse,
    # range, sum: the first fault found is not the first one by line.
    message = fault("sample_id,p_a,p_b\ns1,0.5,oops\ns2,0.5\n", "malformed row")
    assert located(message, 3) and "['s2', '0.5']" in message
    message = fault("sample_id,p_a,p_b\ns1,0.7,0.7\ns2,nan,0.5\n", "out of range")
    assert located(message, 3) and "sample 's2'" in message
    # Cells are parsed a chunk of rows at a time; a fault deep in the file
    # still names its own line.
    rows = "".join(f"s{j},0.5,0.5\n" for j in range(1, 3000))
    message = fault(f"sample_id,p_a,p_b\n{rows}s0,0.5,oops\n", "malformed row")
    assert located(message, 3001) and "cannot parse 'oops'" in message
    # Faults of the csv module and of the text encoding name the file too.
    message = fault('sample_id,p_a,p_b\n"s1,0.5,0.5\n' + "x" * 200_000 + "\n", "field limit")
    assert message.startswith(f"{bad}, line ")
    message = fault("sample_id,p_a,p_b\n\n" + "s" * 200_000 + ",0.5,0.5\n", "field limit")
    assert message.startswith(f"{bad}, line 3: ")
    for text in (b"sample_id,p_a,p_b\ns\xe91,1.0,0.0\n",
                 b'sample_id,p_a,p_b\n"q",1.0,0.0\ns\xe91,1.0,0.0\n'):
        bad.write_bytes(text)
        with pytest.raises(PoolFormatError, match=f"not UTF-8 text: {re.escape(str(bad))}"):
            load_pool(manifest)

    labels = tmp_path / "labels.csv"
    bad.write_text("sample_id,p_a,p_b\ns1,1.0,0.0\n")
    for text, match, line in [
        ("sample_id,true_label\ns1,a,b\n", "malformed row in labels file", 2),
        ("sample_id,true_label\ns1,a\ns1,b\n", "duplicate sample_id 's1'", 3),
        ("sample_id,true_label\ns0,a\n\ns1,weasel\n", "unknown class label 'weasel'", 4),
    ]:
        messages = []
        for body in (text, text + '"q",a\n'):
            labels.write_text(body)
            with pytest.raises(PoolFormatError, match=match) as info:
                load_pool(manifest)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith(f"{labels}, line {line}: ")
    for body in ("sample_id,label\ns1,a\n", 'sample_id,label\ns1,a\n"q",a\n'):
        labels.write_text(body)
        with pytest.raises(PoolFormatError) as info:
            load_pool(manifest)
        assert str(info.value) == f"labels header must be sample_id,true_label: {labels}"
    # A file with no non-blank line holds no '"' (one would make a row), so
    # its csv.reader twin is the same file read with _plain_lines off.
    labels.write_text("sample_id,true_label\ns1,a\n")
    for path, context in ((labels, "labels"), (bad, "predictions")):
        kept = path.read_bytes()
        path.write_text("\n\r\n\n")
        for plain_lines in (sqpool._plain_lines, lambda text: None):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(sqpool, "_plain_lines", plain_lines)
                with pytest.raises(PoolFormatError) as info:
                    load_pool(manifest)
            assert str(info.value) == f"{context} file is empty: {path}"
        path.write_bytes(kept)
    assert _cache_bytes(manifest) == warm


def _edit(name, old, new):
    """Replace `old` by `new` in one file of the pool directory."""
    return lambda fname, text: text.replace(old, new) if fname == name else text


# Each variant of a valid pool directory, and the error it gives (None: the
# pool loads unchanged). Quoting the first field of every line, the header's
# too, sends each file to csv.reader instead of np.loadtxt.
INPUT_VARIANTS = {
    "utf-8 bom": (lambda fname, text: "\ufeff" + text, None),
    "quoted ids": (lambda fname, text: re.sub(r"(?m)^([^,\n]*),", r'"\1",', text), None),
    "crlf": (lambda fname, text: text.replace("\n", "\r\n"), None),
    "blank lines": (lambda fname, text: "\n" + text.replace("\n", "\n\n") + "\r\n", None),
    "padded id": (
        _edit("preds_1.csv", "s2,", " s2 ,"),
        r"sample coverage mismatch for model 'model-1' in .*preds_1\.csv; "
        r"missing \['s2'\]; unexpected \[' s2 '\]",
    ),
    "nan cell": (
        _edit("preds_0.csv", "s2,0.3,", "s2,nan,"),
        r"preds_0\.csv, line 3: probability out of range for model 'model-0', sample 's2'",
    ),
    "inf cell": (
        _edit("preds_1.csv", "s1,0.6,", "s1,inf,"),
        r"preds_1\.csv, line 2: probability out of range for model 'model-1', sample 's1'",
    ),
    "labels without rows": (
        lambda fname, text: "sample_id,true_label\n" if fname == "labels.csv" else text,
        r"labels file has no rows: .*labels\.csv",
    ),
}


@pytest.mark.parametrize("variant", list(INPUT_VARIANTS))
def test_input_variants(write_manifest, tmp_path, variant):
    manifest = write_manifest(
        classes=["a", "b"],
        labels=[("s1", "a"), ("s2", "b")],
        model_rows=[
            {"s1": (0.9, 0.1), "s2": (0.3, 0.7)},
            {"s1": (0.6, 0.4), "s2": (0.2, 0.8)},
        ],
    )
    clean = load_pool(manifest)
    edit, error = INPUT_VARIANTS[variant]
    for path in tmp_path.glob("*.csv"):
        text = path.read_text(encoding="utf-8")
        path.write_bytes(edit(path.name, text).encode("utf-8"))
    if error is None:
        assert load_pool(manifest).fingerprint() == clean.fingerprint()
    else:
        with pytest.raises(PoolFormatError, match=error):
            load_pool(manifest)


@pytest.mark.parametrize("cell", [" 0.5", "1_0", "nan", "infinity", "0x1p-2", ""])
def test_cells_parse_as_float_does(write_manifest, tmp_path, cell):
    manifest = write_manifest(
        classes=["a", "b"],
        labels=[("s1", "a")],
        model_rows=[{"s1": (0.5, 0.5)}, {"s1": (0.5, 0.5)}],
    )
    preds = tmp_path / "preds_0.csv"

    def outcome(text):
        preds.write_text(f"sample_id,p_a,p_b\ns1,{text},0.5\n")
        try:
            return load_pool(manifest).probs.tobytes()
        except PoolFormatError as exc:
            return str(exc)

    try:
        value = float(cell)
    except ValueError:
        assert outcome(cell) == (
            f"{preds}, line 2: malformed row for model 'model-0': "
            f"cannot parse {cell!r} as a number"
        )
    else:
        assert outcome(cell) == outcome(repr(value))


# Cell text around and inside numbers: characters float() strips as
# whitespace, four (\x1c-\x1f) that it refuses but np.loadtxt strips, and
# text float() reads that np.loadtxt refuses ('_' between digits, '١').
_SPACES = [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\xa0", "\u2003"]
_JUNK = st.lists(st.sampled_from([*"0123456789.eE+-_", *_SPACES, "١", "inf", "nan"]),
                 max_size=6).map("".join)
_PAD = st.lists(st.sampled_from(_SPACES), max_size=2).map("".join)


@st.composite
def _cell_pairs(draw):
    """Two cells of one row: junk, or a probability and its complement
    written with padding, a '_' after the first decimal or '١' for '1'."""
    if draw(st.booleans()):
        return draw(_JUNK), draw(_JUNK)
    x = draw(st.floats(0, 1))
    cells = []
    for text in (repr(x), repr(1 - x)):
        if draw(st.booleans()):
            text = re.sub(r"(\.\d)(\d)", r"\1_\2", text, count=1)
        if draw(st.booleans()):
            text = text.replace("1", "١")
        cells.append(draw(_PAD) + text + draw(_PAD))
    return tuple(cells)


_FAR_FAULT = [("0.5", "0.5")] * 1500 + [("0.5", "0.5 5")]


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(_cell_pairs(), min_size=1, max_size=4))
@example(rows=[("0.2_5", "0.75")])
@example(rows=[("0.5\x1c", "0.5")])
@example(rows=[("١", "0")])
@example(rows=_FAR_FAULT)
def test_plain_and_csv_files_read_cells_as_float_does(tmp_path_factory, rows):
    """A plain model file and the same file with one id quoted, which
    csv.reader reads, give the same probability bits or the same error."""
    base = tmp_path_factory.mktemp("cells")
    ids = [f"s{j}" for j in range(len(rows))]
    (base / "labels.csv").write_text(
        "sample_id,true_label\n" + "".join(f"{sid},a\n" for sid in ids), encoding="utf-8")
    (base / "preds_1.csv").write_text(
        "sample_id,p_a,p_b\n" + "".join(f"{sid},1.0,0.0\n" for sid in ids), encoding="utf-8")
    entries = [{"id": i, "predictions_path": f"preds_{i}.csv"} for i in range(2)]
    manifest = base / "manifest.json"
    manifest.write_text(json.dumps(
        {"classes": ["a", "b"], "labels_path": "labels.csv", "models": entries}))
    body = "".join(f"{sid},{a},{b}\n" for sid, (a, b) in zip(ids, rows))

    def outcome(quoted):
        text = '"' + body.replace(",", '",', 1) if quoted else body
        (base / "preds_0.csv").write_text("sample_id,p_a,p_b\n" + text, encoding="utf-8")
        try:
            return load_pool(manifest).probs.tobytes()
        except PoolFormatError as exc:
            return str(exc)

    assert outcome(False) == outcome(True)


def test_scientific_notation_accepted(write_manifest):
    manifest = write_manifest(
        classes=["a", "b"],
        labels=[("s1", "b")],
        model_rows=[{"s1": ("1e-1", "9e-1")}, {"s1": (0.5, 0.5)}],
    )
    pool = load_pool(manifest)
    assert pool.probs[0, 0, 0] == pytest.approx(0.1)


def test_correctness_bits_and_tie_break():
    pool = pool_from_probs(
        [
            [(0.6, 0.4), (0.5, 0.5)],
            [(0.1, 0.9), (0.2, 0.8)],
        ],
        truth=[0, 1],
    )
    cm = correctness(pool)
    assert cm.bits[0, 0]  # argmax 0 == truth
    assert not cm.bits[0, 1]  # tie resolves to class 0, truth is 1
    assert not cm.bits[1, 0]
    assert cm.bits[1, 1]


def test_all_correct_pool_accuracy_one():
    probs = np.zeros((3, 4, 2))
    truth = [0, 1, 0, 1]
    for j, t in enumerate(truth):
        probs[:, j, t] = 0.9
        probs[:, j, 1 - t] = 0.1
    pool = pool_from_probs(probs, truth)
    cm = correctness(pool)
    assert cm.bits.all()
    assert all(model_accuracy(cm, i) == 1.0 for i in range(3))


def test_model_accuracy_values():
    pool = pool_from_probs(
        [
            [(0.9, 0.1), (0.9, 0.1), (0.9, 0.1), (0.9, 0.1)],
            [(0.1, 0.9), (0.1, 0.9), (0.1, 0.9), (0.1, 0.9)],
        ],
        truth=[0, 0, 0, 1],
    )
    cm = correctness(pool)
    assert model_accuracy(cm, 0) == 0.75
    assert model_accuracy(cm, 1) == 0.25
    assert model_accuracy(cm, np.int64(1)) == 0.25
    with pytest.raises(ValueError, match="out of range"):
        model_accuracy(cm, 2)
    # An id is checked as make_team checks a member id: 1.0 is not model 1,
    # nor True model 1 or False model 0.
    for model_id in (-1, 0.9, 1.0, True, np.bool_(False), "1"):
        with pytest.raises(ValueError):
            model_accuracy(cm, model_id)


def test_headline_single_model_accuracy_shape():
    # A 99.15%-accurate model over a 10000-sample dump gives exactly 0.9915.
    bits = np.ones((2, 10000), dtype=bool)
    bits[0, :85] = False
    from _pools import make_cm

    cm = make_cm(bits)
    assert model_accuracy(cm, 0) == pytest.approx(0.9915, abs=0)


def test_all_wrong_row_accuracy_zero():
    pool = pool_from_probs(
        [[(0.9, 0.1)], [(0.9, 0.1)]],
        truth=[1],
    )
    cm = correctness(pool)
    assert model_accuracy(cm, 0) == 0.0


def test_round_trip_fingerprint(tmp_path):
    pool = random_pool(7, n_models=3, n_samples=20, n_classes=4)
    manifest = write_pool(pool, tmp_path / "dump")
    again = load_pool(manifest)
    assert again.fingerprint() == pool.fingerprint()
    assert again.sample_ids == pool.sample_ids
    assert np.array_equal(again.truth, pool.truth)
    assert np.array_equal(again.probs, pool.probs)


def _with_ids(manifest, ids):
    """Rewrite the manifest's declared model ids in place."""
    record = json.loads(manifest.read_text())
    for entry, model_id in zip(record["models"], ids):
        entry["id"] = model_id
    manifest.write_text(json.dumps(record))
    return manifest


@pytest.mark.parametrize("ids", [[True, 1, "x", 2.5], [0.0, 0, 2, 3]], ids=str)
def test_declared_ids_compare_as_json_values(tmp_path, capsys, ids):
    """Ids are positional; declared ones only must not repeat as JSON values,
    so true and 1, or 0.0 and 0, are two ids. Such a pool loads and evaluates
    as one declaring 0..3."""
    pool = random_pool(4, n_models=4, n_samples=30, n_classes=3)
    runs = {}
    for label, declared in (("plain", [0, 1, 2, 3]), ("other", ids)):
        manifest = _with_ids(write_pool(pool, tmp_path / label), declared)
        assert np.array_equal(load_pool(manifest).probs, pool.probs)
        out = tmp_path / f"{label}-out"
        assert main(["evaluate", "--pool", str(manifest), "--out", str(out)]) == 0
        runs[label] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    capsys.readouterr()
    assert runs["other"] == runs["plain"]


@pytest.mark.parametrize("ids", [[1, 1, 2, 3], ["a", "a", 2, 3]], ids=str)
def test_repeated_declared_ids_are_refused(tmp_path, ids):
    manifest = write_pool(random_pool(4, n_models=4, n_samples=30, n_classes=3), tmp_path)
    _with_ids(manifest, ids)
    message = f"duplicate model ids in manifest: {manifest}"
    with pytest.raises(PoolFormatError, match=f"^{re.escape(message)}$"):
        load_pool(manifest)


@pytest.mark.parametrize("name", [None, ["x"], {"a": 1}, True, 5], ids=str)
def test_a_model_name_that_is_not_a_string_is_refused(tmp_path, capsys, name):
    """A name is a JSON string: null, a list, an object, a bool or a number
    is refused as a non-string 'id' is, not loaded as its Python repr."""
    def edit(data):
        data["models"][1]["name"] = name

    _assert_manifest_refused(tmp_path, capsys, edit,
                             "manifest key 'models' entry 1: 'name' must be a string")


@pytest.mark.parametrize("value", [None, 1, 1.5, True, ["a"], {"a": 1}], ids=str)
def test_a_class_that_is_not_a_string_is_refused(tmp_path, capsys, value):
    """A class is a JSON string, as a model name is: a labels file spelling
    a non-string's Python repr must not match it."""
    def edit(data):
        data["classes"][1] = value

    _assert_manifest_refused(tmp_path, capsys, edit,
                             "manifest key 'classes' entry 1 must be a string")


def _assert_manifest_refused(tmp_path, capsys, edit, error):
    """With edit(manifest data) applied to a valid pool, load_pool raises
    PoolFormatError("<error>: <manifest>"), and evaluate exits 1 with that
    one stderr line and writes no --out."""
    manifest = write_pool(random_pool(4, n_models=4, n_samples=30, n_classes=3),
                          tmp_path / "pool")
    data = json.loads(manifest.read_text())
    edit(data)
    manifest.write_text(json.dumps(data))
    message = f"{error}: {manifest}"
    with pytest.raises(PoolFormatError, match=f"^{re.escape(message)}$"):
        load_pool(manifest)
    out = tmp_path / "out"
    assert main(["evaluate", "--pool", str(manifest), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("shape", [(), (3,), (2, 3, 4)], ids=str)
def test_correctness_bits_must_be_two_dimensional(shape):
    bits = np.ones(shape, dtype=bool)
    message = f"correctness bits must be 2-d (models, samples), not of shape {shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CorrectnessMatrix(bits)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        classical_scores(bits, ["BD"])


def test_correctness_is_pure(tiny_pool):
    first = correctness(tiny_pool)
    second = correctness(tiny_pool)
    assert np.array_equal(first.bits, second.bits)


def test_shuffled_manifest_keeps_accuracy_with_name(write_manifest, tmp_path):
    rows_a = {"s1": (0.9, 0.1), "s2": (0.9, 0.1)}
    rows_b = {"s1": (0.1, 0.9), "s2": (0.9, 0.1)}
    manifest = write_manifest(
        classes=["a", "b"],
        labels=[("s1", "a"), ("s2", "a")],
        model_rows=[rows_a, rows_b],
        names=["alpha", "beta"],
    )
    pool = load_pool(manifest)
    cm = correctness(pool)
    by_name = {name: model_accuracy(cm, i) for i, name in enumerate(pool.models)}

    data = json.loads(manifest.read_text())
    data["models"] = list(reversed(data["models"]))
    manifest.write_text(json.dumps(data))
    shuffled = load_pool(manifest)
    cm2 = correctness(shuffled)
    assert shuffled.models == ("beta", "alpha")
    assert {name: model_accuracy(cm2, i) for i, name in enumerate(shuffled.models)} == by_name


def test_pool_is_immutable(tiny_pool):
    with pytest.raises(ValueError):
        tiny_pool.probs[0, 0, 0] = 0.5
    with pytest.raises(ValueError):
        tiny_pool.truth[0] = 1


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    m=st.integers(2, 4),
    n=st.integers(1, 12),
    c=st.integers(2, 4),
)
def test_random_pool_round_trips(tmp_path_factory, seed, m, n, c):
    pool = random_pool(seed, m, n, c)
    out = tmp_path_factory.mktemp("pool")
    again = load_pool(write_pool(pool, out))
    assert again.fingerprint() == pool.fingerprint()
    assert np.abs(again.probs.sum(axis=2) - 1.0).max() <= 1e-6


def test_constructor_names_model_and_sample():
    ids = ("x", "y")
    with pytest.raises(PoolFormatError, match=r"^probability normalization: row sums to "
                       r"1\.40000000 for model 'm0', sample 'y'$"):
        pool_from_probs([[(0.5, 0.5), (0.7, 0.7)], [(0.5, 0.5), (0.5, 0.5)]], [0, 0],
                        sample_ids=ids)
    # Out-of-range entries are found before sums off 1, wherever they are.
    with pytest.raises(PoolFormatError,
                       match=r"^probability out of range for model 'm1', sample 'x'$"):
        pool_from_probs([[(0.5, 0.5), (0.7, 0.7)], [(np.inf, 0.0), (0.5, 0.5)]], [0, 0],
                        sample_ids=ids)
    drifting = np.array([0.6, 0.4 + 5e-7])
    pool = pool_from_probs([[drifting], [(0.5, 0.5)]], [0])
    assert pool.probs[0, 0].tolist() == (drifting / drifting.sum()).tolist()


_ID_TEXT = st.text(st.sampled_from(list('ab ,"\r\né漢')), max_size=5)
_CLASS_TEXT = st.text(st.sampled_from(list('xy,"é ')), min_size=1, max_size=3)
# Values a writer could get wrong: zero of either sign, the smallest
# subnormal, a tiny normal, the smallest normal, and a value that needs 17
# significant digits.
_EDGE_CELLS = [0.0, -0.0, 5e-324, 1e-300, 2.2250738585072014e-308, 1.2345678901234567e-05]


@st.composite
def _awkward_pools(draw):
    ids = draw(st.lists(_ID_TEXT, min_size=1, max_size=6, unique=True))
    classes = draw(st.lists(_CLASS_TEXT, min_size=2, max_size=4, unique=True))
    m, n, c = draw(st.integers(2, 3)), len(ids), len(classes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.random((m, n, c)) + 1e-3
    probs = raw / raw.sum(axis=2, keepdims=True)
    cells = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1),
                      st.integers(0, c - 1), st.sampled_from(_EDGE_CELLS))
    for i, j, k, value in draw(st.lists(cells, max_size=8)):
        # Move the mass onto the next class, so the row still sums to 1.
        if value <= probs[i, j, k]:
            probs[i, j, (k + 1) % c] += probs[i, j, k] - value
            probs[i, j, k] = value
    truth = rng.integers(0, c, size=n)
    return pool_from_probs(probs, truth, classes=classes, sample_ids=ids)


@settings(max_examples=60, deadline=None)
@given(pool=_awkward_pools())
# Class names with edge whitespace are kept verbatim through a round trip.
@example(pool=pool_from_probs([[(0.3, 0.7)], [(0.6, 0.4)]], [0], classes=["x ", " y"]))
# Rows that repeat one value, beside zeros of both signs, which compare
# equal but are written apart.
@example(pool=pool_from_probs(
    [[(0.25, 0.25, 0.0, 0.25, -0.0, 0.25), (-0.0, 0.5, 0.0, -0.0, 0.5, 0.0)],
     [(0.25, -0.0, 0.25, 0.25, 0.25, 0.0), (0.0, -0.0, 0.0, -0.0, 0.0, 1.0)]], [0, 5]))
def test_write_pool_matches_row_writer_and_round_trips(tmp_path_factory, pool):
    out = tmp_path_factory.mktemp("pool")
    expected = tmp_path_factory.mktemp("reference")
    manifest = write_pool(pool, out)
    written = sorted(p.name for p in out.iterdir())
    # write_pool seeds the cache: the first load parses nothing, and equals
    # a load that parses the files.
    hit, parsed = _load(manifest)
    assert not parsed
    _drop_cache(manifest)
    again, parsed = _load(manifest)
    assert parsed
    _assert_same_pool(hit, again)
    assert again.fingerprint() == pool.fingerprint()
    assert again.classes == pool.classes
    assert again.sample_ids == pool.sample_ids
    assert again.probs.tobytes() == pool.probs.tobytes()

    ref.write_pool_csv(pool, expected)
    names = sorted(p.name for p in expected.iterdir())
    assert written == [".sqdiv-cache", *names]
    for name in names:
        assert (out / name).read_bytes() == (expected / name).read_bytes(), name


# Line ends csv.reader splits records on, characters that other line
# splitters (str.splitlines) also break at, and those that send a file to
# csv.reader.
_TOKEN_TEXT = st.text(
    st.sampled_from(list('a1, \r\n\x0b\x0c\x85\u2028\u2029\0"\x1c\x1d\x1e\x1f')),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(text=_TOKEN_TEXT, bom=st.booleans())
@example(text="a\r\n\rb\x0cc,\x85\n\n ,1\u2028\r", bom=True)
def test_plain_lines_split_as_csv_reader_does(text, bom):
    text = "\ufeff" * bom + text
    lines = _plain_lines(text)
    if any(c in text for c in '"\0\x1c\x1d\x1e\x1f\x0b\x0c\x85\u2028\u2029'):
        assert lines is None
    else:
        rows = [row for row in csv.reader(io.StringIO(text, newline="")) if row]
        assert [line.split(",") for line in lines] == rows


def _spread_pool(base):
    """A 5-model pool written inline, one model file's rows reversed, so
    its rows are joined by sample id, not taken whole; with the `forked`
    fixture, the parent reads files 0 and 3, the workers 1, 4 and 2."""
    manifest = write_pool(random_pool(3, n_models=5, n_samples=30, n_classes=4), base)
    lines = (base / "model_02.csv").read_text().splitlines(keepends=True)
    (base / "model_02.csv").write_text(lines[0] + "".join(reversed(lines[1:])))
    return manifest


def test_forked_load_and_write_equal_inline(tmp_path, monkeypatch, forked):
    with monkeypatch.context() as inline:
        inline.setattr(sqpool, "_SPREAD_VALUES", 1 << 62)
        manifest = _spread_pool(tmp_path / "inline")
        expected = load_pool(manifest)
    assert not forked
    _drop_cache(manifest)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pool = load_pool(manifest)
        assert len(forked) == 2
        write_pool(expected, tmp_path / "forked")
        assert len(forked) == 4
    assert pool.probs.tobytes() == expected.probs.tobytes()
    assert pool.sample_ids == expected.sample_ids
    assert pool.fingerprint() == expected.fingerprint()
    written = sorted(p.name for p in (tmp_path / "forked").iterdir())
    assert written == sorted(p.name for p in (tmp_path / "inline").iterdir())
    assert written[0] == ".sqdiv-cache"
    for name in written[1:]:
        if name != "model_02.csv":
            assert (tmp_path / "forked" / name).read_bytes() == \
                (tmp_path / "inline" / name).read_bytes(), name


@pytest.mark.parametrize("faulty", [(1, 3), (2, 3), (3, 4), (4,), (3,)])
def test_forked_load_raises_the_first_fault_in_file_order(tmp_path, monkeypatch, forked, faulty):
    manifest = _spread_pool(tmp_path)
    for position in faulty:
        path = tmp_path / f"model_{position:02d}.csv"
        with path.open("a", newline="") as fh:
            fh.write(f"x{position},oops,0,0,0\r\n")

    def outcome():
        with pytest.raises(PoolFormatError) as info:
            load_pool(manifest)
        return str(info.value)

    message = outcome()
    assert forked
    with monkeypatch.context() as inline:
        inline.setattr(sqpool, "_SPREAD_VALUES", 1 << 62)
        assert message == outcome()
    assert message.startswith(f"{tmp_path / f'model_{faulty[0]:02d}.csv'}, line 32: ")
    assert "cannot parse 'oops'" in message


def test_worker_that_dies_costs_only_time(tmp_path, monkeypatch, forked):
    manifest = _spread_pool(tmp_path / "pool")
    expected = load_pool(manifest)
    entry = _cache_bytes(manifest)
    parent = os.getpid()
    read, write = sqpool._read_predictions, sqpool._write_csv

    def dying_read(path, classes, model):
        if os.getpid() != parent and path.name == "model_04.csv":
            os._exit(0)  # worker 1, after it has read model_01.csv
        return read(path, classes, model)

    def dying_write(path, header, lines):
        if os.getpid() != parent and path.name == "model_04.csv":
            path.write_text("partial")
            os._exit(1)
        return write(path, header, lines)

    monkeypatch.setattr(sqpool, "_read_predictions", dying_read)
    monkeypatch.setattr(sqpool, "_write_csv", dying_write)
    forked.clear()
    _drop_cache(manifest)
    pool = load_pool(manifest)
    write_pool(expected, tmp_path / "again")
    assert len(forked) == 4
    assert pool.probs.tobytes() == expected.probs.tobytes()
    for name in ("model_01.csv", "model_04.csv"):
        assert (tmp_path / "again" / name).read_bytes() == \
            (tmp_path / "pool" / name).read_bytes(), name

    shared = []
    make_shared = sqpool._shared

    def recorded_shared(shape, dtype):
        shared.append(make_shared(shape, dtype))
        return shared[-1]

    def spoiling_read(path, classes, model):
        if os.getpid() != parent and path.name == "model_04.csv":
            probs, digests = shared[:2]
            probs[4, :15] = np.nan  # half its slab, and then it dies
            digests[4] = 7
            os._exit(1)
        return read(path, classes, model)

    monkeypatch.setattr(sqpool, "_shared", recorded_shared)
    monkeypatch.setattr(sqpool, "_read_predictions", spoiling_read)
    forked.clear()
    _drop_cache(manifest)
    pool, parsed = _load(manifest)
    assert parsed and len(forked) == 2
    _assert_same_pool(pool, expected)
    assert _cache_bytes(manifest) == entry


def test_worker_killed_partway_costs_only_time(tmp_path, monkeypatch, forked):
    manifest = _spread_pool(tmp_path)
    expected = load_pool(manifest)
    entry = _cache_bytes(manifest)
    parent = os.getpid()
    read = sqpool._read_predictions

    def killed_read(path, classes, model):
        if os.getpid() != parent and path.name == "model_04.csv":
            os.kill(os.getpid(), signal.SIGKILL)  # worker 1, after model_01.csv
        return read(path, classes, model)

    monkeypatch.setattr(sqpool, "_read_predictions", killed_read)
    forked.clear()
    _drop_cache(manifest)
    pool, parsed = _load(manifest)
    assert parsed and len(forked) == 2
    _assert_same_pool(pool, expected)
    assert _cache_bytes(manifest) == entry


def test_serial_load_reads_each_file_once_up_to_the_fault(tmp_path, monkeypatch, forked):
    manifest = _spread_pool(tmp_path)
    with (tmp_path / "model_03.csv").open("a", newline="") as fh:
        fh.write("x3,oops,0,0,0\r\n")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    read, calls = sqpool._read_predictions, []

    def counted_read(path, classes, model):
        calls.append(path.name)
        return read(path, classes, model)

    monkeypatch.setattr(sqpool, "_read_predictions", counted_read)
    forked.clear()
    _drop_cache(manifest)
    with pytest.raises(PoolFormatError, match="cannot parse 'oops'"):
        load_pool(manifest)
    assert calls == [f"model_{i:02d}.csv" for i in range(4)]
    assert not forked


def test_no_fork_beside_another_thread_or_without_a_process(tmp_path, monkeypatch, forked):
    manifest = _spread_pool(tmp_path)
    expected = load_pool(manifest).fingerprint()
    calls = []

    def refused_fork():
        calls.append(1)
        raise OSError("no process to spare")

    monkeypatch.setattr(os, "fork", refused_fork)
    _drop_cache(manifest)
    assert load_pool(manifest).fingerprint() == expected
    assert len(calls) == 1
    calls.clear()
    _drop_cache(manifest)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30,))
    other.start()
    try:
        assert load_pool(manifest).fingerprint() == expected
    finally:
        release.set()
        other.join(timeout=30)
    assert not other.is_alive()
    assert not calls


# Hand-written pools that take each path of the parse a cache hit must
# reproduce; None leaves the files as written.
CACHED_VARIANTS = {
    "rows reordered": None,
    "quoted ids": INPUT_VARIANTS["quoted ids"][0],
    "utf-8 bom": INPUT_VARIANTS["utf-8 bom"][0],
    "crlf": INPUT_VARIANTS["crlf"][0],
    "drifting rows": None,
}


@pytest.mark.parametrize("variant", list(CACHED_VARIANTS))
def test_cache_hit_equals_a_cold_load(write_manifest, tmp_path, variant):
    labels = [("s1", "a"), ("s2", "b"), ("s3", "c")]
    rows = [{"s1": (0.7, 0.2, 0.1), "s2": (0.1, 0.8, 0.1), "s3": (0.3, 0.3, 0.4)},
            {"s1": (0.5, 0.25, 0.25), "s2": (0.2, 0.2, 0.6), "s3": (0.0, 0.1, 0.9)}]
    if variant == "rows reordered":
        rows[1] = dict(reversed(rows[1].items()))
    if variant == "drifting rows":
        rows[0]["s2"] = (0.1, 0.8 + 4e-7, 0.1)
    manifest = write_manifest(classes=["a", "b", "c"], labels=labels, model_rows=rows)
    edit = CACHED_VARIANTS[variant]
    if edit is not None:
        for path in tmp_path.glob("*.csv"):
            path.write_bytes(edit(path.name, path.read_text(encoding="utf-8")).encode("utf-8"))

    first, parsed = _load(manifest)
    assert parsed
    hit, parsed = _load(manifest)
    assert not parsed
    _drop_cache(manifest)
    cold, parsed = _load(manifest)
    assert parsed
    _assert_same_pool(first, cold)
    _assert_same_pool(hit, cold)
    if variant == "drifting rows":
        assert hit.probs[0, 1].tolist() == (np.array(rows[0]["s2"]) / (1 + 4e-7)).tolist()


def test_cache_never_serves_changed_input(write_manifest, tmp_path, monkeypatch):
    """Each change to an input byte, the reader's source or the csv field
    limit misses the entry of the pool before it, and the load equals one
    with no cache."""
    manifest = write_manifest(
        classes=["a", "b"],
        labels=[("s1", "a"), ("s2", "b")],
        model_rows=[{"s1": (0.9, 0.1), "s2": (0.3, 0.7)}, {"s1": (0.6, 0.4), "s2": (0.2, 0.8)}],
    )
    preds, labels = tmp_path / "preds_0.csv", tmp_path / "labels.csv"

    def reversed_models():
        data = json.loads(manifest.read_text())
        data["models"].reverse()
        manifest.write_text(json.dumps(data))

    changes = [
        lambda: preds.write_text(preds.read_text().replace("0.9,0.1", "0.8,0.2")),
        lambda: labels.write_text(labels.read_text().replace("s2,b", "s2,a")),
        reversed_models,
        lambda: monkeypatch.setattr(sqpool, "_cache_tag", lambda: b"another reader"),
        lambda: monkeypatch.setattr(csv, "field_size_limit", lambda: 1 << 20),
    ]
    for change in changes:
        load_pool(manifest)
        change()
        pool, parsed = _load(manifest)
        assert parsed
        _drop_cache(manifest)
        _assert_same_pool(pool, load_pool(manifest))
    assert pool.probs[1, 0].tolist() == [0.8, 0.2]
    # A cell no float reads, beside the now stale entry: the load fails as a
    # copy with no cache does, with the same message.
    preds.write_text(preds.read_text().replace("0.8,0.2", "oops,0.2"))
    assert _cache_files(manifest) == ["manifest.json.entry"]
    _assert_loads_as_a_copy_without_cache(manifest, tmp_path / "cold")


def _damaged_entries(entry):
    """Each damaged form of the cache entry whose bytes are `entry`, as file
    bytes. All but a wrong key keep the entry's key and tensor digest, so
    the damage reaches np.load and the digest check."""
    header, probs = entry[:64], np.load(io.BytesIO(entry[64:]))

    def saved(array, save=np.save, **kwargs):
        buffer = io.BytesIO()
        save(buffer, array, **kwargs)
        return header + buffer.getvalue()

    changed = probs.copy()
    changed[0, 0, 0] = np.nextafter(changed[0, 0, 0], 1.0)
    huge = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        huge, {"descr": "<f8", "fortran_order": False, "shape": (1 << 40, 2, 2)})
    return {
        "truncated": entry[:len(entry) - 8],
        "not .npy": header + b"probabilities\n",
        "npz archive": saved(probs, save=np.savez),
        "pickled": saved(probs.astype(object), allow_pickle=True),
        "float32": saved(probs.astype(np.float32)),
        "shape": saved(probs.reshape(probs.shape[0], -1)),
        "huge shape": header + huge.getvalue() + probs.tobytes(),
        "changed tensor": saved(changed),
        "key": bytes([entry[0] ^ 1]) + entry[1:],
    }


def test_damaged_entry_is_ignored_and_rewritten(tmp_path):
    manifest = write_pool(random_pool(5, n_models=3, n_samples=4, n_classes=2), tmp_path)
    [name] = _cache_files(manifest)
    entry = tmp_path / ".sqdiv-cache" / name
    good = entry.read_bytes()
    expected, parsed = _load(manifest)
    assert not parsed
    buffer = io.BytesIO()
    np.save(buffer, expected.probs)
    assert good[32:] == hashlib.sha256(expected.probs).digest() + buffer.getvalue()
    for damage, data in _damaged_entries(good).items():
        entry.write_bytes(data)
        pool, parsed = _load(manifest)
        assert parsed, damage
        _assert_same_pool(pool, expected)
        assert _cache_files(manifest) == [name], damage
        assert entry.read_bytes() == good, damage


def test_failed_store_leaves_the_load_correct_and_writes_nothing(tmp_path, monkeypatch):
    pool = random_pool(6, n_models=3, n_samples=5, n_classes=3)
    manifest = write_pool(pool, tmp_path)
    _drop_cache(manifest)
    save = np.save

    def full_disk(file, array, allow_pickle):
        save(file, array[:1], allow_pickle=allow_pickle)
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(np, "save", full_disk)
    loaded, parsed = _load(manifest)
    assert parsed
    _assert_same_pool(loaded, pool)
    assert _cache_files(manifest) == []
    assert write_pool(pool, tmp_path / "again") == tmp_path / "again" / "manifest.json"
    assert _cache_files(tmp_path / "again" / "manifest.json") == []
    for name in ("labels.csv", "manifest.json", "model_00.csv"):
        assert (tmp_path / "again" / name).read_bytes() == (tmp_path / name).read_bytes()


def test_new_entry_replaces_only_its_manifests_older_ones(tmp_path):
    manifest = write_pool(random_pool(8, n_models=2, n_samples=3, n_classes=2), tmp_path)
    other = tmp_path / "other.json"
    shutil.copyfile(manifest, other)
    load_pool(other)
    old = _cache_bytes(manifest)
    assert list(old) == ["manifest.json.entry", "other.json.entry"]
    model = tmp_path / "model_00.csv"
    lines = model.read_text().splitlines(keepends=True)
    model.write_text(lines[0] + "".join(reversed(lines[1:])))
    _, parsed = _load(manifest)
    assert parsed
    new = _cache_bytes(manifest)
    assert list(new) == list(old)
    assert new["manifest.json.entry"] != old["manifest.json.entry"]
    assert new["other.json.entry"] == old["other.json.entry"]
    _, parsed = _load(manifest)
    assert not parsed


def test_store_removes_temporary_files_a_killed_store_left(tmp_path, monkeypatch):
    manifest = write_pool(random_pool(8, n_models=2, n_samples=3, n_classes=2), tmp_path)
    other = tmp_path / "other.json"
    shutil.copyfile(manifest, other)
    [entry] = _cache_files(manifest)
    (tmp_path / ".sqdiv-cache" / entry).unlink()

    def killed(*args):
        raise KeyboardInterrupt

    with monkeypatch.context() as patch:
        # Stopped between its temporary file and os.replace, with no cleanup.
        patch.setattr(os, "replace", killed)
        patch.setattr(os, "unlink", lambda path: None)
        for target in (manifest, other):
            with pytest.raises(KeyboardInterrupt):
                load_pool(target)
    left = _cache_files(manifest)
    assert [name.split(".")[0] for name in left] == ["manifest", "other"]
    assert all(name.endswith(".tmp") for name in left)
    _, parsed = _load(manifest)
    assert parsed
    assert _cache_files(manifest) == [entry, left[1]]


def _assert_loads_as_a_copy_without_cache(manifest, where, pool=None):
    """`pool` (by default, load_pool(manifest)) equals load_pool on a copy,
    in `where`, of the files beside `manifest` without its cache; if the
    copy fails to load, so does `manifest`, with the same message."""
    shutil.rmtree(where, ignore_errors=True)
    where.mkdir()
    for path in manifest.parent.iterdir():
        if path.is_file():
            shutil.copyfile(path, where / path.name)
    try:
        expected = load_pool(where / manifest.name)
    except PoolFormatError as exc:
        assert pool is None
        with pytest.raises(PoolFormatError) as failed:
            load_pool(manifest)
        assert str(failed.value).replace(str(manifest.parent), "") == \
            str(exc).replace(str(where), "")
        return
    _assert_same_pool(load_pool(manifest) if pool is None else pool, expected)


# Where an edit lands while load_pool runs: right after the function named
# returns (or, for _read_models, right before it parses); whether the cache
# is warm for the files as they were; and the file edited, by swapping two
# byte strings of equal length. On a miss the model files are parsed after
# the edit, so the load returns the edited pool.
EDITED_MEANWHILE = {
    "manifest's model order, after it is parsed":
        ("_read_manifest", "after", True, "manifest.json", b'"preds_0.csv"', b'"preds_1.csv"'),
    # The model files' headers no longer match, so a load of the edited
    # manifest fails.
    "manifest's class order, after it is parsed":
        ("_read_manifest", "after", True, "manifest.json", b'"a"', b'"b"'),
    "labels file, after it is parsed on a hit":
        ("_read_labels", "after", True, "labels.csv", b"s1,a\ns2,b", b"s2,b\ns1,a"),
    "model file, after it is hashed on a hit":
        ("_file_digest", "after", True, "preds_0.csv", b"0.9,0.1", b"0.8,0.2"),
    "model file, after it is hashed on a miss":
        ("_file_digest", "after", False, "preds_0.csv", b"0.9,0.1", b"0.8,0.2"),
    "model file, before it is parsed":
        ("_read_models", "before", False, "preds_0.csv", b"0.9,0.1", b"0.8,0.2"),
}


@pytest.mark.parametrize("case", list(EDITED_MEANWHILE))
def test_file_edited_during_the_load_never_keys_an_entry_to_other_bytes(
        write_manifest, tmp_path_factory, monkeypatch, case):
    """The pool a load returns, and every later load, equal a load without
    a cache of the bytes that load read: an entry is keyed by the bytes
    parsed or, on a hit, by the bytes hashed."""
    manifest = write_manifest(
        classes=["a", "b"],
        labels=[("s1", "a"), ("s2", "b")],
        model_rows=[{"s1": (0.9, 0.1), "s2": (0.3, 0.7)}, {"s1": (0.6, 0.4), "s2": (0.2, 0.8)}],
    )
    cold = tmp_path_factory.mktemp("cold") / "pool"
    name, when, warm, file, old, new = EDITED_MEANWHILE[case]
    path = manifest.parent / file
    before = path.read_bytes()
    after = before.replace(old, b"\0").replace(new, old).replace(b"\0", new)
    assert after != before and len(after) == len(before)
    load_pool(manifest)
    if not warm:
        path.write_bytes(after)
        load_pool(manifest)  # a stale entry, for the files before the edit
        path.write_bytes(before)

    original = getattr(sqpool, name)
    edited = []

    def edit_meanwhile(*args):
        if when == "before" and not edited:
            path.write_bytes(after)
            edited.append(1)
        result = original(*args)
        if when == "after" and not edited and (name != "_file_digest" or args[0] == path):
            path.write_bytes(after)
            edited.append(1)
        return result

    monkeypatch.setattr(sqpool, name, edit_meanwhile)
    pool = load_pool(manifest)
    monkeypatch.undo()
    assert edited
    if warm:
        path.write_bytes(before)
    _assert_loads_as_a_copy_without_cache(manifest, cold, pool)
    for content in (after, before, after):
        path.write_bytes(content)
        _assert_loads_as_a_copy_without_cache(manifest, cold)
