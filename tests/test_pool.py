import csv
import io
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqdiv.pool import (
    PoolFormatError,
    _plain_lines,
    correctness,
    load_pool,
    model_accuracy,
    write_pool,
)

import _reference as ref
from _pools import pool_from_probs, random_pool


def test_minimal_pool_loads(tiny_pool):
    assert tiny_pool.n_models == 2
    assert tiny_pool.n_samples == 3
    assert tiny_pool.n_classes == 2
    assert tiny_pool.classes == ("cat", "dog")
    assert tiny_pool.sample_ids == ("s1", "s2", "s3")
    assert tiny_pool.truth.tolist() == [0, 1, 0]
    assert tiny_pool.models[0].model_id == 0
    assert tiny_pool.models[1].name == "model-1"


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
    with pytest.raises(PoolFormatError, match="manifest not found"):
        load_pool(tmp_path / "nope.json")

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


def test_malformed_rows(write_manifest, tmp_path):
    manifest = write_manifest(
        classes=["a", "b"],
        labels=[("s1", "a")],
        model_rows=[{"s1": (1.0, 0.0)}, {"s1": (1.0, 0.0)}],
    )
    bad = tmp_path / "preds_0.csv"

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
    fault("sample_id,p_wat,p_b\ns1,0.5,0.5\n", "header")
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


def _edit(name, old, new):
    """Replace `old` by `new` in one file of the pool directory."""
    return lambda fname, text: text.replace(old, new) if fname == name else text


# Each variant of a valid pool directory, and the error it gives (None: the
# pool loads unchanged).
INPUT_VARIANTS = {
    "utf-8 bom": (lambda fname, text: "\ufeff" + text, None),
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
    with pytest.raises(ValueError, match="out of range"):
        model_accuracy(cm, 2)


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
    by_name = {rec.name: model_accuracy(cm, rec.model_id) for rec in pool.models}

    data = json.loads(manifest.read_text())
    data["models"] = list(reversed(data["models"]))
    manifest.write_text(json.dumps(data))
    shuffled = load_pool(manifest)
    cm2 = correctness(shuffled)
    assert shuffled.models[0].name == "beta"
    assert {rec.name: model_accuracy(cm2, rec.model_id) for rec in shuffled.models} == by_name


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
    again = load_pool(write_pool(pool, out))
    assert again.fingerprint() == pool.fingerprint()
    assert again.classes == pool.classes
    assert again.sample_ids == pool.sample_ids
    assert again.probs.tobytes() == pool.probs.tobytes()

    ref.write_pool_csv(pool, expected)
    names = sorted(p.name for p in expected.iterdir())
    assert sorted(p.name for p in out.iterdir()) == names
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
    lines = _plain_lines(io.StringIO(text, newline=""))
    if any(c in text for c in '"\0\x1c\x1d\x1e\x1f'):
        assert lines is None
    else:
        rows = [row for row in csv.reader(io.StringIO(text, newline="")) if row]
        assert [line.split(",") for line in lines] == rows
