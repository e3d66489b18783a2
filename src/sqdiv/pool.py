"""Prediction pools: loading, validation, persistence, and correctness.

A pool bundles per-model class-probability dumps over one shared evaluation
set. On disk it is a JSON manifest pointing at one labels CSV and one
predictions CSV per model:

    manifest.json  {"classes": [...], "labels_path": "labels.csv",
                    "models": [{"id": 0, "name": "...", "predictions_path": "..."}, ...]}
    labels file    sample_id,true_label            (one row per sample)
    model file     sample_id,p_<class0>,...,p_<classC-1>

Samples are joined across files by sample_id, never by row position; the
labels file fixes the canonical sample order. Relative paths in the manifest
resolve against the manifest's directory. A CSV file may start with a UTF-8
byte order mark, end its lines in \n or \r\n and hold blank lines; fields
are taken verbatim, and a cell is read as float() reads it. A file with no
'"', no NUL, none of \x1c-\x1f and no line past the csv field limit is
split on line ends and commas without the csv module, which gives the same
fields, and a model file's cells are then parsed by one np.loadtxt call.
Where np.loadtxt refuses a cell that float() may read, and for every file
that goes through csv.reader, the cells are parsed as float() parses them,
a chunk of rows at a time. The writer formats each distinct probability of
a chunk of rows once and writes the chunk's lines as one string.

Pools and correctness matrices are immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

# Row sums farther than this from 1 are rejected outright.
ROW_SUM_TOL = 1e-6
# Rows closer to 1 than this are left untouched by renormalization, so a
# write -> read round trip keeps the exact same probability bits.
_RENORM_SKIP = 1e-9


class PoolFormatError(ValueError):
    """A manifest, predictions file, or labels file is missing or invalid."""


@dataclass(frozen=True)
class ModelRecord:
    """One base model in the pool.

    model_id is positional: the loader assigns 0..M-1 in manifest order, so
    reordering the manifest permutes ids while names keep their predictions.
    """

    model_id: int
    name: str
    predictions_path: str


@dataclass(eq=False)
class PredictionPool:
    """Immutable M x N x C probability tensor plus labels and metadata.

    Parameters
    ----------
    models : tuple of ModelRecord, ids 0..M-1 in order
    classes : tuple of class names, length C >= 2
    sample_ids : tuple of sample identifiers, length N >= 1
    truth : int array (N,), class index per sample
    probs : float array (M, N, C); each row sums to 1 within ROW_SUM_TOL
    """

    models: tuple[ModelRecord, ...]
    classes: tuple[str, ...]
    sample_ids: tuple[str, ...]
    truth: np.ndarray
    probs: np.ndarray
    _fingerprint: str | None = field(default=None, repr=False, compare=False)
    _labels: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.models = tuple(self.models)
        self.classes = tuple(str(c) for c in self.classes)
        self.sample_ids = tuple(str(s) for s in self.sample_ids)
        self.truth = np.asarray(self.truth, dtype=np.int64)
        self.probs = np.asarray(self.probs, dtype=np.float64)

        m, n, c = len(self.models), len(self.sample_ids), len(self.classes)
        if m < 2:
            raise PoolFormatError("a pool needs at least 2 models")
        if c < 2:
            raise PoolFormatError("a pool needs at least 2 classes")
        if n < 1:
            raise PoolFormatError("a pool needs at least 1 sample")
        if self.probs.shape != (m, n, c):
            raise PoolFormatError(
                f"probs shape {self.probs.shape} does not match "
                f"{m} models x {n} samples x {c} classes"
            )
        if self.truth.shape != (n,):
            raise PoolFormatError("truth length does not match sample count")
        if len(set(self.classes)) != c:
            raise PoolFormatError("duplicate class names")
        if len(set(self.sample_ids)) != n:
            raise PoolFormatError("duplicate sample ids")
        ids = [rec.model_id for rec in self.models]
        if ids != list(range(m)):
            raise PoolFormatError("model ids must be 0..M-1 in order")
        if self.truth.min() < 0 or self.truth.max() >= c:
            raise PoolFormatError("truth entry is not a valid class index")
        bad = _first_bad_row(self.probs)
        if bad is not None:
            row, problem = bad
            model, sample = divmod(row, n)
            raise PoolFormatError(
                f"{problem} for model {self.models[model].name!r}, "
                f"sample {self.sample_ids[sample]!r}"
            )

        sums = self.probs.sum(axis=2)
        drift = np.abs(sums - 1.0) > _RENORM_SKIP
        if drift.any():
            probs = self.probs.copy()
            probs[drift] /= sums[drift][:, None]
            self.probs = probs

        self.truth.setflags(write=False)
        self.probs.setflags(write=False)

    @property
    def n_models(self):
        return len(self.models)

    @property
    def n_samples(self):
        return len(self.sample_ids)

    @property
    def n_classes(self):
        return len(self.classes)

    def sample_index(self, sample_id):
        try:
            return self.sample_ids.index(sample_id)
        except ValueError:
            raise KeyError(f"unknown sample_id: {sample_id!r}") from None

    def predicted_labels(self):
        """Argmax class index per (model, sample); ties go to the lowest index."""
        if self._labels is None:
            labels = np.argmax(self.probs, axis=2)
            labels.setflags(write=False)
            self._labels = labels
        return self._labels

    def fingerprint(self):
        """Content hash over classes, sample ids, truth, model names, and probs."""
        if self._fingerprint is None:
            meta = {
                "classes": list(self.classes),
                "samples": list(self.sample_ids),
                "truth": self.truth.tolist(),
                "models": [rec.name for rec in self.models],
            }
            digest = hashlib.sha256()
            digest.update(json.dumps(meta, sort_keys=True).encode("utf-8"))
            digest.update(np.ascontiguousarray(self.probs))
            self._fingerprint = digest.hexdigest()
        return self._fingerprint


@dataclass(eq=False)
class CorrectnessMatrix:
    """Boolean (M, N) matrix: bits[i, j] iff model i predicts sample j right."""

    bits: np.ndarray

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=bool)
        self.bits.setflags(write=False)

    @property
    def n_models(self):
        return self.bits.shape[0]

    @property
    def n_samples(self):
        return self.bits.shape[1]


def correctness(pool):
    """Derive the correctness matrix; pure and deterministic for a given pool."""
    bits = pool.predicted_labels() == pool.truth[None, :]
    return CorrectnessMatrix(bits=bits)


def model_accuracy(cm, model_id):
    """Fraction of samples the model gets right."""
    if not 0 <= int(model_id) < cm.n_models:
        raise ValueError(f"model_id {model_id} out of range (pool has {cm.n_models})")
    return float(cm.bits[int(model_id)].mean())


def _first_bad_row(probs):
    """The first row of `probs` (rows along the last axis) that is not a
    probability vector, as (flat row index, problem); None if there is none.

    Entries that are negative or not finite are looked for before sums
    farther than ROW_SUM_TOL from 1.
    """
    rows = probs.reshape(-1, probs.shape[-1])
    out_of_range = ~(np.isfinite(rows) & (rows >= 0)).all(axis=1)
    if out_of_range.any():
        return int(out_of_range.argmax()), "probability out of range"
    sums = rows.sum(axis=1)
    off = np.abs(sums - 1.0) > ROW_SUM_TOL
    if off.any():
        i = int(off.argmax())
        return i, f"probability normalization: row sums to {sums[i]:.8f}"
    return None


def _first_repeat(ids):
    """Index of the first id that occurs earlier in `ids`."""
    seen = set()
    for i, sid in enumerate(ids):
        if sid in seen:
            return i
        seen.add(sid)


def _line_of(path, row):
    """1-based line on which data row `row` of a CSV file starts, counting
    rows as `_read_rows` does (header first, blank lines skipped)."""
    with Path(path).open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        start = 1
        for fields in reader:
            if fields:
                if row < 0:
                    return start
                row -= 1
            start = reader.line_num + 1
    return start


def _fault(path, row, message):
    return PoolFormatError(f"{path}, line {_line_of(path, row)}: {message}")


# Characters that send a file to csv.reader: '"' and NUL, which the csv
# module treats apart, and the four that np.loadtxt strips from a cell's
# edges as whitespace where float() refuses the cell.
_CSV_ONLY = '"\0\x1c\x1d\x1e\x1f'
# Line breaks of str.splitlines, besides \r, \n and the \x1c-\x1e of
# _CSV_ONLY, that csv.reader does not break a line at.
_OTHER_BREAKS = "\x0b\x0c\x85\u2028\u2029"


def _plain_lines(fh):
    """The non-blank lines of text file `fh`, opened with newline="", their
    line ends stripped; None if the text holds a character of _CSV_ONLY or
    a line longer than the csv field limit. Whenever it is not None,
    csv.reader's rows of the same text are exactly these lines split on
    ','."""
    text = fh.read()
    if any(c in text for c in _CSV_ONLY):
        return None
    if any(c in text for c in _OTHER_BREAKS):
        lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    else:
        lines = text.splitlines()
    lines = list(filter(None, lines))
    if lines and max(map(len, lines)) > csv.field_size_limit():
        return None
    return lines


def _read_rows(path, context):
    """Header fields and data rows of a CSV file, and whether each row is
    its line. A UTF-8 byte order mark is dropped and blank lines are
    skipped; fields are kept verbatim. A row is its line, with fields
    line.split(","), when _plain_lines reads the file, and csv.reader's
    list of fields otherwise."""
    path = Path(path)
    if not path.is_file():
        raise PoolFormatError(f"{context} file not found: {path}")
    with path.open(newline="", encoding="utf-8-sig") as fh:
        try:
            rows = _plain_lines(fh)
            plain = rows is not None
            if not plain:
                fh.seek(0)
                reader = csv.reader(fh)
                rows = [row for row in reader if row]
        except csv.Error as exc:
            raise PoolFormatError(f"{path}, line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError:
            raise PoolFormatError(f"{context} file is not UTF-8 text: {path}") from None
    if not rows:
        raise PoolFormatError(f"{context} file is empty: {path}")
    return (rows[0].split(",") if plain else rows[0]), rows[1:], plain


def _first_misfit(widths, width):
    """Index of the first entry of `widths` that is not `width`, or None."""
    widths = list(widths)
    if set(widths) <= {width}:
        return None
    return next(i for i, w in enumerate(widths) if w != width)


def _read_labels(path, classes):
    """The labels file as ({sample_id: position}, truth class indices)."""
    header, rows, plain = _read_rows(path, "labels")
    if plain:
        rows = [line.split(",") for line in rows]
    if [h.strip() for h in header] != ["sample_id", "true_label"]:
        raise PoolFormatError(f"labels header must be sample_id,true_label: {path}")
    if not rows:
        raise PoolFormatError(f"labels file has no rows: {path}")
    i = _first_misfit(map(len, rows), 2)
    if i is not None:
        raise _fault(path, i, f"malformed row in labels file: {rows[i]!r}")
    ids = [row[0] for row in rows]
    index = dict(zip(ids, range(len(ids))))
    if len(index) < len(ids):
        i = _first_repeat(ids)
        raise _fault(path, i, f"duplicate sample_id {ids[i]!r} in labels file")
    class_to_index = {c: k for k, c in enumerate(classes)}
    truth = [class_to_index.get(row[1]) for row in rows]
    if None in truth:
        i = truth.index(None)
        raise _fault(
            path, i, f"unknown class label {rows[i][1]!r} for sample {ids[i]!r}"
        )
    return index, np.array(truth, dtype=np.int64)


# Rows parsed per np.array call of the cell-by-cell parse, which bounds the
# cell strings held at once.
_PARSE_ROWS = 1024


def _parse_cells(path, rows, plain, n_classes, model):
    """The (len(rows), n_classes) float64 block of probability cells, each
    read as float() reads it, a chunk of rows at a time; the first cell
    float() refuses is reported with its line."""
    width = n_classes + 1
    block = np.empty((len(rows), n_classes), dtype=np.float64)
    for start in range(0, len(rows), _PARSE_ROWS):
        chunk = rows[start:start + _PARSE_ROWS]
        if plain:
            cells = ",".join(chunk).split(",")
            del cells[::width]
        else:
            cells = [cell for row in chunk for cell in row[1:]]
        try:
            block[start:start + len(chunk)] = np.array(
                cells, dtype=np.float64
            ).reshape(len(chunk), n_classes)
        except ValueError:
            # np.array parses strings as float() does; find the first cell it refused.
            for k, cell in enumerate(cells):
                try:
                    float(cell)
                except ValueError:
                    raise _fault(
                        path, start + k // n_classes,
                        f"malformed row for model {model!r}: "
                        f"cannot parse {cell!r} as a number",
                    ) from None
            raise
    return block


def _read_predictions(path, classes, model):
    """One model's file as (sample ids, (N, C) float64 probability block).

    Checks run over the whole file in this order: row width, duplicate
    ids, number parsing, entries in range, row sums. The first fault found
    is reported with the file, the line and the model.
    """
    header, rows, plain = _read_rows(path, "predictions")
    expected = ["sample_id"] + [f"p_{c}" for c in classes]
    # Header fields match with edge whitespace stripped on both sides, so a
    # padded header is accepted as in the labels file, and a class name
    # with edge whitespace (kept verbatim, like sample ids) still matches.
    if [h.strip() for h in header] != [e.strip() for e in expected]:
        raise PoolFormatError(
            f"predictions header for model {model!r} must be "
            f"{','.join(expected)}: {path}"
        )
    width = len(expected)
    if plain:
        i = _first_misfit(map(str.count, rows, repeat(",")), width - 1)
    else:
        i = _first_misfit(map(len, rows), width)
    if i is not None:
        fields = rows[i].split(",") if plain else rows[i]
        raise _fault(path, i, f"malformed row for model {model!r}: {fields!r}")
    ids = [line.partition(",")[0] for line in rows] if plain else [row[0] for row in rows]
    if len(set(ids)) < len(ids):
        i = _first_repeat(ids)
        raise _fault(path, i, f"duplicate sample_id {ids[i]!r} for model {model!r}")
    block = None
    if plain and rows:
        # np.loadtxt accepts no cell that float() refuses in a plain file
        # (_CSV_ONLY keeps those out) and reads the same value where both
        # accept one; it refuses some that float() reads, such as '0.2_5'.
        try:
            block = np.loadtxt(rows, dtype=np.float64, delimiter=",", comments=None,
                               usecols=range(1, width), ndmin=2)
        except ValueError:
            pass
    if block is None:
        block = _parse_cells(path, rows, plain, len(classes), model)
    bad = _first_bad_row(block)
    if bad is not None:
        i, problem = bad
        raise _fault(path, i, f"{problem} for model {model!r}, sample {ids[i]!r}")
    return ids, block


def _read_manifest(path):
    """The manifest's (classes, labels path, model entries), shape-checked."""
    if not path.is_file():
        raise PoolFormatError(f"manifest not found: {path}")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise PoolFormatError(f"manifest is not valid JSON: {path}: {exc}") from None
    if not isinstance(manifest, dict):
        raise PoolFormatError(f"manifest must hold a JSON object: {path}")
    for key in ("classes", "labels_path", "models"):
        if key not in manifest:
            raise PoolFormatError(f"manifest missing key {key!r}: {path}")

    classes, labels_path, entries = (
        manifest["classes"], manifest["labels_path"], manifest["models"]
    )
    if not isinstance(classes, list):
        raise PoolFormatError(f"manifest key 'classes' must be a list: {path}")
    classes = [str(c) for c in classes]
    if len(classes) < 2 or len(set(classes)) != len(classes):
        raise PoolFormatError(f"manifest must list at least 2 distinct classes: {path}")
    if not isinstance(labels_path, str):
        raise PoolFormatError(f"manifest key 'labels_path' must be a string: {path}")
    if not isinstance(entries, list) or len(entries) < 2:
        raise PoolFormatError(f"manifest must reference at least 2 model files: {path}")
    for position, entry in enumerate(entries):
        where = f"manifest key 'models' entry {position}"
        if not isinstance(entry, dict):
            raise PoolFormatError(f"{where} must be an object: {path}")
        if isinstance(entry.get("id"), (list, dict)):
            raise PoolFormatError(f"{where}: 'id' must be a number or a string: {path}")
        rel = entry.get("predictions_path")
        if not isinstance(rel, str) or not rel:
            raise PoolFormatError(
                f"{where}: 'predictions_path' must be a non-empty string: {path}"
            )
    declared = [e.get("id") for e in entries]
    if len(set(declared)) != len(declared):
        raise PoolFormatError(f"duplicate model ids in manifest: {path}")
    return classes, labels_path, entries


def load_pool(manifest_path):
    """Load, join, and validate a pool from its manifest.

    Samples are matched across model files by sample_id; the labels file
    order becomes the pool's sample order. Any coverage gap between a model
    file and the labels file is a hard error.
    """
    manifest_path = Path(manifest_path)
    classes, labels_path, entries = _read_manifest(manifest_path)
    base = manifest_path.parent
    index, truth = _read_labels(base / labels_path, classes)

    models = []
    probs = np.empty((len(entries), len(index), len(classes)), dtype=np.float64)
    for position, entry in enumerate(entries):
        name = str(entry.get("name", f"model-{position}"))
        rel = entry["predictions_path"]
        path = base / rel
        ids, block = _read_predictions(path, classes, name)
        rows = list(map(index.get, ids))
        if len(rows) != len(index) or None in rows:
            missing = sorted(set(index).difference(ids))[:3]
            extra = sorted(set(ids).difference(index))[:3]
            raise PoolFormatError(
                f"sample coverage mismatch for model {name!r} in {path}"
                + (f"; missing {missing}" if missing else "")
                + (f"; unexpected {extra}" if extra else "")
            )
        probs[position, rows] = block
        models.append(ModelRecord(model_id=position, name=name, predictions_path=rel))

    return PredictionPool(
        models=tuple(models),
        classes=tuple(classes),
        sample_ids=tuple(index),
        truth=truth,
        probs=probs,
    )


_NEEDS_QUOTES = re.compile('[,"\r\n]').search


def _csv_field(text):
    """`text` as one CSV field, quoted as csv.writer's default dialect does."""
    if _NEEDS_QUOTES(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_pool(pool, out_dir):
    """Write the pool in manifest/CSV form; returns the manifest path.

    Floats are Python's shortest round-trip repr, so a reload reproduces
    the same fingerprint; rows end in \\r\\n and fields are quoted as
    csv.writer quotes them.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ids = [_csv_field(sid) for sid in pool.sample_ids]
    classes = [_csv_field(c) for c in pool.classes]
    _write_csv(
        out / "labels.csv",
        "sample_id,true_label",
        (f"{sid},{classes[t]}\r\n" for sid, t in zip(ids, pool.truth.tolist())),
    )

    header = ",".join(["sample_id"] + [_csv_field(f"p_{c}") for c in pool.classes])
    entries = []
    for rec in pool.models:
        fname = f"model_{rec.model_id:02d}.csv"
        _write_csv(out / fname, header, _prob_lines(ids, pool.probs[rec.model_id]))
        entries.append(
            {"id": rec.model_id, "name": rec.name, "predictions_path": fname}
        )

    manifest = {
        "classes": list(pool.classes),
        "labels_path": "labels.csv",
        "models": entries,
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return manifest_path


# Rows whose distinct values are formatted, and whose lines are written,
# together.
_WRITE_ROWS = 1024


def _prob_lines(ids, probs):
    """The CSV lines of one model's (N, C) probabilities, row i led by
    ids[i], as one string per chunk of rows. Each distinct value of a chunk
    is formatted once: a simulated row holds one peak and C - 1 equal
    off-peak shares."""
    for start in range(0, len(ids), _WRITE_ROWS):
        block = probs[start:start + _WRITE_ROWS]
        # Keyed on bit patterns, so -0.0 and 0.0 keep their own text.
        bits, inverse = np.unique(block.view(np.uint64), return_inverse=True)
        text = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
        cells = np.empty((len(block), block.shape[1] + 1), dtype=object)
        cells[:, 0] = ids[start:start + _WRITE_ROWS]
        cells[:, 1:] = text[inverse.ravel()].reshape(block.shape)
        yield "\r\n".join(map(",".join, cells.tolist())) + "\r\n"


def _write_csv(path, header, lines):
    # Lines are formatted as they are written, a chunk of rows at a time,
    # so neither a whole file nor a model's probabilities as Python floats
    # are ever held: either one raises the peak RSS of `simulate` at M=10,
    # N=5000 by 4 to 6 MB.
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(header + "\r\n")
        fh.writelines(lines)
