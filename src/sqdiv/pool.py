"""Prediction pools: loading, validation, persistence, and correctness.

A pool bundles per-model class-probability dumps over one shared evaluation
set. On disk it is a JSON manifest pointing at one labels CSV and one
predictions CSV per model:

    manifest.json  {"classes": [...], "labels_path": "labels.csv",
                    "models": [{"id": 0, "name": "...", "predictions_path": "..."}, ...]}
    labels file    sample_id,true_label            (one row per sample)
    model file     sample_id,p_<class0>,...,p_<classC-1>

Every class is a JSON string. A model's id is its position in "models"
and its name, a string, defaults to model-<position>; a declared "id" is
only checked not to repeat.
Samples are joined across files by sample_id, never by row position; the
labels file fixes the canonical sample order. Relative paths in the manifest
resolve against the manifest's directory. Every pool file, the manifest
too, is read by one text reader, which drops a UTF-8 byte order mark and
reports a missing file, a directory or bytes that are not UTF-8 alike. A
CSV file may end its lines in \n or \r\n and hold blank lines; fields
are taken verbatim, and a cell is read as float() reads it. A file with no
'"', no NUL, none of \x1c-\x1f, no line break but \r and \n, and no line
past the csv field limit is split on line ends and commas without the csv
module, which gives the same fields, and a model file's cells are then
parsed by one np.loadtxt call.
The labels file and every model file are read by one table reader, which
checks the header, each row's width and that no sample id repeats, with
the same messages whichever way it split the file; the labels reader then
looks up each class and the model reader parses the cells.
Where np.loadtxt refuses a cell that float() may read, and for every file
that goes through csv.reader, the cells are parsed as float() parses them,
a chunk of rows at a time. The writer formats each distinct probability of
a chunk of rows once and writes the chunk's lines as one string.

When the pool holds at least _SPREAD_VALUES probabilities (M * N * C) and
no other Python thread runs, load_pool and write_pool share the model files
out among forked worker processes, one per CPU the process may use. Each
worker writes what it reads, or the digest of what it writes, straight into
memory shared with the caller, and marks itself done in a shared flag as
its last act. Unless every worker and the caller's own share are marked
done, the caller reads or writes every file again in order, so the values
read, the bytes written and the first error raised are always those of the
serial loop.

Beside each manifest, .sqdiv-cache/<manifest file name>.entry holds the
pool's (M, N, C) probability tensor, saved by write_pool and by a
load_pool that had to parse the model files. The entry is 32 bytes of key,
32 bytes of the sha256 of the tensor's bytes in C order, then the tensor as
np.save writes it. The key is a sha256 over the bytes of the manifest, the
labels file and every model file in manifest order, this module's source,
numpy's version, Python's major.minor and the csv field limit in force.
Each file's digest is taken from the very bytes that are parsed, and a
model file is hashed apart from its parse only when the manifest has an
entry to look up, so an entry is never used after any input byte or the
reader's source changes, and a damaged one is ignored and written again.
The manifest and the labels file are parsed and PredictionPool's checks
run on every load, hit or miss. Entries are written best-effort (a
temporary file, then os.replace over the manifest's entry; an OSError
leaves the load as it is; a store removes any temporary file a killed
store left) and the directory is safe to delete.

Pools and correctness matrices are immutable after construction.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
import mmap
import os
import re
import sys
import tempfile
import threading
import warnings
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .teams import _member_ids

# Row sums farther than this from 1 are rejected outright.
ROW_SUM_TOL = 1e-6
# Rows closer to 1 than this are left untouched by renormalization, so a
# write -> read round trip keeps the exact same probability bits.
_RENORM_SKIP = 1e-9


class PoolFormatError(ValueError):
    """A manifest, predictions file, or labels file is missing or invalid."""


@dataclass(eq=False)
class PredictionPool:
    """Immutable M x N x C probability tensor plus labels and metadata.

    Parameters
    ----------
    models : tuple of model names, length M >= 2, in manifest order; a
        model's id is its position, so reordering the manifest permutes ids
        while names keep their predictions
    classes : tuple of class names, length C >= 2
    sample_ids : tuple of sample identifiers, length N >= 1
    truth : int array (N,), class index per sample
    probs : float array (M, N, C); each row sums to 1 within ROW_SUM_TOL
    """

    models: tuple[str, ...]
    classes: tuple[str, ...]
    sample_ids: tuple[str, ...]
    truth: np.ndarray
    probs: np.ndarray
    _fingerprint: str | None = field(default=None, repr=False, compare=False)
    _labels: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.models = tuple(str(name) for name in self.models)
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
        if self.truth.min() < 0 or self.truth.max() >= c:
            raise PoolFormatError("truth entry is not a valid class index")
        # load_pool has checked each model file's rows already, but a tensor
        # taken from its cache was checked by no parse: this is its check.
        bad = _first_bad_row(self.probs)
        if bad is not None:
            row, problem = bad
            model, sample = divmod(row, n)
            raise PoolFormatError(
                f"{problem} for model {self.models[model]!r}, "
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
                "models": list(self.models),
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
        if self.bits.ndim != 2:
            raise ValueError(
                f"correctness bits must be 2-d (models, samples), not of shape {self.bits.shape}"
            )
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
    """Fraction of samples the model gets right (model_id checked as a team member's)."""
    (model_id,) = _member_ids([model_id], cm.n_models, 1)
    return float(cm.bits[model_id].mean())


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


def _line_of(path, row):
    """1-based line on which data row `row` of a CSV file starts, counting
    rows as `_read_table` does (header first, blank lines skipped)."""
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
# module treats apart, the four that np.loadtxt strips from a cell's edges
# as whitespace where float() refuses the cell (\x1c-\x1e also break
# lines in str.splitlines), and the other line breaks of str.splitlines
# besides \r and \n, which csv.reader does not break a line at.
_CSV_ONLY = '"\0\x1c\x1d\x1e\x1f\x0b\x0c\x85\u2028\u2029'


def _plain_lines(text):
    """The non-blank lines of `text`, their line ends stripped; None if the
    text holds a character of _CSV_ONLY or a line longer than the csv field
    limit. Whenever it is not None, csv.reader's rows of the same text, read
    with newline="", are exactly these lines split on ','."""
    if any(c in text for c in _CSV_ONLY):
        return None
    lines = list(filter(None, text.splitlines()))
    if lines and max(map(len, lines)) > csv.field_size_limit():
        return None
    return lines


def _read_text(path, context):
    """The text of the UTF-8 file at `path`, a byte order mark dropped and
    line ends kept, and the sha256 of the bytes it was decoded from."""
    path = Path(path)
    if not path.is_file():
        problem = "path is not a file" if path.exists() else "file not found"
        raise PoolFormatError(f"{context} {problem}: {path}")
    data = path.read_bytes()
    try:
        return data.decode("utf-8-sig"), hashlib.sha256(data).digest()
    except UnicodeDecodeError:
        raise PoolFormatError(f"{context} file is not UTF-8 text: {path}") from None


def _read_table(path, context, header, model=None):
    """The data rows of the CSV file at `path`, their sample ids, whether
    each row is its line, and the sha256 of the bytes they were read from.

    A UTF-8 byte order mark is dropped and blank lines are skipped; fields
    are kept verbatim. A row is its line, with fields line.split(","), when
    _plain_lines reads the file, and csv.reader's list of fields otherwise.
    The file's header must be `header`, every row as wide and every sample
    id its own; a fault names `model` or, without one, the labels file.
    """
    text, digest = _read_text(path, context)
    rows = _plain_lines(text)
    plain = rows is not None
    if not plain:
        reader = csv.reader(io.StringIO(text, newline=""))
        try:
            rows = [row for row in reader if row]
        except csv.Error as exc:
            raise PoolFormatError(f"{path}, line {reader.line_num}: {exc}") from None
    if not rows:
        raise PoolFormatError(f"{context} file is empty: {path}")

    def fields(row):
        return row.split(",") if plain else row

    rows, header_row = rows[1:], fields(rows[0])
    # Header fields match with edge whitespace stripped on both sides, so a
    # padded header is accepted, and a class name with edge whitespace
    # (kept verbatim, like sample ids) still matches.
    if [h.strip() for h in header_row] != [h.strip() for h in header]:
        of_model = "" if model is None else f" for model {model!r}"
        raise PoolFormatError(f"{context} header{of_model} must be {','.join(header)}: {path}")
    where = "in labels file" if model is None else f"for model {model!r}"
    # A line holds one comma fewer than its fields.
    widths = list(map(str.count, rows, repeat(","))) if plain else list(map(len, rows))
    width = len(header) - plain
    if widths.count(width) < len(widths):
        i = next(i for i, w in enumerate(widths) if w != width)
        raise _fault(path, i, f"malformed row {where}: {fields(rows[i])!r}")
    ids = [line.partition(",")[0] for line in rows] if plain else [row[0] for row in rows]
    if len(set(ids)) < len(ids):
        # The first row whose id an earlier row holds.
        first_row = {}
        i = next(i for i, sid in enumerate(ids) if first_row.setdefault(sid, i) != i)
        raise _fault(path, i, f"duplicate sample_id {ids[i]!r} {where}")
    return rows, ids, plain, digest


def _read_labels(path, classes):
    """The labels file as (sample ids, truth class indices, the sha256 of
    its bytes)."""
    rows, ids, plain, digest = _read_table(path, "labels", ["sample_id", "true_label"])
    if not rows:
        raise PoolFormatError(f"labels file has no rows: {path}")
    # Each plain row is a line that holds exactly one comma.
    labels = ",".join(rows).split(",")[1::2] if plain else [row[1] for row in rows]
    class_to_index = {c: k for k, c in enumerate(classes)}
    truth = list(map(class_to_index.get, labels))
    if None in truth:
        i = truth.index(None)
        raise _fault(
            path, i, f"unknown class label {labels[i]!r} for sample {ids[i]!r}"
        )
    return ids, np.array(truth, dtype=np.int64), digest


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
    """One model's file as (sample ids, (N, C) float64 probability block,
    the sha256 of its bytes).

    Checks run over the whole file in this order: row width, duplicate
    ids, number parsing, entries in range, row sums. The first fault found
    is reported with the file, the line and the model.
    """
    header = ["sample_id"] + [f"p_{c}" for c in classes]
    rows, ids, plain, digest = _read_table(path, "predictions", header, model)
    block = None
    if plain and rows:
        # np.loadtxt accepts no cell that float() refuses in a plain file
        # (_CSV_ONLY keeps those out) and reads the same value where both
        # accept one; it refuses some that float() reads, such as '0.2_5'.
        try:
            block = np.loadtxt(rows, dtype=np.float64, delimiter=",", comments=None,
                               usecols=range(1, len(header)), ndmin=2)
        except ValueError:
            pass
    if block is None:
        block = _parse_cells(path, rows, plain, len(classes), model)
    bad = _first_bad_row(block)
    if bad is not None:
        i, problem = bad
        raise _fault(path, i, f"{problem} for model {model!r}, sample {ids[i]!r}")
    return ids, block, digest


def _read_manifest(path):
    """The manifest's (classes, labels file path, model names, model file
    paths), shape-checked and with paths resolved against the manifest's
    directory, and the sha256 of the bytes they were read from."""
    text, digest = _read_text(path, "manifest")
    # Line ends are translated as Path.read_text translates them, so a
    # JSON error names the same line, column and character.
    try:
        manifest = json.loads(text.replace("\r\n", "\n").replace("\r", "\n"))
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
    for i, name in enumerate(classes):
        if not isinstance(name, str):
            raise PoolFormatError(f"manifest key 'classes' entry {i} must be a string: {path}")
    if len(classes) < 2 or len(set(classes)) != len(classes):
        raise PoolFormatError(f"manifest must list at least 2 distinct classes: {path}")
    if not isinstance(labels_path, str):
        raise PoolFormatError(f"manifest key 'labels_path' must be a string: {path}")
    if not isinstance(entries, list) or len(entries) < 2:
        raise PoolFormatError(f"manifest must reference at least 2 model files: {path}")
    names, paths = [], []
    for position, entry in enumerate(entries):
        where = f"manifest key 'models' entry {position}"
        if not isinstance(entry, dict):
            raise PoolFormatError(f"{where} must be an object: {path}")
        if isinstance(entry.get("id"), (list, dict)):
            raise PoolFormatError(f"{where}: 'id' must be a number or a string: {path}")
        name = entry.get("name", f"model-{position}")
        if not isinstance(name, str):
            raise PoolFormatError(f"{where}: 'name' must be a string: {path}")
        rel = entry.get("predictions_path")
        if not isinstance(rel, str) or not rel:
            raise PoolFormatError(
                f"{where}: 'predictions_path' must be a non-empty string: {path}"
            )
        names.append(name)
        paths.append(path.parent / rel)
    # Model ids are positional; only declared ids must not repeat, compared
    # as the JSON values they are written as (true is not 1, 0.0 is not 0).
    declared = [json.dumps(e["id"]) for e in entries if e.get("id") is not None]
    if len(set(declared)) != len(declared):
        raise PoolFormatError(f"duplicate model ids in manifest: {path}")
    return classes, path.parent / labels_path, names, paths, digest


# Pools of fewer probabilities (M * N * C) than this are read and written
# by the calling process alone. Measured in fresh processes on a 2-vCPU host
# (2 workers, `simulate` pools at M=10, C=15, medians of 15 or 25
# alternating pairs), a forked load_pool took 0.89x the serial time at 2^15
# values, 0.70x at 2^16 and 0.63x at 2^17; a forked write_pool took 1.10x
# and 1.24x at 2^15 (two runs), 0.88x to 1.19x at 2^16 (three runs) and
# 0.73x at 2^17.
_SPREAD_VALUES = 1 << 16


def _shared(shape, dtype):
    """A zeroed array of `shape` and `dtype` in an anonymous shared mapping,
    so the caller sees what a forked worker writes into it."""
    dtype = np.dtype(dtype)
    return np.frombuffer(mmap.mmap(-1, int(np.prod(shape)) * dtype.itemsize), dtype).reshape(shape)


def _spread(func, count, size):
    """Run func(i) for i in range(count), for its side effects, with the
    indices shared out among forked worker processes when `size`, the
    pool's number of probabilities, is at least _SPREAD_VALUES.

    Worker w of W (the caller is worker 0) runs indices w, w + W, ... in
    order and then, as its last act, sets its flag in an array shared with
    the caller. Unless every flag is set, every index is then run here in
    order, so what func leaves behind and the first exception raised are
    the serial loop's. No worker outlives the call.
    """
    workers = 1
    # A fork copies only the calling thread: another Python thread could
    # hold a lock the worker then waits on for ever.
    if (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and threading.active_count() == 1 and size >= _SPREAD_VALUES):
        workers = min(len(os.sched_getaffinity(0)), count)
    if workers > 1:
        done = _shared((workers,), np.bool_)
        pids = []
        try:
            for w in range(1, workers):
                try:
                    with warnings.catch_warnings():
                        # Python 3.12+ warns on fork whenever the process has
                        # more than one OS thread, as it does once numpy has
                        # started OpenBLAS's pool. OpenBLAS stops that pool in
                        # its own atfork handler, and _spread forks only when
                        # no other Python thread runs.
                        warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                                DeprecationWarning)
                        pid = os.fork()
                except OSError:
                    break  # no process to spare: every index is run below
                if not pid:
                    # The worker leaves only by os._exit: it never returns
                    # into the caller's frames, runs no atexit handler and
                    # flushes no inherited stdio buffer.
                    try:
                        for i in range(w, count, workers):
                            func(i)
                        done[w] = True
                    finally:
                        os._exit(0)
                pids.append(pid)
            with contextlib.suppress(Exception):  # raised again by the loop below
                for i in range(0, count, workers):
                    func(i)
                done[0] = True
        finally:
            for pid in pids:
                with contextlib.suppress(ChildProcessError):
                    os.waitpid(pid, 0)
        if done.all():
            return
    for i in range(count):
        func(i)


# The directory beside a manifest that holds its cache entry.
_CACHE_DIR = ".sqdiv-cache"


@functools.cache
def _cache_tag():
    """What, besides its input files, decides the tensor load_pool builds:
    this module's source, numpy's version and Python's major.minor."""
    source = Path(__file__).read_bytes()
    versions = f"numpy {np.__version__} python {sys.version_info[0]}.{sys.version_info[1]}"
    return hashlib.sha256(source).digest() + versions.encode("utf-8")


def _file_digest(path):
    """sha256 of the file at `path`, read whole as _read_text reads it."""
    return hashlib.sha256(Path(path).read_bytes()).digest()


def _pool_key(digests):
    """The cache key of a pool whose manifest, labels file and model files,
    in manifest order, have the sha256 `digests`."""
    key = hashlib.sha256(_cache_tag())
    # A line longer than the csv field limit may fail a load, so the limit
    # in force decides the outcome too.
    key.update(b"%d" % csv.field_size_limit())
    for digest in digests:
        key.update(digest)
    return key.digest()


# The tail of the name of a store's temporary file in the cache directory,
# after the manifest's own file name.
_TEMP_TAIL = r"\.[^.]+\.tmp"


def _entry_path(manifest):
    """The path of the cache entry beside `manifest`."""
    return manifest.parent / _CACHE_DIR / f"{manifest.name}.entry"


def _cached_probs(manifest, digests, paths, shape):
    """The float64 tensor of `shape` from the cache entry beside `manifest`
    for the pool whose manifest and labels file have the sha256 `digests`
    and whose model files are at `paths`; None if there is none. The model
    files are hashed only when the manifest has an entry to check."""
    try:
        with _entry_path(manifest).open("rb") as fh:
            if fh.read(32) != _pool_key([*digests, *map(_file_digest, paths)]):
                return None
            digest = fh.read(32)
            probs = np.load(fh, allow_pickle=False)
    # MemoryError: a damaged header can claim an array of any size.
    except (OSError, ValueError, EOFError, MemoryError):
        return None
    if (isinstance(probs, np.ndarray) and probs.dtype == np.float64 and probs.shape == shape
            and hashlib.sha256(np.ascontiguousarray(probs)).digest() == digest):
        return probs
    return None


def _store(manifest, key, probs):
    """Save `probs` as the cache entry beside `manifest` for `key`, through
    a temporary file and os.replace, then remove that manifest's temporary
    files. Raises OSError when the cache cannot be written; it then holds
    no partial entry."""
    probs = np.ascontiguousarray(probs)
    entry = _entry_path(manifest)
    entry.parent.mkdir(exist_ok=True)
    fd, temp = tempfile.mkstemp(prefix=f"{manifest.name}.", suffix=".tmp", dir=entry.parent)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(key + hashlib.sha256(probs).digest())
            np.save(fh, probs, allow_pickle=False)
        os.replace(temp, entry)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        raise
    # A temporary file here was left by a store that was killed, or is being
    # written by another process, whose store then fails as best-effort.
    # The match is exact: manifest.json.*.tmp would also take the temporary
    # files of a manifest named manifest.json.bak.
    temporary = re.compile(re.escape(manifest.name) + _TEMP_TAIL).fullmatch
    for path in entry.parent.iterdir():
        if temporary(path.name):
            path.unlink(missing_ok=True)


def load_pool(manifest_path):
    """Load, join, and validate a pool from its manifest.

    Samples are matched across model files by sample_id; the labels file
    order becomes the pool's sample order. Any coverage gap between a model
    file and the labels file is a hard error. The model files are parsed
    only when the cache beside the manifest holds no entry for the bytes of
    every input file (see the module docstring).
    """
    manifest_path = Path(manifest_path)
    classes, labels_path, names, paths, manifest_digest = _read_manifest(manifest_path)
    sample_ids, truth, labels_digest = _read_labels(labels_path, classes)
    # Each digest is of the bytes parsed (or, on a hit, of the bytes the
    # entry was stored for), so an entry always holds what its key's bytes
    # parse to, whatever changes while this runs.
    digests = [manifest_digest, labels_digest]
    shape = (len(names), len(sample_ids), len(classes))
    probs = _cached_probs(manifest_path, digests, paths, shape)
    parsed = probs is None
    if parsed:
        probs, model_digests = _read_models(paths, names, classes, sample_ids)
    pool = PredictionPool(
        models=tuple(names),
        classes=tuple(classes),
        sample_ids=tuple(sample_ids),
        truth=truth,
        probs=probs,
    )
    if parsed:
        with contextlib.suppress(OSError):  # the cache is best-effort
            _store(manifest_path, _pool_key([*digests, *model_digests]), pool.probs)
    return pool


def _read_models(paths, names, classes, sample_ids):
    """The (M, N, C) tensor of the model files at `paths`, of the models
    `names`, their rows placed in the order of `sample_ids`, and the
    (M, 32) sha256 of each file's bytes."""
    index = dict(zip(sample_ids, range(len(sample_ids))))
    probs = _shared((len(paths), len(index), len(classes)), np.float64)
    digests = _shared((len(paths), 32), np.uint8)

    def read(position):
        """Place model file `position`'s block in its slab of `probs`, in
        the labels file's order, and the sha256 of its bytes in `digests`."""
        name, path = names[position], paths[position]
        ids, block, digest = _read_predictions(path, classes, name)
        if ids == sample_ids:
            probs[position] = block
        else:
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
        digests[position] = np.frombuffer(digest, np.uint8)

    _spread(read, len(paths), probs.size)
    return probs, digests


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
    labels_digest = _write_csv(
        out / "labels.csv",
        "sample_id,true_label",
        (f"{sid},{classes[t]}\r\n" for sid, t in zip(ids, pool.truth.tolist())),
    )

    header = ",".join(["sample_id"] + [_csv_field(f"p_{c}") for c in pool.classes])
    entries = [
        {"id": i, "name": name, "predictions_path": f"model_{i:02d}.csv"}
        for i, name in enumerate(pool.models)
    ]
    digests = _shared((len(entries), 32), np.uint8)

    def write(position):
        path = out / entries[position]["predictions_path"]
        digest = _write_csv(path, header, _prob_lines(ids, pool.probs[position]))
        digests[position] = np.frombuffer(digest, np.uint8)

    _spread(write, len(entries), pool.probs.size)

    manifest = {
        "classes": list(pool.classes),
        "labels_path": "labels.csv",
        "models": entries,
    }
    manifest_path = out / "manifest.json"
    text = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8")
    manifest_path.write_bytes(text)
    # Keyed on the bytes written here, so files changed since by anyone
    # else are not served from this entry.
    with contextlib.suppress(OSError):  # the cache is best-effort
        _store(manifest_path,
               _pool_key([hashlib.sha256(text).digest(), labels_digest, *digests]),
               pool.probs)
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
    """Write a CSV file of `header` and the text chunks `lines`, each
    encoded once as it is written; returns the sha256 of its bytes."""
    # Lines are formatted as they are written, a chunk of rows at a time,
    # so neither a whole file nor a model's probabilities as Python floats
    # are ever held: either one raises the peak RSS of `simulate` at M=10,
    # N=5000 by 4 to 6 MB.
    digest = hashlib.sha256()
    with path.open("wb") as fh:
        for text in chain([header + "\r\n"], lines):
            data = text.encode("utf-8")
            digest.update(data)
            fh.write(data)
    return digest.digest()
