"""In-memory spans and counters recorded around calls into sqdiv.

The program itself carries no tracing. The benchmark wraps the library
functions at the names the CLI and the library modules call them by, so
`sqdiv.cli.main(argv)` called from Python makes exactly the calls the `sqdiv`
command makes and each call is timed at its layer boundary. Wrappers are installed only
for the duration of `Tracer.installed()`.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """Spans (name, start, end, parent, run id) plus per-run counters."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []
        self.counts = defaultdict(int)
        self.run_id = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        record = {
            "id": len(self.spans),
            "name": name,
            "run": self.run_id,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": time.perf_counter() - self.t0,
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self.t0
            self._stack.pop()

    def merge(self, spans, counts):
        """Append spans and counters recorded by another process. Span ids
        are renumbered; start and end stay relative to that process."""
        offset = len(self.spans)
        for s in spans:
            parent = s["parent"]
            self.spans.append({**s, "id": s["id"] + offset,
                               "parent": None if parent is None else parent + offset})
        for run, name, amount in counts:
            self.counts[(run, name)] += amount
        return self.spans[offset:]

    def count(self, name, amount):
        self.counts[(self.run_id, name)] += int(amount)

    def wrap(self, fn, name, counter=None):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
                if name == "teams.enumerate":
                    # enumerate_teams is a generator: consume it inside the span.
                    result = list(result)
            if counter is not None:
                for key, amount in counter(args, kwargs, result):
                    self.count(key, amount)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace each patched library name by a traced wrapper, then restore."""
        saved = []
        try:
            for module_name, attr, span_name, counter in PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, span_name, counter))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def duration(self, record):
        return record["end"] - record["start"]

    def layer_totals(self):
        """Seconds per span name, counting only the outermost span of each
        name so nested calls of the same layer are not added twice."""
        by_id = {s["id"]: s for s in self.spans}
        totals = defaultdict(float)
        for s in self.spans:
            parent = s["parent"]
            nested = False
            while parent is not None:
                if by_id[parent]["name"] == s["name"]:
                    nested = True
                    break
                parent = by_id[parent]["parent"]
            if not nested:
                totals[s["name"]] += self.duration(s)
        return totals

    def children(self, record):
        return [s for s in self.spans if s["parent"] == record["id"]]

    def counter_totals(self):
        totals = defaultdict(int)
        for (_, name), amount in self.counts.items():
            totals[name] += amount
        return totals

    def write(self, path):
        """Write every span and counter as JSON lines."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"type": "span", **s}) + "\n")
            for (run, name), amount in sorted(self.counts.items(), key=str):
                fh.write(json.dumps({"type": "count", "run": run, "name": name,
                                     "value": amount}) + "\n")


def _members(team):
    return len(tuple(getattr(team, "member_ids", team)))


def _count_bytes_read(args, kwargs, pool):
    manifest = Path(args[0] if args else kwargs["manifest_path"])
    base = manifest.parent
    raw = json.loads(manifest.read_text(encoding="utf-8"))
    files = [manifest, base / raw["labels_path"]]
    files += [base / m["predictions_path"] for m in raw["models"]]
    yield "pool.bytes_read", sum(f.stat().st_size for f in files)


def _count_negatives(args, kwargs, neg):
    if neg.mode == "focal-errs":
        yield "sq.focal_negatives", len(neg)
    else:
        team = args[1] if len(args) > 1 else kwargs["team"]
        yield "scoring.bits_gathered", _members(team) * len(neg)


def _count_member_rows(args, kwargs, result):
    team = args[1] if len(args) > 1 else kwargs["team"]
    yield "teams.member_rows_added", _members(team)


# (module, attribute, span name, counter). A function is patched in every
# namespace it is called from, because `from x import f` binds a new name.
PATCHES = (
    ("sqdiv.cli", "generate", "synth.generate", None),
    ("sqdiv.cli", "write_pool", "pool.write", None),
    ("sqdiv.cli", "load_pool", "pool.load", _count_bytes_read),
    ("sqdiv.cli", "correctness", "pool.correctness", None),
    ("sqdiv.cli", "sweep", "analytics.sweep", None),
    ("sqdiv.cli", "select_and_evaluate", "selection.select", None),
    ("sqdiv.cli", "pearson", "analytics.correlation", None),
    ("sqdiv.cli", "spearman", "analytics.correlation", None),
    ("sqdiv.analytics", "enumerate_teams", "teams.enumerate", None),
    ("sqdiv.selection", "enumerate_teams", "teams.enumerate", None),
    ("sqdiv.analytics", "score_teams", "scoring.sweep", None),
    ("sqdiv.selection", "score_teams", "scoring.sweep", None),
    ("sqdiv.scoring", "negative_samples", "qmetrics.negative_samples", _count_negatives),
    ("sqdiv.analytics", "team_accuracy_table", "teams.consensus", None),
    ("sqdiv.teams", "consensus", "teams.consensus", _count_member_rows),
    ("sqdiv.selection", "consensus", "teams.consensus", _count_member_rows),
    ("sqdiv.selection", "rank_teams", "selection.rank", None),
)
