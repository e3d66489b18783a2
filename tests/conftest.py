import json
import os
from pathlib import Path

import pytest

import sqdiv
from sqdiv.pool import load_pool


@pytest.fixture
def package_env():
    """Environment for subprocesses that import sqdiv from any working
    directory: the imported package's parent directory leads PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(sqdiv.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    return env


@pytest.fixture
def write_manifest(tmp_path):
    """Write a pool directory from in-memory rows and return the manifest path.

    model_rows: list (per model) of dicts sample_id -> probability row.
    """

    def _write(classes, labels, model_rows, names=None):
        lines = ["sample_id,true_label"]
        lines += [f"{sid},{label}" for sid, label in labels]
        (tmp_path / "labels.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        entries = []
        header = "sample_id," + ",".join(f"p_{c}" for c in classes)
        for i, rows in enumerate(model_rows):
            name = names[i] if names else f"model-{i}"
            fname = f"preds_{i}.csv"
            body = [header] + [
                sid + "," + ",".join(repr(float(v)) for v in row)
                for sid, row in rows.items()
            ]
            (tmp_path / fname).write_text("\n".join(body) + "\n", encoding="utf-8")
            entries.append({"id": i, "name": name, "predictions_path": fname})
        manifest = {"classes": list(classes), "labels_path": "labels.csv", "models": entries}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
        return path

    return _write


@pytest.fixture
def tiny_pool(write_manifest):
    """2 models x 3 samples x 2 classes, all rows valid."""
    manifest = write_manifest(
        classes=["cat", "dog"],
        labels=[("s1", "cat"), ("s2", "dog"), ("s3", "cat")],
        model_rows=[
            {"s1": (0.9, 0.1), "s2": (0.2, 0.8), "s3": (0.4, 0.6)},
            {"s1": (0.6, 0.4), "s2": (0.7, 0.3), "s3": (0.1, 0.9)},
        ],
    )
    return load_pool(manifest)
