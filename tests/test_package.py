"""The package surface is the one the README documents."""

import re
from pathlib import Path

import sqdiv

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_equals_readme_library_names():
    text = README.read_text(encoding="utf-8")
    library = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"from sqdiv import \(([^)]*)\)", library).group(1)
    documented = [name.strip() for name in block.split(",") if name.strip()]
    assert sqdiv.__all__ == documented
    for name in sqdiv.__all__:
        assert callable(getattr(sqdiv, name)), name
