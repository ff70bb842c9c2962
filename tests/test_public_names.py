"""Every name ``sspd`` exports has a caller outside the tests: the README,
a script or the benchmark harness refers to it."""

import re
from pathlib import Path

import sspd

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_has_a_caller():
    files = [ROOT / "README.md", *sorted((ROOT / "scripts").glob("*.py")),
             *sorted((ROOT / "perfbench").glob("*.py"))]
    text = "\n".join(path.read_text() for path in files)
    assert all(hasattr(sspd, name) for name in sspd.__all__)
    uncalled = [name for name in sspd.__all__ if not re.search(rf"\b{name}\b", text)]
    assert uncalled == []
