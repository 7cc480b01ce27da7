"""Source-text rules of the library and its tools: every line of
``src/boxmatch`` and ``tools`` fits in 100 characters."""

from pathlib import Path

import pytest

MAX_LINE = 100
ROOT = Path(__file__).parents[1]
SOURCES = sorted((ROOT / "src" / "boxmatch").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))


def test_the_package_has_sources():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_no_line_is_longer_than_100_characters(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    long = [f"{path.name}:{no}: {len(line)}" for no, line in enumerate(lines, 1)
            if len(line) > MAX_LINE]
    assert long == []
