"""The package source keeps one line width, so the line count of ``src/defiers``
cannot fall just by packing statements onto longer lines."""
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "defiers").glob("*.py"))
MAX_WIDTH = 104  # characters; the longest line when the guard was set


def test_package_source_lines_fit_the_width():
    assert SOURCES
    wide = [
        f"{path.name}:{number}"
        for path in SOURCES
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > MAX_WIDTH
    ]
    assert wide == []
