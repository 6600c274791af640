"""List the lines of ``src/defiers`` that the test suite never executes.

Runs ``pytest.main`` under the standard library's ``trace`` module (no
``coverage`` dependency) and prints, for each module, the executable lines
with no hit, counted the way ``python -m trace --count --missing`` counts
them, and then the package's total line count as ``wc -l src/defiers/*.py``
gives it.  Usage, from anywhere:

    python tools/untraced_lines.py [pytest arguments]

With no arguments the tier-1 ``tests`` directory runs quietly.  Worker
threads are traced; subprocesses that tests start are not.  Tracing makes
Python-level code several times slower.  Exits with pytest's status.
"""
from __future__ import annotations

import functools
import os
import sys
import threading
import trace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "defiers"


class _PackageOnly:
    """Stands in for ``trace.Ignore``, which caches its verdict by bare module
    name, so a ``core.py`` or ``__init__.py`` elsewhere would hide ours."""

    @functools.lru_cache(maxsize=None)
    def names(self, filename: str, modulename: str) -> bool:
        return Path(os.path.realpath(filename)).parent != PACKAGE


def untraced(counts: dict) -> dict[Path, list[int]]:
    """Executable lines of each package module that ``counts`` never hit."""
    hit: dict[str, set[int]] = {}
    for filename, line in counts:
        hit.setdefault(os.path.realpath(filename), set()).add(line)
    return {
        path: sorted(
            set(trace._find_executable_linenos(str(path)))
            - hit.get(os.path.realpath(path), set())
            - {0}  # the module's entry point, not a source line
        )
        for path in sorted(PACKAGE.glob("*.py"))
    }


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    import pytest

    tracer = trace.Trace(count=1, trace=0)
    tracer.ignore = _PackageOnly()
    threading.settrace(tracer.globaltrace)
    try:
        status = tracer.runfunc(
            pytest.main, argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")]
        )
    finally:
        threading.settrace(None)
    for path, lines in untraced(tracer.results().counts).items():
        source = path.read_text().splitlines()
        print(f"{path.relative_to(ROOT)}: {len(lines)} untraced")
        for line in lines:
            print(f"  {line}: {source[line - 1].strip()}")
    total = sum(path.read_bytes().count(b"\n") for path in PACKAGE.glob("*.py"))
    print(f"{PACKAGE.relative_to(ROOT)}: {total} lines in all (wc -l)")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
