"""The README's list of package-root names agrees with the package itself."""
import inspect
import re
from pathlib import Path
from types import ModuleType

import defiers

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_api(text):
    """{name: quoted argument names, or None} for each name in a README's list.

    The list is the bulleted block after "The package root exports exactly
    these names".  A name is read only where it opens an entry, that is after
    `: `, `, `, ` and ` or `with `, so that prose such as "the support box
    `box`" or "(both `ValueError`s)" names no export; a name quoted as
    `f(a, b)` carries its argument names.
    """
    start = text.index("\n- ", text.index("The package root exports exactly these names"))
    block = " ".join(text[start : text.index("\n\n", start)].split())
    entry = r"(?:: |, | and |with )`([A-Za-z_]\w*)(?:\(([^`()]*)\))?`"
    return {
        name: [a.strip() for a in args.split(",")] if args else None
        for name, args in re.findall(entry, block)
    }


def test_readme_api_reads_only_the_names_that_open_an_entry():
    text = """The package root exports exactly these names:

- analysis: `analyze`, `Theta(at, co, de, nt)` and `theta_index`;
- grids: `assignment_count_grid(x, box)`, the support box `box` (zeroed),
  with `mle` and `posterior(x, level)` (both `ValueError`s).

Prose after the list: `ignored`.
"""
    assert readme_api(text) == {
        "analyze": None,
        "Theta": ["at", "co", "de", "nt"],
        "theta_index": None,
        "assignment_count_grid": ["x", "box"],
        "mle": None,
        "posterior": ["x", "level"],
    }


def test_package_root_exports_exactly_the_readme_names():
    exported = {
        name
        for name, value in vars(defiers).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert set(readme_api(README.read_text())) == exported


def test_quoted_signatures_match_the_code():
    quoted = {name: args for name, args in readme_api(README.read_text()).items() if args is not None}
    assert {"posterior", "smallest_credible_set", "oracle_assignment_count"} <= set(quoted)
    for name, args in quoted.items():
        signature = inspect.signature(getattr(defiers, name))
        assert list(signature.parameters) == args, name
        signature.bind(*args)
