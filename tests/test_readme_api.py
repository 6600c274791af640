"""The README's list of package-root names agrees with the package itself."""
import builtins
import inspect
import re
from pathlib import Path
from types import ModuleType

import defiers

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_api():
    """{name: quoted argument names, or None} for each name in the README's list.

    The list is the bulleted block after "The package root exports exactly
    these names"; a name quoted as `f(a, b)` carries its argument names.
    Builtins named there (such as `ValueError`) are not exports.
    """
    text = README.read_text()
    start = text.index("\n- ", text.index("The package root exports exactly these names"))
    block = text[start : text.index("\n\n", start)]
    api = {}
    for name, args in re.findall(r"`([A-Za-z_]\w*)(?:\(([^`()]*)\))?`", block):
        if not hasattr(builtins, name):
            api[name] = [a.strip() for a in args.split(",")] if args else None
    return api


def test_package_root_exports_exactly_the_readme_names():
    exported = {
        name
        for name, value in vars(defiers).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert set(readme_api()) == exported


def test_quoted_signatures_match_the_code():
    quoted = {name: args for name, args in readme_api().items() if args is not None}
    assert {"posterior", "smallest_credible_set", "oracle_assignment_count"} <= set(quoted)
    for name, args in quoted.items():
        signature = inspect.signature(getattr(defiers, name))
        assert list(signature.parameters) == args, name
        signature.bind(*args)
