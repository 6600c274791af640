"""Importing the package loads numpy with one BLAS thread unless the user set a count."""
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import defiers

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
TASKS = "import os; print(len(os.listdir('/proc/self/task')))"

linux_only = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="counts the threads in /proc/self/task"
)


def fresh(code: str, **blas: str) -> str:
    """Output of ``code`` in a new interpreter with only the given BLAS variables set."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS}
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(env, PYTHONPATH=str(SRC), **blas),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@linux_only
def test_import_starts_no_blas_worker():
    assert fresh("import defiers; " + TASKS) == "1"


def test_the_one_thread_setting_lasts_only_while_numpy_loads():
    # an audit hook reads the variable as numpy is imported; afterwards it is gone
    seen = (
        "import os, sys; seen = []; sys.addaudithook(lambda event, args: event == 'import'"
        " and args[0] == 'numpy' and seen.append(os.environ.get('OPENBLAS_NUM_THREADS')))"
    )
    assert fresh(seen + "; import defiers; print(seen, 'OPENBLAS_NUM_THREADS' in os.environ)") == (
        "['1'] False"
    )


@linux_only
def test_a_users_blas_thread_count_wins():
    # OpenBLAS caps its pool at the CPU count, so compare with numpy alone
    assert fresh("import defiers; " + TASKS, OPENBLAS_NUM_THREADS="2") == fresh(
        "import numpy; " + TASKS, OPENBLAS_NUM_THREADS="2"
    )


def test_reimport_removes_its_own_setting_and_keeps_a_users(monkeypatch):
    for name in BLAS:
        monkeypatch.delenv(name, raising=False)
    importlib.reload(defiers)
    assert "OPENBLAS_NUM_THREADS" not in os.environ
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    importlib.reload(defiers)
    assert "OPENBLAS_NUM_THREADS" not in os.environ and os.environ["OMP_NUM_THREADS"] == "2"


def test_a_failed_numpy_import_still_removes_the_setting(monkeypatch):
    for name in BLAS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setitem(sys.modules, "numpy", None)  # makes ``import numpy`` raise
    with pytest.raises(ImportError):
        importlib.reload(defiers)
    assert "OPENBLAS_NUM_THREADS" not in os.environ
