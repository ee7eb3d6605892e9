"""A normbase process runs OpenBLAS on one thread unless told otherwise:
importing the package sets OPENBLAS_NUM_THREADS to 1 before NumPy loads and
keeps a value that is already set. The setting acts only when NumPy loads,
so each case runs in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import normbase

SRC = str(Path(normbase.__file__).resolve().parents[1])
SHOW = "import os\nprint(os.environ.get('OPENBLAS_NUM_THREADS'))\n"


def run(script: str, threads=None) -> str:
    """stdout of ``script`` in a fresh interpreter whose OPENBLAS_NUM_THREADS
    is ``threads``, or unset."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_sets_one_thread():
    assert run("import normbase\n" + SHOW) == "1\n"


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc")
def test_import_starts_no_blas_thread():
    script = (
        "import normbase\n"
        "status = open('/proc/self/status').read().splitlines()\n"
        "print(next(line for line in status if line.startswith('Threads:')))\n"
    )
    assert run(script).split() == ["Threads:", "1"]


def test_explicit_setting_is_kept():
    assert run("import normbase\n" + SHOW, threads="2") == "2\n"


def test_numpy_loaded_first_leaves_it_unset():
    assert run("import numpy, normbase\n" + SHOW) == "None\n"
