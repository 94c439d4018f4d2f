"""The machine record written beside every result."""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
import sys
from pathlib import Path

_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads")


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def _openblas_library():
    """The OpenBLAS library numpy loaded into this process, or None."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        if path.startswith("/"):
            return ctypes.CDLL(path)
    return None


def blas_threads():
    """Threads OpenBLAS uses in this process (numpy must be imported)."""
    lib = _openblas_library()
    for name in _THREAD_QUERIES if lib is not None else ():
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def git_commit(root: Path):
    """HEAD commit; None outside a git checkout or without git."""
    if not (root / ".git").exists():  # not the commit of an enclosing repo
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def record(root: Path) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": usable_cpus(),
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "git_commit": git_commit(root),
    }
