"""Environment record: results compare only when these fields match.

BLAS thread counts change both speed and the last digits of a study, so
the record reads the live count from every loaded OpenBLAS through
ctypes instead of trusting environment variables.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

_THREAD_SYMBOLS = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads")
_CONFIG_SYMBOLS = ("openblas_get_config", "openblas_get_config64_",
                   "scipy_openblas_get_config64_", "scipy_openblas_get_config")


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _call(lib, symbols, restype):
    for name in symbols:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = restype
            return fn()
    return None


def blas_libraries():
    """Every OpenBLAS mapped into this process, with its live thread count."""
    import numpy  # noqa: F401  (loads numpy's BLAS)
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)

    paths = []
    with open("/proc/self/maps", encoding="utf-8") as handle:
        for line in handle:
            path = line.split()[-1]
            if "openblas" in path.lower() and path not in paths:
                paths.append(path)
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        config = _call(lib, _CONFIG_SYMBOLS, ctypes.c_char_p)
        found.append({
            "library": os.path.basename(path),
            "config": config.decode() if config else None,
            "threads": _call(lib, _THREAD_SYMBOLS, ctypes.c_int),
        })
    return found


def source_digest(root: Path) -> str:
    """sha256 over the package sources and shipped configs; it names the
    code where the checkout is not a git working tree."""
    h = hashlib.sha256()
    for path in sorted([*root.glob("src/**/*.py"), *root.glob("configs/*")]):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root: Path):
    """HEAD of the checkout, or None when it is not a git working tree."""
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def collect(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas": blas_libraries(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(root),
        "source_digest": source_digest(root),
    }
