"""Process environment of a benchmark run: thread caps, import path, stamp.

``prepare()`` must run before numpy is imported: it caps the BLAS and OpenMP
thread pools at the CPUs this process may use and puts the checkout's own
``src`` first on the import path, so the benchmark always measures the emx
source next to it and never an installed copy.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NCPU = len(os.sched_getaffinity(0))


def prepare() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = str(NCPU)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def import_emx():
    """Import emx from the checkout's ``src``; ImportError if it is not there."""
    import emx

    if Path(emx.__file__).resolve().parent != (SRC / "emx").resolve():
        raise ImportError(f"emx was imported from {emx.__file__}, not from {SRC}")
    return emx


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _run(cmd: list[str]) -> str | None:
    # git must not look for a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=20, cwd=ROOT, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout if proc.returncode == 0 else None


def _cache_sizes() -> dict:
    sizes = {"l2": None, "l3": None}
    for line in (_run(["lscpu"]) or "").splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            sizes[key.strip()[:2].lower()] = value.strip()
    return sizes


def _git_commit() -> str | None:
    head = _run(["git", "rev-parse", "HEAD"])
    return head.strip() if head else None


def source_digest() -> str:
    """SHA-256 over the emx sources, which identifies the code outside git too."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "emx").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def stamp(seed: int) -> dict:
    """What a hash mismatch on another machine would be traced back to."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NCPU,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        **_cache_sizes(),
        "git_commit": _git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
    }
