"""BLAS thread pinning and the environment recorded with every result.

This module must not import numpy at import time: the thread count only
takes effect when it is set before numpy loads its BLAS.
"""

from __future__ import annotations

import os
import platform
import subprocess

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc():
    """Processors this process may run on (what `nproc` prints)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def pin_threads():
    """Set the BLAS thread count to nproc.

    eigh and the dense matvecs scale with the thread count, so every run of
    the benchmark states and fixes it. Returns the count set.
    """
    count = nproc()
    for var in THREAD_VARS:
        os.environ[var] = str(count)
    return count


def commit(root):
    """Commit hash of the checkout at `root`, or "unknown" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.path.abspath(root)))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def record(root, threads):
    """Commit, Python, numpy and BLAS versions, nproc and the pinned BLAS threads."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "commit": commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "nproc": nproc(),
        "blas_threads": threads,
    }
