"""Host-speed probes: fixed work, independent of binalloc.

On a virtual machine shared with other tenants, the speed of the same work
drifts by tens of percent over minutes, which no statistic taken inside one
run can remove. A probe of fixed work, timed next to the work it scales,
divided by its time on the reference host (a 2-vCPU Xeon VM), gives how
many times slower this host ran; a time divided by that factor is scaled to
the reference host. A probe only helps where it drifts with the work it
scales (see ``workloads.make``). No probe calls binalloc, so a change to
the library cannot move one.

Two probes:

- ``small_flow``, a flow-like numpy loop at n=20, interpreter-bound like
  the campaign's flows and the input set-up;
- ``fresh_import``'s ``import numpy`` in a fresh interpreter, which scales
  the ``import binalloc`` that follows it in the same interpreter.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

# Each probe's time on the reference host.
SMALL_FLOW_REF_S = 0.02
NUMPY_IMPORT_REF_S = 0.1

_IMPORT_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
    "import numpy; t1 = time.perf_counter(); import binalloc; "
    "print(t1 - t0, time.perf_counter() - t0)"
)


def timed(fn):
    """Seconds one call of `fn` takes."""
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


class Probe:
    """Times `kernel` on each call; `ref_s` is its time on the reference host."""

    def __init__(self, kernel, ref_s):
        self.kernel = kernel
        self.ref_s = ref_s
        self.times = []

    def __call__(self):
        self.times.append(timed(self.kernel))

    def factor(self):
        """How many times slower than the reference host this run was."""
        return statistics.median(self.times) / self.ref_s


def small_flow(n=20, steps=200):
    """A flow-like loop at small n: eigh, two matvecs and a clip per step."""
    rng = np.random.default_rng(0)
    mat = rng.normal(size=(n, n))
    mat = mat + mat.T
    x0 = rng.random(n)

    def kernel():
        x = x0.copy()
        for _ in range(steps):
            w, v = np.linalg.eigh(mat)
            x = np.clip(x + 1e-3 * (v @ ((v.T @ (x - 0.5)) / (np.abs(w) + 1.0))), 0.01, 0.99)

    return kernel


def fresh_import(src):
    """(seconds to import numpy, seconds to import numpy and then binalloc)
    in a fresh interpreter that finds binalloc under `src`."""
    out = subprocess.run(
        [sys.executable, "-I", "-c", _IMPORT_CODE, str(src)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    numpy_s, total_s = map(float, out.stdout.split()[-2:])
    return numpy_s, total_s
