"""Machine-speed calibration: a fixed kernel sampled while each job runs.

The benchmark's host is shared.  Its speed drifts by up to 2x in phases
of a few seconds, and process CPU time drifts with wall time, so raw job
times from two runs are not comparable.  While a job runs, a wall-clock
timer (``SIGALRM``) interrupts it every ``interval`` seconds and runs a
small fixed kernel twice, timing only the second call.  The first call
brings the kernel's data back into cache, so a sample does not depend on
how much of the cache and heap the job left it.  The job's time, less
the time spent in the kernel, is then scaled to the speed at which the
kernel takes its reference time:

    scaled = (wall - kernel time) * mean(reference / sample)

The samples are spread evenly over the job's wall time, so the mean of
``reference / sample`` is the job's average speed relative to the
reference.

Set-up steps last a fraction of one interval, and interrupting them adds
more noise than it removes, so ``Calibration.speed`` is instead sampled
just before and just after each of them.  Importing the package is timed
in a fresh interpreter, and none of the kernels tracks its speed (file
lookups, unmarshalling, loading extension modules).  Its reference is a
fresh interpreter importing a fixed set of standard-library modules
(``child_import_s``), run just before and just after it.

The kernels use no package code, so no change to the package moves them.
Each mimics one workload's hot path, because interference slows Python
code, small numpy calls and BLAS by different factors:

* ``interp``: the cleartext engine (small objects, multi-limb int bit ops);
* ``nand51``: ``hom_nand`` at the exact preset, N = 51 (small products and
  bit decompositions, dominated by numpy call overhead);
* ``nand261``: ``hom_nand`` at the default preset, N = 261 (BLAS-bound).
"""

from __future__ import annotations

import contextlib
import os
import signal
import statistics
import subprocess
import sys
import time


class _Wire:
    __slots__ = ("value", "depth")

    def __init__(self, value, depth):
        self.value = value
        self.depth = depth


def interp_kernel():
    mask = (1 << 100) - 1
    a, b = _Wire(0x5555 << 64, 0), _Wire(0x3333 << 64, 0)
    for _ in range(2_000):
        a, b = b, _Wire(mask ^ (a.value & b.value), max(a.depth, b.depth) + 1)


class _NandKernel:
    """Flatten(I - C1 @ C2) on fixed binary matrices, n + 1 limbs of ell bits."""

    def __init__(self, n: int, ell: int, reps: int):
        import numpy as np
        self.np, self.n, self.ell, self.reps = np, n, ell, reps
        side = (n + 1) * ell
        rng = np.random.default_rng(0)
        self.c1 = rng.integers(0, 2, (side, side)).astype(np.float64)
        self.c2 = self.c1.T.copy()
        self.eye = np.eye(side)
        self.pow2 = (1 << np.arange(ell, dtype=np.int64)).astype(np.float64)
        self.shifts = np.arange(ell, dtype=np.int64)
        self.q = (1 << (ell - 1)) + 1

    def __call__(self):
        np = self.np
        for _ in range(self.reps):
            mat = self.eye - self.c1 @ self.c2
            vals = mat.reshape(mat.shape[0], self.n + 1, self.ell) @ self.pow2
            words = np.mod(vals, self.q).astype(np.int64)
            ((words[:, :, None] >> self.shifts) & 1).reshape(mat.shape).astype(np.float64)


KERNELS = {
    "interp": lambda: interp_kernel,
    "nand51": lambda: _NandKernel(n=2, ell=17, reps=20),
    "nand261": lambda: _NandKernel(n=8, ell=29, reps=1),
}
# Kernel seconds, and seconds of the reference imports, on an unloaded
# 2-vCPU x86-64 VM (Python 3.11, numpy 2.4, OpenBLAS 0.3.31 on one
# thread): the speed that scaled times refer to.
REFERENCE_S = {"interp": 0.0015, "nand51": 0.0008, "nand261": 0.0015, "import": 0.14}

# Standard-library modules the package does not import, for the "import"
# reference; about as much work as importing the package and numpy.
REFERENCE_IMPORTS = (
    "sqlite3", "xml.dom.minidom", "xml.etree.ElementTree", "email.mime.multipart",
    "email.parser", "http.client", "tarfile", "unittest", "difflib", "pydoc", "asyncio",
    "configparser", "pickletools", "calendar", "gettext", "optparse", "plistlib",
    "smtplib", "imaplib", "ftplib", "mailbox", "wave", "cmd", "shlex", "uuid")

_TIMED_IMPORT = """
import time
t0 = time.perf_counter()
{imports}
print(time.perf_counter() - t0)
"""


def child_import_s(modules, pythonpath=None) -> float:
    """Seconds a fresh interpreter takes to import `modules`.

    `pythonpath` is prepended to the module search path; the reference
    imports run without it, so no file of the package can change them.
    """
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    if pythonpath:
        env["PYTHONPATH"] = pythonpath
    code = _TIMED_IMPORT.format(imports="\n".join(f"import {m}" for m in modules))
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return float(res.stdout)


def warm_call_s(kernel) -> float:
    """Seconds of one kernel call, after an untimed call that warms its data."""
    kernel()
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Window:
    """Kernel samples taken while one timed block ran."""

    def __init__(self, calibration):
        self.calibration = calibration
        self.samples: list[float] = []
        self.kernel_s = 0.0  # wall time spent in the sampling handler

    def _sample(self):
        self.samples.append(warm_call_s(self.calibration.kernel))
        return time.perf_counter()

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self.kernel_s += self._sample() - t0

    def scale(self, wall: float) -> float:
        """`wall` seconds of the block at the kernel's reference speed."""
        if not self.samples:  # block shorter than one interval
            self._sample()
        ref = self.calibration.reference
        return (wall - self.kernel_s) * statistics.fmean(ref / s for s in self.samples)


class Calibration:
    def __init__(self, kind: str, interval: float = 0.1):
        self.kind = kind
        self.kernel = KERNELS[kind]()
        self.reference = REFERENCE_S[kind]
        self.interval = interval
        self.windows: list[Window] = []

    @contextlib.contextmanager
    def window(self):
        """Sample the kernel every `interval` wall seconds while the block runs."""
        win = Window(self)
        self.windows.append(win)
        previous = signal.signal(signal.SIGALRM, win._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield win
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def speed(self, samples: int = 5) -> float:
        """Current machine speed: reference time over the median kernel time."""
        return self.reference / statistics.median(
            warm_call_s(self.kernel) for _ in range(samples))
