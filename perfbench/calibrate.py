"""Machine-speed calibration of the timed runs.

The benchmark runs on shared hosts whose speed drifts with the neighbours'
load: on a shared 2-vCPU Xeon (2.0 GHz) virtual machine the same CLI stream
took 1.4 to 1.75 times longer in slow phases lasting from seconds to
minutes, so raw throughput of one seed differed by up to 70% between runs.  Every timed
quantity is therefore bracketed by a fixed reference of the same kind that
never touches ``pairhull``, and reported at reference speed::

    reported time = raw time * REF_S / (mean of the reference times around it)

In-process CLI calls are bracketed by :func:`kernel`, which times two kinds
of work: interpreter-bound (JSON records, small frozen dataclasses, branchy
float arithmetic, small numpy calls), like the closed-form streams and the
verify suites, and array-bound (broadcast arithmetic over a 64^3 grid), like
half of the oracle.  The two slow down by different factors in a slow phase
(about 1.55 and 1.3 times), so the closed form is referred to the first and
the oracle to their sum (``"blend"``).  Process starts are bracketed by
:func:`bare_start`, a fresh interpreter that imports numpy.  A change to the
program moves only the bracketed time; a slow phase moves both.  The
readable output also prints the raw figures.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Reference times that define reference speed: about their fast-phase
#: times on a shared 2-vCPU Xeon (2.0 GHz) virtual machine.
REF_S = {"python": 0.004, "array": 0.006, "start": 0.15}
_ROUNDS = 250
_RECORD = '{"x": [0.4, 1.2], "X": [[0.9, 0.7], [0.7, 2.1]], "z": [0.6, 0.8]}'
_WEIGHTS = np.array([1.0, 2.0, 3.0])
_GRID = np.linspace(0.0, 1.0, 64)


@dataclass(frozen=True)
class _Point:
    x1: float
    x2: float
    X11: float
    X12: float
    X22: float
    z1: float
    z2: float


def _closed_sq(u: float, v: float) -> float:
    if v > 1e-9:
        return u * u / v
    return 0.0 if abs(u) <= 1e-9 else math.inf


def _slack(p: _Point) -> float:
    return min(
        p.X11 - _closed_sq(p.x1, p.z1),
        p.X22 - _closed_sq(p.x2, p.z2),
        (p.X11 - p.x1 * p.x1) * (p.X22 - p.x2 * p.x2) - (p.X12 - p.x1 * p.x2) ** 2,
    )


def kernel() -> dict[str, float]:
    """Run the calibration workload once; wall seconds of each part."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(_ROUNDS):
        rec = json.loads(_RECORD)
        (x1, x2), ((X11, X12), (_, X22)), (z1, z2) = rec["x"], rec["X"], rec["z"]
        p = _Point(x1, x2, X11 + i * 1e-9, X12, X22, z1, z2)
        s = _slack(p)
        acc += float(np.dot(np.array([p.X11, p.X12, p.X22]), _WEIGHTS))
        json.dumps({"member": s > 0.0, "slack": s, "acc": acc})
    t1 = time.perf_counter()
    g = _GRID
    for _ in range(2):
        f = g[:, None, None] * g[None, :, None] + g[None, None, :] ** 2 / (g[:, None, None] + 1.0)
        acc += float(np.min(np.where(f > 0.5, f, np.inf)))
    t2 = time.perf_counter()
    if not math.isfinite(acc):
        raise ArithmeticError("calibration kernel produced a non-finite sum")
    return {"python": t1 - t0, "array": t2 - t1}


def bare_start(env: dict, cwd: Path) -> dict[str, float]:
    """Wall seconds of a fresh interpreter that imports numpy and exits."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, cwd=cwd,
                   capture_output=True, check=True, timeout=120)
    return {"start": time.perf_counter() - t0}


class Bracket:
    """Reference-speed factors for consecutive timed quantities.

    Call :meth:`factors` right after each timed quantity: it runs the
    reference once more and returns, for each part, ``REF_S`` over the mean
    time of that part before and after (plus ``"blend"``, the same for the
    sum of the kernel's parts).
    """

    def __init__(self, reference=kernel) -> None:
        self._reference = reference
        self._before = reference()

    def factors(self) -> dict[str, float]:
        after = self._reference()
        mean = {k: 0.5 * (self._before[k] + after[k]) for k in after}
        self._before = after
        out = {k: REF_S[k] / t for k, t in mean.items()}
        if "array" in mean:
            out["blend"] = (REF_S["python"] + REF_S["array"]) / (mean["python"] + mean["array"])
        return out
