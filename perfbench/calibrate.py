"""Host-speed calibration: a fixed kernel timed between the benchmark's timings.

On a shared 2-vCPU host the same batch runs up to 1.5x slower, in stretches
of seconds to minutes, with CPU time equal to wall time: the host's speed,
not the program's, moves.  No statistic over one run's batches removes that.
This kernel does the kinds of work the workloads do (tuple-keyed dict
lookups and per-element Python calls, numpy passes over arrays larger than
the cache, small dense LAPACK), shares no code with the package, and is
timed before the first batch and after every batch.  A batch's wall time
over the mean of the passes on either side of it is its cost in passes;
times REF_PASS_S it is the batch's time at the reference host speed.

The kernel runs in a child process (`Probe`), so that its memory does not
count in the benchmark's peak RSS, on the one CPU the benchmark pins itself
to.  In five 18-s runs per workload on that host, the quartile spread of
units_per_s across runs was 1.4-8.3% of its median, against 10.5-20.1% for
the wall-clock rates of the same runs.

    python3 perfbench/calibrate.py     # time 21 passes on this host
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from time import perf_counter

# Median pass time on the 2-vCPU host the benchmark was written on.  It only
# turns costs in passes back into seconds; any fixed value would do.
REF_PASS_S = 0.30


class Probe:
    """The kernel in a child process pinned to `cpu`, one pass per request.

    Run there, its memory stays out of the benchmark's peak_rss_mb and its
    state out of the program's heap.  The caller pins itself to the same CPU
    so that a pass measures the CPU its batches ran on: in one 150-s trial,
    the median of five batch costs spread by 1.2-1.5% (relative standard
    deviation) pinned and by 3.1-4.2% unpinned.  Passes never overlap a
    batch: the caller waits for each one."""

    def __init__(self, cpu: int):
        self.cpu = cpu

    def __enter__(self) -> "Probe":
        env = {**os.environ, **{v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                 "MKL_NUM_THREADS")}}
        self._proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), "--serve"],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                      text=True, env=env)
        os.sched_setaffinity(self._proc.pid, {self.cpu})
        return self

    def pass_seconds(self) -> float:
        """Wall time of one pass, timed in the child."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration probe exited {self._proc.wait()}")
        return float(line)

    def __exit__(self, *exc) -> None:
        try:
            self._proc.stdin.close()
            self._proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self._proc.kill()
            self._proc.wait()
        finally:
            self._proc.stdout.close()


def _parts():
    """The kernel's four parts, with their data."""
    import numpy as np
    from scipy.linalg import eigvalsh, lu_factor

    rng = np.random.default_rng(20260101)
    sites = rng.integers(-300, 300, size=(80_000, 2))
    radii = rng.random(300_000).tolist()
    x = rng.random(2_000_000)
    sym = rng.standard_normal((128, 128))
    sym = sym + sym.T
    gen = rng.standard_normal((300, 300)) + 300.0 * np.eye(300)

    def bound(r: float) -> float:
        return 1.0 / (1.0 + r) ** 4 if r > 0.5 else 1.0

    def lookup() -> float:
        """Tuple-keyed dict over a window larger than the cache."""
        rows = sites.tolist()
        table = {tuple(row): i for i, row in enumerate(rows)}
        return float(sum(table[tuple(row)] for row in rows[::2]))

    def calls() -> float:
        """One Python call per element."""
        return sum(bound(r) for r in radii)

    def stream() -> float:
        """Elementwise numpy passes over arrays larger than the cache."""
        return sum(float(np.sum(np.exp(-x) * (1.0 + x) ** -4.0)) for _ in range(2))

    def dense() -> float:
        """Small dense LAPACK calls."""
        return (sum(float(eigvalsh(sym)[0]) for _ in range(40))
                + sum(float(lu_factor(gen)[0][0, 0]) for _ in range(16)))

    return lookup, calls, stream, dense


def _timed(fn) -> float:
    t0 = perf_counter()
    fn()
    return perf_counter() - t0


def _serve() -> None:
    parts = _parts()

    def kernel():
        for part in parts:
            part()

    kernel()  # the first pass warms the caches
    for _ in sys.stdin:
        print(_timed(kernel), flush=True)


if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")
    if sys.argv[1:] == ["--serve"]:
        _serve()
        sys.exit(0)
    with Probe(min(os.sched_getaffinity(0))) as probe:
        times = [probe.pass_seconds() for _ in range(21)]
    print(f"pass     median {statistics.median(times):.4f} s, min {min(times):.4f}, "
          f"max {max(times):.4f} (REF_PASS_S = {REF_PASS_S})")
