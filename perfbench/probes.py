"""Measurements outside the job loop: host speed, set-up time, kernels,
thread scaling.

None of these run under the tracer.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

from workloads import CheckError

#: Stream domain for the kernel block, distinct from every program domain.
KERNEL_DOMAIN = 0xBE7C
KERNEL_METRICS = (
    "certify.sample_lp_ball.block_s",
    "threshold_map.f_closed.block_s",
    "threshold_map.f_equivariant.block_s",
    "threshold_map.distortion.block_s",
)


#: Median wall time of :func:`reference_seconds` on the host the benchmark
#: was tuned on (2 vCPUs of a shared Xeon host, Python 3.11.7, numpy 2.4.6).
REFERENCE_S = 0.0072

_REFERENCE_POINTS = [(i % 7 - 3, i % 5 - 2) for i in range(200)]
_REFERENCE_ARRAY = np.linspace(-1.0, 1.0, 64 * 16).reshape(64, 16)


def reference_seconds() -> float:
    """Wall time of one fixed pass of a host-speed reference kernel.

    The kernel uses no widim code. It mixes the three kinds of work the
    jobs do: an integer loop, tuple/dict/float work on small Python
    objects, and small numpy calls. A shared host runs everything 20-40%
    slower or faster for seconds at a time; timing this kernel next to
    each job measures how fast the host was just then (see ``scaled``).
    """
    start = time.perf_counter()
    total = 0
    for i in range(30000):
        total += i * i % 7
    acc, counts = 0.0, {}
    for k in range(15):
        for a, b in _REFERENCE_POINTS:
            key = (a + k, b - k)
            counts[key] = counts.get(key, 0) + 1
            acc += math.sqrt(abs(a * b) + 1.0) ** 0.5
        sorted(counts.items(), key=lambda kv: kv[1])
        counts.clear()
    for _ in range(300):
        acc += float(np.abs(_REFERENCE_ARRAY).sum(axis=1).max())
    return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference host speed.

    ``before`` and ``after`` are :func:`reference_seconds` measured just
    before and just after the timed work.
    """
    return seconds * REFERENCE_S / ((before + after) / 2)


def import_seconds(root) -> float:
    """Wall time of one fresh interpreter importing ``widim.cli``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import widim.cli"], env=env, cwd=root, check=True)
    return time.perf_counter() - start


def _median_time(fn, repeats: int):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), out


def kernel_block_times(seed: int, rows: int, repeats: int) -> dict:
    """Median times of the north-star kernels on one rows x 64 block, m=3.

    Raises :class:`CheckError` if the two map routes disagree in any bit.
    """
    from widim._streams import StreamFactory
    from widim.certify import sample_lp_ball
    from widim.threshold_map import distortion, f_closed, f_equivariant

    n, m, p, q = 64, 3, 1.0, 2.0

    def sample():
        factory = StreamFactory(seed, KERNEL_DOMAIN)
        return np.stack([sample_lp_ball(n, p, factory.generator(j)) for j in range(rows)])

    sample_s, X = _median_time(sample, repeats)
    closed_s, closed = _median_time(lambda: f_closed(X, m), repeats)
    equivariant_s, equivariant = _median_time(lambda: f_equivariant(X, m), repeats)
    distortion_s, _ = _median_time(lambda: distortion(X, m, q), repeats)
    if closed.tobytes() != equivariant.tobytes():
        raise CheckError("f_closed and f_equivariant differ on the kernel block")
    return dict(zip(KERNEL_METRICS, (sample_s, closed_s, equivariant_s, distortion_s)))


def workers2_ratio(run_job, job, repeats: int) -> float:
    """Median time at ``--workers 2`` over median time at ``--workers 1``.

    ``run_job(job, extra_argv)`` returns (seconds, output). Raises
    :class:`CheckError` if the two worker counts give different bytes.
    """
    times = {1: [], 2: []}
    reference = None
    for _ in range(repeats):
        for workers in (1, 2):
            seconds, raw = run_job(job, ("--workers", str(workers)))
            times[workers].append(seconds)
            reference = raw if reference is None else reference
            if raw != reference:
                raise CheckError(f"{job.name}: --workers {workers} changed the output")
    return statistics.median(times[2]) / statistics.median(times[1])


def machine_facts() -> dict:
    """Interpreter, numpy, CPU count, CPU model and cache sizes."""
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass

    def getconf(name):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True, check=True)
        except (OSError, subprocess.CalledProcessError):
            return None
        return int(out.stdout) if out.stdout.strip().isdigit() else None

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2_cache_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_cache_bytes": getconf("LEVEL3_CACHE_SIZE"),
    }
