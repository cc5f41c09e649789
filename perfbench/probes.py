"""Environment block, machine triad, noise-round split and scaling probes.

Everything here is timed with in-process timers (``time.perf_counter``)
on the benchmark's own process; the shared VM the benchmark was written
on allows no machine-wide tracing or counters, so bandwidth figures are
bytes computed from array sizes divided by time, not measured traffic.
"""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

import corrnoise as cn
import corrnoise.blt_core as blt_core


def _median_time(fn, repeats, inner=1):
    """Median over ``repeats`` batches of the per-call time of ``fn``."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        samples.append((time.perf_counter() - t0) / inner)
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# environment


def _blas_threads():
    """OpenBLAS thread counts of the libraries loaded into this process."""
    found = {}
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return found
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                found[os.path.basename(path)] = int(fn())
                break
    return found


def _llc_bytes():
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = 0
    try:
        for idx in os.listdir(base):
            with open(os.path.join(base, idx, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(base, idx, "size")) as fh:
                size = fh.read().strip()
            mult = {"K": 1024, "M": 1024**2}.get(size[-1], 1)
            value = int(size.rstrip("KM")) * mult
            if level >= 3 and value > best:
                best = value
    except (OSError, ValueError):
        pass
    return best


def environment(seed, noise_m, noise_d):
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    llc = _llc_bytes()
    return [
        f"nproc={len(os.sched_getaffinity(0))}",
        f"python={platform.python_version()} numpy={np.__version__} scipy={scipy.__version__}",
        f"blas={blas.get('name')} {blas.get('version')} threads={_blas_threads() or 'unknown'}",
        f"CORRNOISE_THREADS={os.environ.get('CORRNOISE_THREADS')}",
        f"llc_mb={llc / 2**20:.1f} noise_buffers_mb={8 * noise_d * noise_m / 2**20:.1f} "
        f"noise_row_mb={8 * noise_m / 2**20:.1f}",
        f"workload_seed={seed}",
        "timers=in-process perf_counter only; this shared VM allows no machine-wide "
        "tracing, so no hardware counters or system-wide profiles back these numbers",
    ]


# ---------------------------------------------------------------------------
# memory bandwidth


def triad_gbs(m, repeats=5):
    """a = b + s*c on three m-element arrays; bytes computed as 24 m per triad."""
    b = np.ones(m)
    c = np.full(m, 2.0)
    a = np.empty(m)

    def triad():
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)

    triad()
    return 24.0 * m / _median_time(triad, repeats) / 1e9


def recurrence_bytes(d, m):
    """Least traffic of one round: read the row, read and write d x m buffers, write the output."""
    return 8.0 * m * (2 + 2 * d)


def noise_split(state, noise_std, seed, repeats=5):
    """(draw ms, recurrence ms) of one noise round, timed apart.

    The draw is the same Philox ``normal`` call a round makes; the
    recurrence is ``stream_mult_inverse`` with that row supplied.
    """
    m = state.buffers.shape[1]
    gen = np.random.Generator(np.random.Philox(seed))
    last = [None]

    def draw():
        last[0] = gen.normal(0.0, noise_std, size=m)

    draw_s = _median_time(draw, repeats)
    row = last[0]
    rec_s = _median_time(lambda: blt_core.stream_mult_inverse(state, row), repeats)
    return 1e3 * draw_s, 1e3 * rec_s


# ---------------------------------------------------------------------------
# scaling probes: ROADMAP baseline rows that no workload runs at their size


PROBE_THETA = np.array([0.999, 0.99, 0.9])
PROBE_THETA_HAT = np.array([0.995, 0.95, 0.5])  # interlaced, so omega > 0: finite loss


def scaling_probes(params, src_dir):
    """name -> value for the probe rows; names whose function is gone are skipped."""
    out = {}
    blt_loss = getattr(cn, "blt_loss", None)
    if blt_loss is not None:
        complex_theta = PROBE_THETA.astype(complex)
        complex_theta[0] += 1e-100j
        for n in (24, 2052, 20000):
            schema = cn.ParticipationSchema(n, n // 6, 6)
            inner = 20 if n < 20000 else 3
            if not np.isfinite(blt_loss(PROBE_THETA, PROBE_THETA_HAT, schema)):
                continue  # an infeasible point would time the early exit only
            for kind, theta in (("real", PROBE_THETA), ("complex", complex_theta)):
                out[f"probe.blt_loss.{kind}.n{n}_ms"] = 1e3 * _median_time(
                    lambda: blt_loss(theta, PROBE_THETA_HAT, schema), 5, inner
                )
    if hasattr(cn, "blt_mechanism_loss"):
        for n in (10_000, 100_000, 1_000_000):
            schema = cn.ParticipationSchema(n, n // 6, 6)
            out[f"probe.blt_mechanism_loss.n{n}_ms"] = 1e3 * _median_time(
                lambda: cn.blt_mechanism_loss(params, schema), 3
            )
    if hasattr(blt_core, "stream_mult_inverse"):
        m = 1_000_000
        state = cn.make_noise_generator(params, m=m, noise_std=1.0, seed=1)
        blt_core.stream_mult_inverse(state)
        row = np.ones(m)
        out["probe.stream_mult_inverse.m1000000_row_ms"] = 1e3 * _median_time(
            lambda: blt_core.stream_mult_inverse(state, row), 5
        )
        out["probe.stream_mult_inverse.m1000000_draw_ms"] = 1e3 * _median_time(
            lambda: blt_core.stream_mult_inverse(state), 5
        )
    out["probe.import_corrnoise_s"] = import_time(src_dir)
    return out


IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import corrnoise; "
    "print(time.perf_counter() - t)"
)


def import_time(src_dir, repeats=3):
    """Median seconds of ``import corrnoise`` in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=src_dir)
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_SNIPPET],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)
