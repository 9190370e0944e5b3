"""Shared helpers of the benchmark: timing, counting checks, host record."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import time
from pathlib import Path

#: The two workloads run the same pipeline on different inputs; only
#: these settings differ.
#:
#: * ``block_size`` is the eigensolver's: the top eigenvalue 2 of rmat_22's
#:   normalized Laplacian has multiplicity 5, which a single-vector
#:   Krylov-Schur cannot resolve (it returns 4 copies), so that workload
#:   solves with blocks of 4.
#: * ``kernel_s`` is the length of each round's spmv/spmm/solve phase. The
#:   host's speed drifts by about 15% over 10-30 s, so a figure is only
#:   steady if its samples are spread over the whole run. An HP partition
#:   of rmat_22 takes 12-16 s, so the hp workload fits two rounds in a run
#:   and gives each a long kernel phase; the gp workload's 2 s partitions
#:   leave room for six rounds, each with a short one.
FULL = {
    "gp": {"matrix": "hollywood-2009", "method": "gp", "p": 64, "block_size": 1,
           "kernel_s": 1.5, "serve_p": 16},
    "hp": {"matrix": "rmat_22", "method": "hp", "p": 64, "block_size": 4,
           "kernel_s": 6.0, "serve_p": 16},
}
#: Sizes of the operations of a round. The kernel phase repeats cycles of
#: ``spmv_calls`` spmv, ``spmm_calls`` spmm and one solve until ``kernel_s``
#: has passed, so spmv, spmm and solves sample the same stretch of time.
ROUND = {
    "spmv_calls": 100,
    "spmm_calls": 20,
    "checked_spmv": 4,
    "vector_pool": 32,
    "one_client_s": 0.5,
    "two_client_s": 1.0,
}
#: ``--small`` self-test mode: 512-row generator-built matrices, small p and
#: short rounds, so both workloads finish in seconds; it exercises the code
#: paths, its figures mean nothing.
SMALL = {name: dict(cfg, p=8, kernel_s=0.1, serve_p=4) for name, cfg in FULL.items()}
SMALL_ROUND = dict(ROUND, spmv_calls=20, spmm_calls=4, vector_pool=4,
                   one_client_s=0.1, two_client_s=0.2)


def load_matrix(name: str, small: bool):
    """A corpus matrix, or in small mode a tiny generator-built stand-in."""
    if not small:
        from repro.generators.corpus import load_corpus_matrix

        return load_corpus_matrix(name)
    from repro.generators import rmat

    return rmat(scale=9, edge_factor=4, seed=808 if name == "rmat_22" else 101)


def timed(fn, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank *q*-th percentile (0 < q < 100) of *values*."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) / 100))
    return float(ordered[rank - 1])


def peak_rss_mib() -> float:
    """Peak resident set of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checks:
    """Counts correctness checks: each one is an attempted operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        #: failures other than the known, documented fault
        self.unexpected = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str, known: bool = False) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.unexpected += not known
            if len(self.failures) < 20:
                self.failures.append(what)
        return bool(ok)


def host_record() -> dict:
    """Usable CPUs (affinity and cgroup quota), versions and BLAS threads."""
    import numpy
    import scipy

    quota = None
    cpu_max = Path("/sys/fs/cgroup/cpu.max")
    if cpu_max.exists():
        limit, period = cpu_max.read_text().split()[:2]
        quota = None if limit == "max" else int(limit) / int(period)
    return {
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cgroup_cpu_quota": quota,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "repro_threads": os.environ.get("REPRO_THREADS"),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def emit(obj: dict) -> None:
    print(json.dumps(obj), flush=True)
