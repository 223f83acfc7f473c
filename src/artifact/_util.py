"""Shared error types and small numeric helpers."""
from __future__ import annotations

import numpy as np


class ArtifactError(Exception):
    """Base class for all package errors."""


class ConfigError(ArtifactError):
    """Invalid configuration / usage (CLI exit code 2)."""


class ComputationError(ArtifactError):
    """A numerical contract was violated (CLI exit code 3)."""


def hermiticity_residual(M: np.ndarray) -> float:
    return float(np.max(np.abs(M - M.conj().T)))


def available_memory() -> int | None:
    """Bytes this process can still allocate: the kernel's MemAvailable, capped
    by the cgroup v2 limit when one is set; None when neither is readable."""
    avail = []
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    avail.append(int(line.split()[1]) * 1024)
    except (OSError, ValueError, IndexError):
        pass
    try:
        with open("/sys/fs/cgroup/memory.max", encoding="ascii") as fh:
            limit = fh.read().strip()
        with open("/sys/fs/cgroup/memory.current", encoding="ascii") as fh:
            used = int(fh.read())
        if limit != "max":
            avail.append(int(limit) - used)
    except (OSError, ValueError):
        pass
    return min(avail) if avail else None


#: dim x dim float64 arrays ground_projection holds at its peak, besides H:
#: A, A^T A, LAPACK's copy of it, its eigh workspace (two) and the
#: eigenvectors; the peak RSS measured at dim 1816 and 3216 is 6.2 to 6.4.
#: The model build stays below it (pinned by a tracemalloc test)
_WORKING_ARRAYS = 7


def check_memory(dim: int):
    """Refuse a job whose ground projection at dimension dim would not fit in
    available_memory(); checked before the model build and again in
    ground_projection."""
    need, avail = _WORKING_ARRAYS * 8 * dim * dim, available_memory()
    if avail is not None and need > avail:
        raise ComputationError(f"projection needs ~{need / 1e9:.2g} GB, "
                               f"{avail / 1e9:.2g} GB available")


def spectral_norm_estimate(M: np.ndarray, iters: int = 25, seed: int = 0) -> float:
    """Power-iteration estimate of the 2-norm, used to certify series convergence.

    Deterministic (fixed-seed start vector); returns a 1% overestimate so the
    caller errs on the safe side.
    """
    rng = np.random.default_rng(seed)
    v = rng.normal(size=M.shape[1]) + 1j * rng.normal(size=M.shape[1])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = M @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = M.conj().T @ (w / nw)
        nv = np.linalg.norm(v)
        if nv == 0.0:
            return 0.0
        v /= nv
    return 1.01 * float(np.linalg.norm(M @ v))
