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
