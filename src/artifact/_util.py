"""Shared error types, the integer check and the memory guard."""
from __future__ import annotations

import operator


class ArtifactError(Exception):
    """Base class for all package errors."""


class ConfigError(ArtifactError):
    """Invalid configuration / usage (CLI exit code 2)."""


class ComputationError(ArtifactError):
    """A numerical contract was violated (CLI exit code 3)."""


def as_integer(value, name: str) -> int:
    """value as an int through operator.index, so numpy integers pass and
    2.5 or 3.0 is refused, never truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ComputationError(f"{name} must be an integer, not {value!r}") from None


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


#: dim x dim float64 arrays ground_projection holds at its peak. When A is
#: solved on itself (quasifree._real_structure; pip, or any A of one group
#: without the particle-hole half) that is the eigh: S = A^T A, LAPACK's
#: copy of it and its workspace (two arrays), and the eigenvectors V. A
#: itself is held as its row envelope blocks (0.16 of an array at dim 1816,
#: 0.11 at 3216), and S is summed from them (h.gram), so no dense A is
#: formed. After the eigh: V and F = G G^T, then F and O = A F in V's
#: buffer; the checks of the tail run over slabs of 256 rows. Peak RSS
#: above the imported interpreter, model build included, measured 5.26 at
#: dim 1816 and 5.17 at dim 3216; tracemalloc, which does not see LAPACK's
#: buffers, measures 2.0 at dim 804 and 1816. The particle-hole half
#: (every qwz disk) runs the same solver at dim/2, each of its arrays a
#: quarter of one here, reads A''s blocks from A's without a dense H or A',
#: and keeps the half's O' as the projection's factor: O is never
#: allocated. tracemalloc measures 0.71 at dim 804 and 0.56 at 1816; the
#: peak RSS, set by the eigh, measured 2.4 at dim 804, 1.64 at 1816 and
#: 1.45 at 3216. A block-diagonal A (trivial) holds the zeroed factor and
#: one diagonal group's arrays at a time: tracemalloc measures 1.09 at dim
#: 804 and 1.02 at 1816. The estimate stays at the solver's 6 at dim, which
#: any input can reach. Tests pin the traced peaks of the projection (below
#: 0.85 on the half and 1.15 on the groups, at dim 804) and of the model
#: build (0.56 at dim 804) below it
_WORKING_ARRAYS = 6


def check_memory(dim: int, arrays: int = _WORKING_ARRAYS, stage: str = "projection"):
    """Refuse a job whose stage at dimension dim, holding `arrays` float64
    dim x dim arrays at its peak, would not fit in available_memory(). The
    ground projection's estimate is checked before the model build and again
    in ground_projection."""
    need, avail = arrays * 8 * dim * dim, available_memory()
    if avail is not None and need > avail:
        raise ComputationError(f"{stage} needs ~{need / 1e9:.2g} GB, "
                               f"{avail / 1e9:.2g} GB available")
