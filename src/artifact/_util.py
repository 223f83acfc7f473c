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


#: dim x dim float64 arrays ground_projection holds at its peak. On the real
#: path (quasifree._real_structure, which every A with pairing, a broken
#: charge structure or a near-zero cluster takes) that is the eigh:
#: S = A^T A, LAPACK's copy of it and its workspace (two arrays), and the
#: eigenvectors V. A itself is held as its row envelope blocks (0.16 of an
#: array at dim 1816, 0.11 at 3216), and S is summed from them (h.gram), so
#: no dense A is formed. After the eigh: V and F = G G^T, then F and O = A F
#: in V's buffer; the transposes of the tail run over tiles. Peak RSS above
#: the imported interpreter, model build included, measured 5.26 at dim
#: 1816 and 5.17 at dim 3216; tracemalloc, which does not see LAPACK's
#: buffers, measures 2.2 at dim 804 and 2.0 at dim 1816. The charge path
#: (quasifree._charge_structure, an A with no pairing) peaks in its complex
#: eigh of size dim/2 at about 2.5: H, LAPACK's copy and workspace (1.5)
#: and the eigenvectors U, each complex (dim/2)^2 array half a real one.
#: Its peak RSS, measured the same way, is 3.83 at dim 804, 2.88 at 1816
#: and 2.73 at 3216; tracemalloc measures 2.00 at all three (O, G, G^+ and
#: S). The estimate stays at the real path's 6, which any input can reach.
#: Tests pin the traced peaks of the projection (below 2.5 at dim 804), of
#: the charge path (below 2.1 at dim 804) and of the model build (0.56 at
#: dim 804) below it
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
