"""Shared error types, the integer check, the memory guard, and the defaults
the CLI's config shares with the library."""
from __future__ import annotations

import math
import operator

#: the disk's apex (geometry.build_disk_lattice) and the partition's boundary
#: angles (geometry.make_good_partition), stated here so the CLI reads its
#: defaults without loading geometry
DEFAULT_APEX_OFFSET = (0.2371, 0.1129)
DEFAULT_BOUNDARY_ANGLES = (math.pi / 2, 7 * math.pi / 6, 11 * math.pi / 6)

#: the evaluation windows' share of the disk and the rounding tolerance of
#: nu (invariants), stated here for the same reason
DEFAULT_CORE_FRACTION = 0.7
DEFAULT_NU_ROUND_TOL = 0.1

#: the near-zero window of the ground projection (quasifree) and the
#: momentum grid of the tknn oracle (models), stated here for the same reason
DEFAULT_GAP_TOL = 1e-4
DEFAULT_KGRID = 200


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


#: n x n float64 arrays the structure solver (quasifree._real_structure)
#: holds at its peak for an A of size n, which it checks before its eigh:
#: S = A^T A, whose buffer then takes the eigenvectors V
#: (quasifree._eigh_in_place), LAPACK's copy of S and its workspace (two
#: arrays). After the eigh: V and F = G G^T, then F and O = A F in V's
#: buffer. A is held as its row envelope blocks, and S is summed from them.
#: Peak RSS above the imported interpreter, model build included, measured
#: 4.49 at n = 1816 and 4.20 at 3206 (pip, where the OpenBLAS buffer and A's
#: blocks weigh more arrays the smaller n is; 5.47 and 5.17 while the eigh
#: allocated V), and 5.14 at n = 908, 4.47 at 1608 and 4.18 at 3624 (the
#: qwz half, which a qwz build folds A's blocks into without holding them,
#: so only the OpenBLAS buffer weighs more the smaller n is; 5.65, 4.87 and
#: 4.42 on the same host while the build held A's blocks); tracemalloc,
#: which does not see LAPACK's buffers, measures 2.0 at n = 804 and 1816.
#: n is the size solved:
#: dim for pip, dim/2 for the particle-hole half (every qwz disk), each
#: group's size for a block-diagonal A (trivial), whose dim x dim factor is
#: checked as one array. That one array at dim is the least any path
#: holds, so the checks before the lattice and the build charge it alone
_WORKING_ARRAYS = 6


def check_memory(dim: int, arrays: int = _WORKING_ARRAYS, stage: str = "projection"):
    """Refuse a job whose stage at dimension dim, holding `arrays` float64
    dim x dim arrays at its peak, would not fit in available_memory(). The
    projection's need is checked by the structure solver at the size it
    decomposes; the checks before it charge one dim x dim array, the least
    any path holds (_WORKING_ARRAYS)."""
    need, avail = arrays * 8 * dim * dim, available_memory()
    if avail is not None and need > avail:
        raise ComputationError(f"{stage} needs ~{need / 1e9:.2g} GB, "
                               f"{avail / 1e9:.2g} GB available")
