"""Shared fixtures. The expensive ground projections are session-scoped and
reused by the unit tests and the acceptance suite; each records its build
wall time so the acceptance runtime bounds can be asserted honestly."""
import gc
import time

import numpy as np
import pytest

from artifact import (build_disk_lattice, build_pip, build_qwz, build_trivial,
                      core_regions, cyclic_charge, dress_charge, ground_projection,
                      lift_charge, make_good_partition, stack_copies)


def _timed_projection(h, gap_tol):
    start = time.perf_counter()
    P = ground_projection(h, gap_tol)
    return P, time.perf_counter() - start


@pytest.fixture(scope="session")
def triv_r6():
    geom = build_disk_lattice("square", 6.0, majorana_count=2)
    part = make_good_partition(geom.apex)
    P, _ = _timed_projection(build_trivial(geom), 1e-8)
    return P, part


@pytest.fixture(scope="session")
def qwz_r16():
    geom = build_disk_lattice("square", 16.0, majorana_count=4)
    part = make_good_partition(geom.apex)
    h = build_qwz(1.0, geom)
    P, secs = _timed_projection(h, 1e-4)
    del h
    gc.collect()
    return P, part, secs


@pytest.fixture(scope="session")
def pip_r16():
    geom = build_disk_lattice("square", 16.0, majorana_count=2)
    part = make_good_partition(geom.apex)
    P, secs = _timed_projection(build_pip(-1.0, 0.5, geom), 1e-4)
    return P, part, secs


@pytest.fixture(scope="session")
def qwz_r6():
    geom = build_disk_lattice("square", 6.0, majorana_count=4)
    part = make_good_partition(geom.apex)
    P, _ = _timed_projection(build_qwz(1.0, geom), 1e-4)
    return P, part


@pytest.fixture(scope="session")
def qwz_stack3_r10():
    geom = build_disk_lattice("square", 10.0, majorana_count=4)
    part = make_good_partition(geom.apex)
    h = stack_copies(build_qwz(1.0, geom), 3)
    P, secs = _timed_projection(h, 1e-4)
    del h
    gc.collect()
    return P, part, secs


@pytest.fixture(scope="session")
def pip_stack3_r12():
    geom = build_disk_lattice("square", 12.0, majorana_count=2)
    part = make_good_partition(geom.apex)
    h = stack_copies(build_pip(-1.0, 0.5, geom), 3)
    P, secs = _timed_projection(h, 1e-4)
    del h
    gc.collect()
    return P, part, secs


@pytest.fixture(scope="session")
def pip_stack3_r6():
    """A fiber-1 stack: pip does not conserve charge, so it has no
    particle-hole half."""
    geom = build_disk_lattice("square", 6.0, majorana_count=2)
    P, _ = _timed_projection(stack_copies(build_pip(-1.0, 0.5, geom), 3), 1e-4)
    return P, make_good_partition(geom.apex)


@pytest.fixture(scope="session")
def qwz_stack3_r6_generators():
    """Small stack plus its dressed cyclic generators, for the exchange-phase
    cross-checks (several unitaries and logs per test keep this radius low)."""
    geom = build_disk_lattice("square", 6.0, majorana_count=4)
    part = make_good_partition(geom.apex)
    h = stack_copies(build_qwz(1.0, geom), 3)
    P, _ = _timed_projection(h, 1e-4)
    del h
    gc.collect()
    q = cyclic_charge(3)
    ids, sgeom = core_regions(P, part, 0.7)
    base = sgeom.with_majorana_count(sgeom.majorana_count // 3)
    g0 = dress_charge(P, lift_charge(q, base, ids[0]), ids[0])
    g1 = dress_charge(P, lift_charge(q, base, ids[1]), ids[1])
    return P, part, g0, g1
