"""A spy on every eigh the package runs: np.linalg.eigh and the in-place
quasifree._eigh_in_place (which invariants imports by name), both still
run. Each call appends record(its input) to one list, before the in-place
eigh overwrites that input."""
import numpy as np

from artifact import invariants, quasifree


def spy_eighs(monkeypatch, record=lambda a: 1) -> list:
    calls = []

    def spied(eigh):
        def spy(a, *args, **kwargs):
            calls.append(record(a))
            return eigh(a, *args, **kwargs)
        return spy

    monkeypatch.setattr(np.linalg, "eigh", spied(np.linalg.eigh))
    in_place = spied(quasifree._eigh_in_place)
    monkeypatch.setattr(quasifree, "_eigh_in_place", in_place)
    monkeypatch.setattr(invariants, "_eigh_in_place", in_place)
    return calls
