"""In-memory span tracer that wraps the package's public functions from outside.

`Tracer.install` replaces each function listed in LAYERS by a wrapper in
every `artifact` module namespace that binds it (so `artifact.cli.twist_statistics`
is patched along with `artifact.invariants.twist_statistics`), and patches
methods on their class. A wrapper records a span (name, start, end, parent);
a call that re-enters the same layer (`chern_number` calling
`chern_number_with_residual`) records no second span, so `_calls` counts
evaluations. Per-layer self times and counts are derived from the spans
after the run.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

#: layer name -> (module, attribute) it wraps
LAYERS = {
    "geometry.build_disk_lattice": [("artifact.geometry", "build_disk_lattice")],
    "geometry.windowed_site_ids": [("artifact.geometry", "windowed_site_ids")],
    "models.build": [("artifact.models", "build_qwz"), ("artifact.models", "build_pip")],
    "models.stack_copies": [("artifact.models", "stack_copies")],
    "models.tknn_chern": [("artifact.models", "tknn_chern")],
    "quasifree.ground_projection": [("artifact.quasifree", "ground_projection")],
    "quasifree.validate": [("artifact.quasifree", "BasisProjection.validate")],
    "symgen.lift_charge": [("artifact.symgen", "lift_charge")],
    "symgen.dress_charge": [("artifact.symgen", "dress_charge")],
    "symgen.parity_charge": [("artifact.symgen", "parity_charge")],
    "symgen.flux_unitary": [("artifact.symgen", "flux_unitary")],
    "invariants.core_regions": [("artifact.invariants", "core_regions")],
    "invariants.chern_number": [("artifact.invariants", "chern_number"),
                                ("artifact.invariants", "chern_number_with_residual")],
    "invariants.hall_sigma": [("artifact.invariants", "hall_sigma"),
                              ("artifact.invariants", "hall_sigma_with_residual")],
    "invariants.parity_indices": [("artifact.invariants", "parity_indices")],
    "invariants.twist_statistics": [("artifact.invariants", "twist_statistics")],
    "invariants.exchange_phase_bch": [("artifact.invariants", "exchange_phase_bch")],
    "cli.compute_report": [("artifact.cli", "compute_report")],
    "cli.sweep_radius": [("artifact.cli", "sweep_radius")],
    "cli.run_oracle": [("artifact.cli", "run_oracle")],
}

#: layers whose self time is reported as `<layer>_s`
TIMED = [
    "quasifree.ground_projection", "quasifree.validate",
    "invariants.parity_indices", "invariants.chern_number", "geometry.windowed_site_ids",
    "invariants.twist_statistics", "invariants.hall_sigma", "symgen.dress_charge",
    "symgen.lift_charge", "models.stack_copies", "symgen.flux_unitary",
    "invariants.exchange_phase_bch", "models.build", "models.tknn_chern",
    "geometry.build_disk_lattice", "symgen.parity_charge",
    "cli.compute_report", "cli.sweep_radius", "cli.run_oracle",
]

#: layers whose span count is reported as `<layer>_calls`
COUNTED = [
    "quasifree.ground_projection", "invariants.chern_number", "invariants.core_regions",
    "symgen.dress_charge", "symgen.flux_unitary", "models.tknn_chern",
]


def _matrix_dim(result) -> int:
    return result.matrix.shape[0]


#: sizes read off results at layer boundaries:
#: name -> (layers, size of one result, how sizes combine, unit)
SIZES = {
    # dense complex P, 16 B per entry
    "quasifree.projection_mb": (("quasifree.ground_projection",),
                                lambda r: _matrix_dim(r) ** 2 * 16 / 2**20, max, "MB"),
    "models.dim_K": (("models.build", "models.stack_copies"), _matrix_dim, max, "count"),
    "geometry.sites": (("geometry.build_disk_lattice",), lambda r: len(r.sites), sum, "count"),
}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.sizes: dict[str, list] = defaultdict(list)
        self._open: list[int] = []
        self._patches: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        s = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(s)
        self._open.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def _wrap(self, name: str, fn):
        sizes = [(key, value) for key, (layers, value, _, _) in SIZES.items()
                 if name in layers]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._open and self.spans[self._open[-1]].name == name:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            for key, value in sizes:
                self.sizes[key].append(value(result))
            return result
        return wrapper

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "artifact" or n.startswith("artifact."))]
        for name, targets in LAYERS.items():
            for module_name, attr in targets:
                owner = sys.modules[module_name]
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                    self._patch(owner, attr, self._wrap(name, getattr(owner, attr)))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def to_json(self) -> list:
        return [asdict(s) for s in self.spans]


def layer_metrics(tracer: Tracer) -> dict:
    """`<layer>_s` self times, `<layer>_calls` counts and the SIZES, as
    name -> (value, unit). A span's self time is its duration minus its
    children's; spans are strictly nested on one thread, so children never
    overlap."""
    child_time = defaultdict(float)
    for s in tracer.spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    self_time = defaultdict(float)
    calls = Counter()
    for s in tracer.spans:
        self_time[s.name] += (s.end - s.start) - child_time[s.id]
        calls[s.name] += 1
    out = {f"{name}_s": (self_time[name], "s") for name in TIMED}
    out.update({f"{name}_calls": (calls[name], "count") for name in COUNTED})
    for key, (_, _, combine, unit) in SIZES.items():
        values = tracer.sizes[key]
        out[key] = (combine(values) if values else 0, unit)
    return out
