"""Command-line interface: config ingestion, runs, sweeps, self-tests.

Subcommands, and the flags each reads (any other flag exits 2)
--------------------------------------------------------------
chern | parity | twist   index computations on a fresh disk model
                         (--config --out --seed --radius; twist also --copies)
oracle-tknn              momentum-space integer oracle for the same model
                         (--config --out --seed)
sweep                    one full run per radius, CSV output
                         (--config --out --seed --radii --jobs)
selftest                 randomized property suites, wick | algebraic
                         (--trials --seed)

The config file is merged over DEFAULT_CONFIG and the flags over that, by
one merge that refuses unknown keys, before the config is validated. The
model families come from models.FAMILIES.

Exit codes: 0 ok, 1 selftest failure, 2 usage/config error, 3 computation
error. An --out path in a missing directory, or one that is a directory,
exits 2 before anything is computed. Reports are JSON with sorted keys;
identical config and seed give byte-identical output (the sweep CSV's
wall_ms column is the documented exception). This module alone knows the
report format: compute_report returns the `indices` section exactly as it
is printed.

At load this module imports only `models`, `_util` and the standard library;
each command imports the modules it runs where it runs them (geometry for
the disk and its partition, quasifree and invariants for the indices,
quasifree and symgen for the self-tests), so `oracle-tknn` compiles none of
them. Sweep workers call `_sweep_row` directly, so no import may be left to
`main`.
"""
from __future__ import annotations

import argparse
import copy
import errno
import json
import math
import os
import stat
import sys
import time

import numpy as np

from . import models
from ._util import (DEFAULT_APEX_OFFSET, DEFAULT_BOUNDARY_ANGLES, DEFAULT_CORE_FRACTION,
                    DEFAULT_GAP_TOL, DEFAULT_KGRID, DEFAULT_NU_ROUND_TOL, ArtifactError,
                    ComputationError, ConfigError, check_memory)
from .models import CONVENTION_TAG, FAMILIES, stack_copies, tknn_chern

DEFAULT_CONFIG = {
    "model": {"family": "qwz", "u": 1.0, "mu": -1.0, "delta": 0.5},
    "geometry": {
        "radius": 8.0,
        "apex_offset": list(DEFAULT_APEX_OFFSET),
        "boundary_angles": list(DEFAULT_BOUNDARY_ANGLES),
    },
    "numerics": {
        "gap_tol": DEFAULT_GAP_TOL,
        "core_fraction": DEFAULT_CORE_FRACTION,
        "nu_round_tol": DEFAULT_NU_ROUND_TOL,
        "kgrid": DEFAULT_KGRID,
    },
    "copies": 3,
    "seed": 42,
}


def _merge(base: dict, override: dict, prefix: str = "", unknown: list | None = None) -> dict:
    """A deep copy of `base` with `override` merged in, `base` giving the
    schema: a key it lacks is refused (all such keys at once, dotted), and
    so is a value that is not an object where `base` has a section."""
    out = copy.deepcopy(base)
    found = [] if unknown is None else unknown
    for key, value in override.items():
        name = prefix + key
        if key not in base:
            found.append(name)
        elif isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config section {name!r} must be a JSON object")
            out[key] = _merge(base[key], value, f"{name}.", found)
        else:
            out[key] = copy.deepcopy(value)
    if unknown is None and found:
        raise ConfigError(f"unknown config keys: {sorted(found)}")
    return out


def load_config(path: str | None) -> dict:
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            user = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(user, dict):
        raise ConfigError("config must be a JSON object")
    return _merge(DEFAULT_CONFIG, user)


def _is_number(value) -> bool:
    """A finite real number: an int or a finite float, not a bool or a string."""
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or (isinstance(value, float) and math.isfinite(value))


def _check_numbers(cfg: dict, defaults: dict, prefix: str = ""):
    """Refuse a numeric setting that is not a finite real number, reading the
    schema off the defaults: where the default is a number the value must be
    one, an int where the default is an int; where it is a list of numbers
    the value must list as many."""
    for key, default in defaults.items():
        name, value = prefix + key, cfg[key]
        if isinstance(default, dict):
            _check_numbers(value, default, f"{name}.")
        elif isinstance(default, list):
            if not (isinstance(value, list) and len(value) == len(default)
                    and all(_is_number(v) for v in value)):
                raise ConfigError(f"{name} must list {len(default)} finite numbers")
        elif _is_number(default):
            if not _is_number(value):
                raise ConfigError(f"{name} must be a finite number, not {value!r}")
            if isinstance(default, int) and not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, not {value!r}")


def validate_config(cfg: dict, task: str):
    _check_numbers(cfg, DEFAULT_CONFIG)
    family = cfg["model"]["family"]
    if not isinstance(family, str) or family not in FAMILIES:
        raise ConfigError(f"unknown model family {family!r}")
    if task == "oracle-tknn":  # the momentum-space oracle builds no disk
        return
    if cfg["geometry"]["radius"] < 4:
        raise ConfigError("geometry.radius must be a number >= 4")
    try:
        build_partition(cfg)
    except ComputationError as exc:
        raise ConfigError(f"geometry.boundary_angles give a {exc}") from None
    cf = cfg["numerics"]["core_fraction"]
    if not 0.0 < cf <= 1.0:
        raise ConfigError("numerics.core_fraction must be in (0, 1]")
    for key in ("gap_tol", "nu_round_tol"):
        if cfg["numerics"][key] < 0:
            raise ConfigError(f"numerics.{key} must be >= 0")
    if task == "twist":
        copies = cfg["copies"]
        if copies < 1 or copies % 2 == 0:
            raise ConfigError(f"copies must be odd and positive, not {copies}")


def _model_parameters(cfg: dict) -> dict:
    return {key: float(cfg["model"][key]) for key in FAMILIES[cfg["model"]["family"]][1]}


def build_model(cfg: dict, copies: int = 1):
    from .geometry import build_disk_lattice
    from .invariants import _core_sites

    g = cfg["geometry"]
    family = cfg["model"]["family"]
    radius, majoranas = float(g["radius"]), FAMILIES[family][0]
    # the unit squares around the disk's sites cover the disk of radius
    # R - 1/sqrt(2), so it has at least that many sites: an oversize radius
    # is refused before any lattice array is allocated, on one array of that
    # dim, the least any projection path holds
    check_memory(int(np.pi * max(radius - 0.5**0.5, 0.0) ** 2) * majoranas, 1)
    geometry = build_disk_lattice("square", radius, tuple(g["apex_offset"]),
                                  majorana_count=majoranas)
    # windows that cannot carry the index are refused before the build
    _core_sites(build_partition(cfg), geometry, float(cfg["numerics"]["core_fraction"]))
    # looked up on every call, so a builder rebound in `models` is the one used
    build = getattr(models, f"build_{family}")
    return stack_copies(build(geometry=geometry, **_model_parameters(cfg)), copies)


def build_partition(cfg: dict):
    """The three cones around the disk's apex, which is the configured apex
    offset (build_disk_lattice)."""
    from .geometry import make_good_partition

    g = cfg["geometry"]
    return make_good_partition(tuple(g["apex_offset"]),
                               tuple(float(a) for a in g["boundary_angles"]))


def _phase(z: complex | None) -> dict | None:
    """A unit phase as the report writes it."""
    if z is None:
        return None
    return {"re": z.real, "im": z.imag, "arg": float(np.angle(z))}


def compute_report(cfg: dict, task: str) -> dict:
    """The `indices` section of the task's report, exactly as it is printed:
    the seven index keys, null where the task does not compute one, and the
    run's diagnostics."""
    from .invariants import chern_number_with_residual, parity_from_nu, round_nu, twist_from_nu
    from .quasifree import ground_projection

    copies = cfg["copies"] if task == "twist" else 1
    gap_tol = float(cfg["numerics"]["gap_tol"])
    h = build_model(cfg, copies=copies)
    partition = build_partition(cfg)
    P = ground_projection(h, gap_tol)
    cf = float(cfg["numerics"]["core_fraction"])
    nu, nu_res = chern_number_with_residual(P, partition, cf)
    report = dict.fromkeys(("nu", "nu_rounded", "sigma", "theta_N", "omega_N", "z2", "z8"))
    report["diagnostics"] = {
        "radius": float(cfg["geometry"]["radius"]),
        "copies": copies,
        "gap_used": gap_tol,
        "core_fraction": cf,
        "nu_residual": nu_res,
        "bulk_gap": h.bulk_gap,
        **P.health,  # edge_gap, zero_modes, projection_residual
    }
    nu_round_tol = float(cfg["numerics"]["nu_round_tol"])
    if task == "twist":
        sigma, theta_N, omega_N = twist_from_nu(nu, copies)
        report.update(sigma=sigma, theta_N=_phase(theta_N), omega_N=_phase(omega_N))
    else:
        report.update(nu=nu, nu_rounded=round_nu(nu, nu_round_tol))
    if task == "parity":
        z2, z8 = parity_from_nu(nu, nu_round_tol)
        report.update(z2=z2, z8=_phase(z8))
    return report


def _check_out(out_path: str | None):
    """Refuse, before anything is computed, an --out path that _write
    could not open: one whose directory is missing (or not a directory),
    or one that is a directory, with _write's message. The file itself is
    neither created nor truncated, so a run that fails later leaves none."""
    if not out_path:
        return
    try:
        if not stat.S_ISDIR(os.stat(os.path.dirname(out_path) or ".").st_mode):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
        if os.path.isdir(out_path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
    except OSError as exc:
        raise ConfigError(f"cannot write {out_path!r}: {exc.strerror or exc}") from None


def _write(text: str, out_path: str | None):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {out_path!r}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _report_text(task: str, cfg: dict, section: str, body: dict) -> str:
    payload = {"task": task, "convention": CONVENTION_TAG, "config": cfg, section: body}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def run(cfg: dict, task: str, out_path: str | None) -> int:
    validate_config(cfg, task)
    _write(_report_text(task, cfg, "indices", compute_report(cfg, task)), out_path)
    return 0


def run_oracle(cfg: dict, out_path: str | None) -> int:
    validate_config(cfg, "oracle-tknn")
    family = cfg["model"]["family"]
    params = _model_parameters(cfg)
    kgrid = int(cfg["numerics"]["kgrid"])
    oracle = {"family": family, "parameters": params, "kgrid": kgrid,
              "chern": tknn_chern(family, params, kgrid)}
    _write(_report_text("oracle-tknn", cfg, "oracle", oracle), out_path)
    return 0


# ---------------------------------------------------------------------------
# radius sweep


def _sweep_row(row_cfg: dict):
    """One CSV row, at the config's radius; sigma is the parity-flux
    response, nu / 2 identically (see invariants.parity_indices)."""
    radius = row_cfg["geometry"]["radius"]
    start = time.perf_counter()
    try:
        nu = compute_report(row_cfg, "chern")["nu"]
        err_nu = abs(nu - round(nu))
        wall_ms = int(round(1000 * (time.perf_counter() - start)))
        return (radius, f"{nu:.12g}", f"{nu / 2:.12g}", f"{err_nu:.12g}", wall_ms)
    except ArtifactError as exc:
        wall_ms = int(round(1000 * (time.perf_counter() - start)))
        # the message's commas would split the row, so they become semicolons
        return (radius, "ERROR: " + str(exc).replace(",", ";"), "", "", wall_ms)


def _map_in_workers(fn, jobs: int, *iterables) -> list:
    """list(map(fn, *iterables)) over `jobs` worker processes, each with one
    BLAS thread: the workers already share the cores, and BLAS threads on
    top of them oversubscribe. OpenBLAS reads OPENBLAS_NUM_THREADS once, when
    numpy loads it, so the workers are spawned fresh with the variable in
    their environment; this process's own value is restored afterwards."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    saved = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        with ProcessPoolExecutor(max_workers=jobs,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            return list(pool.map(fn, *iterables))
    finally:
        if saved is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = saved


def sweep_radius(cfg: dict, radii, jobs: int, out_path: str | None) -> int:
    """One chern run per radius; each row's config (the config with that
    radius) is validated before any row runs."""
    if jobs < 1:
        raise ConfigError("jobs must be >= 1")
    if len(radii) < 2:
        raise ConfigError("sweep needs at least two radii")
    if sorted(radii) != list(radii) or len(set(radii)) != len(radii):
        raise ConfigError("radii must be strictly increasing")
    row_cfgs = [_merge(cfg, {"geometry": {"radius": r}}) for r in radii]
    for row_cfg in row_cfgs:
        validate_config(row_cfg, "sweep")
    if jobs > 1:
        rows = _map_in_workers(_sweep_row, jobs, row_cfgs)
    else:
        rows = [_sweep_row(row_cfg) for row_cfg in row_cfgs]
    lines = ["radius,nu,sigma,err_nu,wall_ms"]
    for radius, nu, sigma, err_nu, wall_ms in rows:
        lines.append(f"{radius:.12g},{nu},{sigma},{err_nu},{wall_ms}")
    _write("\n".join(lines) + "\n", out_path)
    return 0


# ---------------------------------------------------------------------------
# self-tests


def run_selftest(checks, seed: int, trials: int) -> int:
    """Run `trials` trials of a property suite. `checks(rng)` draws one
    trial's inputs from rng and yields (property, ok, detail) per property;
    the first failure is written to stderr as JSON, with its seed and trial
    added to the detail, and exits 1. Otherwise each property's pass count
    is printed."""
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    rng = np.random.default_rng(seed)
    passed = set()
    for trial in range(trials):
        for prop, ok, detail in checks(rng):
            if not ok:
                sys.stderr.write(json.dumps(
                    {"property": prop,
                     "counterexample": {"seed": seed, "trial": trial, **detail}},
                    sort_keys=True, default=str) + "\n")
                return 1
            passed.add(prop)
    for prop in sorted(passed):
        print(f"{prop}: {trials}/{trials} passed")
    return 0


def _wick_checks(rng):
    """Wick's theorem against the Pfaffian on a random covariance."""
    from .quasifree import pfaffian_expectation, random_covariance, wick_expectation

    dim = int(rng.choice([4, 6, 8, 10, 12]))
    S = random_covariance(dim, rng)
    n_vec = int(rng.choice([2, 4, 6, 8]))
    vs = [rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
          for _ in range(n_vec)]
    w = wick_expectation(S, vs)
    p = pfaffian_expectation(S, vs)
    yield ("pfaffian_vs_sum", abs(w - p) <= 1e-10,
           {"dim": dim, "n_vectors": n_vec, "wick": w, "pfaffian": p})
    odd = wick_expectation(S, vs[:n_vec - 1])  # n_vec - 1 is odd
    yield "odd_moments", odd == 0, {"dim": dim, "value": odd}
    f, g = vs[0], vs[1]
    pair = f @ ((np.eye(dim) - 1j * S.O) / 2) @ g  # f^T P g with the dense P
    yield ("pair_formula", abs(wick_expectation(S, [f, g]) - pair) <= 1e-12,
           {"dim": dim})
    car = wick_expectation(S, [f, g]) + wick_expectation(S, [g, f]) - f @ g
    yield ("car_anticommutator", abs(car) <= 1e-12 * max(1.0, float(np.abs(f @ g))),
           {"dim": dim, "residual": abs(car)})


def _algebraic_checks(rng):
    """Dressing, flux and charge identities on a random covariance."""
    from .quasifree import random_covariance
    from .symgen import FluxGenerator, cyclic_charge, dress_charge, flux_unitary

    dim = int(rng.choice([8, 10, 12, 14, 16]))
    P = random_covariance(dim, rng)
    Pm = (np.eye(dim) - 1j * P.O) / 2
    T = np.eye(dim) - 2 * Pm
    mask = (rng.random(dim) < 0.5).astype(float)
    Pi = np.diag(mask)
    Qt = (Pi @ T + T @ Pi) / 2
    yield "parity_commutes", float(np.max(np.abs(Pm @ Qt - Qt @ Pm))) <= 1e-12, {}
    Q = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    Q = (Q + Q.conj().T) / 2
    g = dress_charge(P, FluxGenerator(Q))  # N = 1 on fiber 1: the factor is the generator
    yield ("dress_commutes",
           float(np.max(np.abs(Pm @ g.factor - g.factor @ Pm))) <= 1e-12, {})
    Qc = Pm @ Q @ Pm + (np.eye(dim) - Pm) @ Q @ (np.eye(dim) - Pm)
    Qc = (Qc + Qc.conj().T) / 2
    yield ("dress_fixed_point",
           float(np.max(np.abs(dress_charge(P, FluxGenerator(Qc)).factor - Qc))) <= 1e-12, {})
    a, b = rng.uniform(-1, 1, size=2)
    Uab = flux_unitary(g, a) @ flux_unitary(g, b)
    yield ("flux_group_law",
           float(np.max(np.abs(Uab - flux_unitary(g, a + b)))) <= 1e-10, {})
    N = int(rng.choice([1, 3, 5, 7]))
    ev = np.sort(np.linalg.eigvalsh(cyclic_charge(N)))
    want = np.arange(-(N - 1) // 2, (N - 1) // 2 + 1)
    yield "charge_spectrum", np.allclose(ev, want, atol=1e-10), {"N": N}


_SELFTESTS = {"wick": _wick_checks, "algebraic": _algebraic_checks}


# ---------------------------------------------------------------------------
# argument parsing


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="artifact",
                                description="finite-disk topological index laboratory")
    subs = p.add_subparsers(dest="command", required=True)
    for name, text in [("chern", "compute the chern indices"),
                       ("parity", "compute the parity indices"),
                       ("twist", "copy-cycling defect statistics on a stack"),
                       ("oracle-tknn", "momentum-space integer oracle"),
                       ("sweep", "radius convergence sweep (CSV)")]:
        sp = subs.add_parser(name, help=text)
        sp.add_argument("--config", default=None, help="JSON config file")
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        sp.add_argument("--seed", type=int, default=None, help="override the config's seed")
        if name == "sweep":
            sp.add_argument("--radii", default=None, help="comma-separated radii, increasing")
            sp.add_argument("--jobs", type=int, default=1, help="worker processes")
        elif name != "oracle-tknn":
            sp.add_argument("--radius", type=float, default=None, help="override geometry.radius")
        if name == "twist":
            sp.add_argument("--copies", type=int, default=None,
                            help="number of stacked copies (odd)")
    sp = subs.add_parser("selftest", help="randomized property suites")
    sp.add_argument("kind", choices=list(_SELFTESTS))
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=int, default=42, help="seed of the trials")
    return p


def _resolve(args) -> dict:
    """The config file merged over the defaults, then the flags merged over
    that by the same merge; the result is validated by the run."""
    flags = {}
    if getattr(args, "radius", None) is not None:
        flags["geometry"] = {"radius": float(args.radius)}
    if args.seed is not None:
        flags["seed"] = int(args.seed)
    if getattr(args, "copies", None) is not None:
        flags["copies"] = int(args.copies)
    return _merge(load_config(args.config), flags)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "selftest":
            return run_selftest(_SELFTESTS[args.kind], args.seed, args.trials)
        cfg = _resolve(args)
        _check_out(args.out)
        if args.command == "oracle-tknn":
            return run_oracle(cfg, args.out)
        if args.command == "sweep":
            try:
                radii = [float(r) for r in (args.radii or "").split(",") if r.strip()]
            except ValueError:
                raise ConfigError("radii must be numbers") from None
            return sweep_radius(cfg, radii, args.jobs, args.out)
        return run(cfg, args.command, args.out)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except ComputationError as exc:
        sys.stderr.write(f"computation error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
