"""Every function in `src/` is entered by a command the CLI runs, or is on
an allowlist that says why it is not.

A fixed list of CLI runs (the three index commands and the sweep on every
model family, the momentum-space oracle, both self-tests) is made in this
process under `sys.setprofile`, which records the code object of every
Python call. The functions, methods and properties that the `artifact`
modules define (read off the modules, so a new function is seen without
being named here) and none of the runs enters must be exactly the
allowlist below: a function no command reaches fails the test until it is
deleted or listed with its reason, and a listed one that a command now
reaches fails it until it leaves the list."""
import importlib
import inspect
import json
import sys

import pytest

from artifact import cli
from artifact.models import FAMILIES

MODULES = ("_util", "cli", "geometry", "invariants", "models", "quasifree", "symgen")

_ACCEPTANCE = "imported by test_acceptance.py or its fixtures"
_PERFBENCH = "read by perfbench/"
_BRANCH = "a branch no CLI family reaches"
_ERROR = "an error path"

#: (module, qualified name) -> why no CLI run enters it
ALLOWED = {
    ("__init__", "__dir__"): "dir(artifact), for interactive use",
    ("__init__", "__getattr__"): "`from artifact import <name>`, as test_acceptance.py and "
                                 "perfbench/ import; the CLI imports its modules directly",
    # the flux construction of criteria 5 and 6
    ("invariants", "_anchored_trace"): _ACCEPTANCE,
    ("invariants", "_check_pair"): _ACCEPTANCE,
    ("invariants", "hall_sigma_with_residual"): _ACCEPTANCE,
    ("invariants", "_log_series"): _ACCEPTANCE,
    ("invariants", "_times"): _ACCEPTANCE,
    ("invariants", "_sector_commutator"): _ACCEPTANCE,
    ("invariants", "exchange_phase_bch"): _ACCEPTANCE,
    ("symgen", "lift_charge"): _ACCEPTANCE,
    ("symgen", "parity_charge"): _ACCEPTANCE,
    # the index wrappers and the rational predictions the criteria compare with
    ("invariants", "chern_number"): _ACCEPTANCE,
    ("invariants", "hall_sigma"): _ACCEPTANCE,
    ("invariants", "twist_statistics"): _ACCEPTANCE,
    ("invariants", "parity_indices"): _ACCEPTANCE,
    ("invariants", "predicted_free_fermion"): _ACCEPTANCE,
    ("invariants", "_unit_phase"): _ACCEPTANCE,
    ("invariants", "FreeFermionPrediction.sigma"): _ACCEPTANCE,
    ("invariants", "FreeFermionPrediction.theta_N"): _ACCEPTANCE,
    ("invariants", "FreeFermionPrediction.omega_N"): _ACCEPTANCE,
    ("invariants", "FreeFermionPrediction.z8"): _ACCEPTANCE,
    ("invariants", "cocycle_exponent"): _ACCEPTANCE,
    ("models", "QuadraticHamiltonian.matrix"): _PERFBENCH,
    ("quasifree", "BasisProjection.matrix"): _PERFBENCH,
    ("cli", "_map_in_workers"): _PERFBENCH + " (sweep --jobs 2)",
    ("invariants", "_log_near_identity"): _BRANCH + " (exchange_phase_bch's Cayley log, "
                                                    "for a commutator outside the series radius)",
    ("quasifree", "_canonical_basis"): _BRANCH + " (exact zero modes at the Fermi level)",
    ("quasifree", "_particle_hole_O"): "`BasisProjection.O`, both `.matrix` views and "
                                       "`flux_unitary` on a half",
    ("quasifree", "_eigenvalues_did_not_converge"): _ERROR,
}

RUNS = [
    *([command, "--config", family, "--radius", "6"]
      for family in FAMILIES for command in ("chern", "parity", "twist")),
    *(["sweep", "--config", family, "--radii", "4,6", "--jobs", "1"] for family in FAMILIES),
    *(["oracle-tknn", "--config", family] for family in FAMILIES),
    ["selftest", "wick", "--trials", "3"],
    ["selftest", "algebraic", "--trials", "3"],
]


def _defined():
    """{code object: (module, qualified name)} of every function, method and
    property getter that an artifact module defines, dataclass-generated
    methods (whose code is not in the module's file) left out."""
    names = {}
    for name in ("__init__",) + MODULES:
        module = importlib.import_module("artifact" if name == "__init__" else f"artifact.{name}")
        objects = [obj for obj in vars(module).values()
                   if getattr(obj, "__module__", None) == module.__name__]
        for cls in [obj for obj in objects if inspect.isclass(obj)]:
            for attr in vars(cls).values():
                objects.append(attr.fget if isinstance(attr, property)
                               else getattr(attr, "__func__", attr))
        for fn in objects:
            code = getattr(fn, "__code__", None)
            if inspect.isfunction(fn) and code.co_filename == module.__file__:
                names[code] = (name, fn.__qualname__)
    return names


@pytest.fixture(scope="module")
def entered(tmp_path_factory):
    """The code objects of every Python call the runs make."""
    configs = tmp_path_factory.mktemp("configs")
    for family in FAMILIES:
        (configs / family).write_text(json.dumps({"model": {"family": family}}))
    out = str(configs / "out")
    codes = set()

    def record(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(record)
    try:
        statuses = [cli.main([*(str(configs / a) if a in FAMILIES else a for a in argv),
                              *(["--out", out] if argv[0] != "selftest" else [])])
                    for argv in RUNS]
    finally:
        sys.setprofile(None)
    return statuses, codes


def test_the_runs_exit_as_documented(entered):
    # pip converges slowly (|nu - 1| is 0.12 at R = 8), so its parity run at
    # R = 6 cannot round nu and exits 3; trivial has no periodic oracle
    # (exit 2); every other run exits 0
    statuses, _ = entered
    assert statuses == [{("parity", "pip"): 3, ("oracle-tknn", "trivial"): 2}.get(
        (argv[0], argv[2]), 0) for argv in RUNS]


def test_the_functions_no_command_enters_are_the_allowlist(entered):
    _, codes = entered
    unentered = {name for code, name in _defined().items() if code not in codes}
    assert sorted(unentered - ALLOWED.keys()) == [], "reached by no command: delete or list"
    assert sorted(ALLOWED.keys() - unentered) == [], "listed but reached: unlist"
