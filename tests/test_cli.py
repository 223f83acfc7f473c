import ast
import csv
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from artifact.cli import main
from artifact.models import CONVENTION_TAG
from eigh_spy import spy_eighs


def _write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def trivial_cfg(tmp_path):
    return _write_cfg(tmp_path, "trivial.json",
                      {"model": {"family": "trivial"},
                       "geometry": {"radius": 5.0}})


# ---------------------------------------------------------------------------
# config handling


def test_unknown_top_level_key_rejected(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "bad.json", {"modle": {"family": "qwz"}})
    assert main(["chern", "--config", cfg]) == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("section, key", [("model", "famliy"), ("geometry", "apex"),
                                          ("numerics", "core_frac")])
def test_unknown_nested_key_rejected(tmp_path, capsys, section, key):
    cfg = _write_cfg(tmp_path, "typo.json", {section: {key: 0.5}})
    assert main(["chern", "--config", cfg]) == 2
    assert f"{section}.{key}" in capsys.readouterr().err


def test_unknown_keys_are_listed_together(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "typos.json", {"modle": {}, "numerics": {"core_frac": 0.5}})
    assert main(["chern", "--config", cfg]) == 2
    assert "unknown config keys: ['modle', 'numerics.core_frac']" in capsys.readouterr().err


def test_non_object_section_rejected(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "flat.json", {"numerics": 5})
    assert main(["chern", "--config", cfg]) == 2
    assert "'numerics' must be a JSON object" in capsys.readouterr().err


def test_missing_config_file(capsys):
    assert main(["chern", "--config", "/no/such/file.json"]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_malformed_config_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["chern", "--config", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_config_that_is_not_an_object_rejected(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "list.json", [{"model": {"family": "qwz"}}])
    assert main(["chern", "--config", cfg]) == 2
    assert "config must be a JSON object" in capsys.readouterr().err


def test_small_radius_rejected(capsys):
    assert main(["chern", "--radius", "3"]) == 2
    assert "radius" in capsys.readouterr().err


def test_even_copies_rejected(trivial_cfg, capsys):
    assert main(["twist", "--config", trivial_cfg, "--copies", "4"]) == 2
    assert "copies must be odd" in capsys.readouterr().err


@pytest.mark.parametrize("copies", ["0", "-1"])
def test_nonpositive_copies_rejected(trivial_cfg, capsys, copies):
    # -1 is odd: the refusal names positivity and the value
    assert main(["twist", "--config", trivial_cfg, "--copies", copies]) == 2
    assert f"copies must be odd and positive, not {copies}" in capsys.readouterr().err


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("command, payload, argv, key", [
    ("chern", {"geometry": {"apex_offset": [NAN, 0.1]}}, [], "geometry.apex_offset"),
    ("chern", None, ["--radius", "inf"], "geometry.radius"),
    ("oracle-tknn", {"model": {"family": "qwz", "u": NAN}}, [], "model.u"),
    ("oracle-tknn", {"model": {"family": "qwz", "u": INF}}, [], "model.u"),
    ("oracle-tknn", {"model": {"family": "pip", "mu": NAN}}, [], "model.mu"),
    ("oracle-tknn", {"numerics": {"kgrid": NAN}}, [], "numerics.kgrid"),
    ("chern", {"geometry": {"boundary_angles": 5}}, [], "geometry.boundary_angles"),
    ("chern", {"geometry": {"apex_offset": [1]}}, [], "geometry.apex_offset"),
    ("chern", {"numerics": {"core_fraction": "0.7"}}, [], "numerics.core_fraction"),
    ("chern", {"numerics": {"gap_tol": NAN}}, [], "numerics.gap_tol"),
    ("chern", {"numerics": {"gap_tol": None}}, [], "numerics.gap_tol"),
    ("chern", {"numerics": {"nu_round_tol": NAN}}, [], "numerics.nu_round_tol"),
    ("oracle-tknn", {"numerics": {"kgrid": 60.7}}, [], "numerics.kgrid"),
    ("oracle-tknn", {"model": {"u": True}}, [], "model.u"),
    ("sweep", None, ["--radii", "4,inf"], "geometry.radius"),
    ("chern", {"numerics": {"gap_tol": -1}}, [], "numerics.gap_tol"),
    ("parity", {"numerics": {"nu_round_tol": -1}}, [], "numerics.nu_round_tol"),
    ("chern", {"geometry": {"boundary_angles": [0, 0, 1]}}, [], "geometry.boundary_angles"),
    ("chern", {"numerics": {"core_fraction": 1.5}}, [], "numerics.core_fraction"),
    ("sweep", None, ["--radii", "4,x"], "radii must be numbers"),
], ids=["apex-nan", "radius-inf", "u-nan", "u-inf", "mu-nan", "kgrid-nan",
        "angles-scalar", "apex-short", "core-fraction-string", "gap-tol-nan",
        "gap-tol-null", "round-tol-nan", "kgrid-fractional", "u-bool", "sweep-radius-inf",
        "gap-tol-negative", "round-tol-negative", "angles-degenerate",
        "core-fraction-above-one", "sweep-radius-x"])
def test_bad_numbers_exit_two(tmp_path, capsys, command, payload, argv, key):
    if payload is not None:
        argv = ["--config", _write_cfg(tmp_path, "bad.json", payload)] + argv
    assert main([command] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err


@pytest.mark.parametrize("command, geometry, argv", [
    ("chern", {"gap_halfwidth": 0.15}, []),
    ("sweep", {"gap_halfwidth": -0.1}, ["--radii", "4,5"]),
    ("oracle-tknn", {"family": "square"}, []),
], ids=["halfwidth", "sweep-halfwidth", "oracle-family"])
def test_a_removed_key_exits_two(tmp_path, capsys, command, geometry, argv):
    # geometry.family and geometry.gap_halfwidth changed no number, so they
    # left the schema: every task refuses them, at their old defaults too
    cfg = _write_cfg(tmp_path, "old.json", {"geometry": geometry})
    assert main([command, "--config", cfg] + argv) == 2
    (key,) = geometry
    assert capsys.readouterr().err == f"config error: unknown config keys: ['geometry.{key}']\n"


@pytest.mark.parametrize("task", ["chern", "twist"])
@pytest.mark.parametrize("core_fraction, sizes", [(0.05, [1, 0, 0]), (1.0, [70, 65, 66])])
def test_a_core_window_that_cannot_carry_the_index_exits_three(tmp_path, capsys, task,
                                                               core_fraction, sizes):
    # qwz R=8 (201 sites): 0.05 leaves two cores empty and 1.0 takes every
    # site; either window reads nu = 0 (to 3e-15) whatever the projection
    cfg = _write_cfg(tmp_path, "cfg.json", {"numerics": {"core_fraction": core_fraction}})
    assert main([task, "--config", cfg]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"computation error: core_fraction {core_fraction} gives cores of "
                            f"{sizes} of 201 sites; an empty core or the whole disk reads 0\n")


@pytest.mark.parametrize("core_fraction, sizes", [(0.05, [1, 0, 0]), (1.0, [70, 65, 66])])
def test_a_core_window_is_refused_before_the_build(tmp_path, capsys, monkeypatch,
                                                   core_fraction, sizes):
    # the windows depend only on the lattice and the partition; a sweep
    # row that refuses one still reads ERROR
    from artifact import models

    def no_build(*args, **kwargs):
        raise AssertionError("the model was built before the core windows were checked")

    monkeypatch.setattr(models, "build_qwz", no_build)
    cfg = _write_cfg(tmp_path, "cfg.json", {"numerics": {"core_fraction": core_fraction}})
    message = (f"core_fraction {core_fraction} gives cores of {sizes} of 201 sites; "
               "an empty core or the whole disk reads 0")
    assert main(["chern", "--config", cfg]) == 3
    assert capsys.readouterr().err == f"computation error: {message}\n"
    assert main(["sweep", "--config", cfg, "--radii", "8,10"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    # the message's commas become semicolons, so both a CSV reader and a
    # plain split see the header's five fields on every row
    assert [len(row) for row in csv.reader(lines)] == [5, 5, 5]
    assert [len(line.split(",")) for line in lines] == [5, 5, 5]
    _, r8, r10 = lines
    assert r8.startswith(f"8,ERROR: {message.replace(',', ';')},,,")
    assert r10.startswith(f"10,ERROR: core_fraction {core_fraction} gives cores of ")


@pytest.mark.parametrize("payload, message", [
    ({"geometry": {"family": "hex"}}, "unknown config keys: ['geometry.family']"),
    ({"model": {"family": "hex"}}, "unknown model family 'hex'"),
    ({"model": {"family": ["qwz"]}}, "unknown model family ['qwz']"),
], ids=["lattice", "model", "model-list"])
def test_bad_family_is_a_config_error(tmp_path, capsys, payload, message):
    assert main(["chern", "--config", _write_cfg(tmp_path, "fam.json", payload)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err


def test_radius_flag_replaces_a_bad_file_value(tmp_path, capsys):
    # the flags are merged over the file before any value is checked
    cfg = _write_cfg(tmp_path, "inf.json", {"geometry": {"radius": INF}})
    assert main(["chern", "--config", cfg, "--radius", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["geometry"]["radius"] == 4.0


def test_file_of_the_defaults_changes_nothing(tmp_path, capsys):
    from artifact.cli import DEFAULT_CONFIG

    assert main(["chern"]) == 0
    plain = capsys.readouterr().out
    assert main(["chern", "--config", _write_cfg(tmp_path, "defaults.json", DEFAULT_CONFIG)]) == 0
    assert capsys.readouterr().out == plain


@pytest.mark.parametrize("argv", [
    ["chern", "--jobs", "2"], ["parity", "--jobs", "2"], ["twist", "--jobs", "2"],
    ["oracle-tknn", "--jobs", "2"], ["oracle-tknn", "--radius", "4"],
    ["sweep", "--radii", "4,5", "--radius", "8"],
    ["selftest", "wick", "--out", "f"], ["selftest", "wick", "--config", "c.json"],
    ["selftest", "wick", "--radius", "8"], ["selftest", "wick", "--jobs", "2"],
])
def test_flag_the_subcommand_does_not_read_exits_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# index runs


def test_trivial_chern_run(trivial_cfg, capsys):
    assert main(["chern", "--config", trivial_cfg]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["task"] == "chern"
    assert blob["convention"] == CONVENTION_TAG
    assert blob["config"]["model"]["family"] == "trivial"
    assert abs(blob["indices"]["nu"]) <= 1e-10
    assert blob["indices"]["nu_rounded"] == 0
    assert blob["indices"]["z2"] is None
    assert blob["indices"]["diagnostics"]["bulk_gap"] == 1.0


def test_run_is_byte_deterministic(trivial_cfg, capsys):
    assert main(["chern", "--config", trivial_cfg]) == 0
    first = capsys.readouterr().out
    assert main(["chern", "--config", trivial_cfg]) == 0
    assert capsys.readouterr().out == first


def test_out_flag_writes_file(trivial_cfg, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["chern", "--config", trivial_cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    blob = json.loads(out.read_text())
    assert blob["indices"]["nu_rounded"] == 0


def test_trivial_parity_run(trivial_cfg, capsys):
    assert main(["parity", "--config", trivial_cfg]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["indices"]["z2"] == 1
    assert abs(blob["indices"]["z8"]["re"] - 1.0) <= 1e-9
    assert abs(blob["indices"]["z8"]["im"]) <= 1e-9


def test_trivial_twist_run(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "twist.json",
                     {"model": {"family": "trivial"},
                      "geometry": {"radius": 4.0}, "copies": 3})
    assert main(["twist", "--config", cfg]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert abs(blob["indices"]["sigma"]) <= 1e-9
    assert abs(blob["indices"]["omega_N"]["re"] - 1.0) <= 1e-9
    assert blob["indices"]["nu"] is None
    assert blob["config"]["copies"] == 3


@pytest.mark.parametrize("argv", [["chern", "--radius", "6"], ["parity", "--radius", "6"],
                                  ["twist", "--copies", "3", "--radius", "4"]])
def test_report_evaluates_the_triple_traces_once(argv, capsys, monkeypatch):
    # every index of a report derives from one nu, i.e. one t_012 and one
    # t_021; the twist needs no lifted, dressed or traced flux generators
    from artifact import invariants, symgen
    calls = []
    triple_trace = invariants._triple_trace

    def counted(*args):
        calls.append(args)
        return triple_trace(*args)

    def oracle_only(*args, **kwargs):
        raise AssertionError("a report reached the flux-generator oracle")

    monkeypatch.setattr(invariants, "_triple_trace", counted)
    monkeypatch.setattr(symgen, "dress_charge", oracle_only)
    monkeypatch.setattr(symgen, "lift_charge", oracle_only)
    monkeypatch.setattr(invariants, "hall_sigma_with_residual", oracle_only)
    assert main(argv) == 0
    assert len(calls) == 2
    assert json.loads(capsys.readouterr().out)["indices"]["diagnostics"]["nu_residual"] <= 1e-12


def test_report_carries_projection_health(capsys):
    assert main(["chern", "--radius", "6"]) == 0
    diag = json.loads(capsys.readouterr().out)["indices"]["diagnostics"]
    assert diag["zero_modes"] == 0
    assert 1e-3 < diag["edge_gap"] < 1.0
    # qwz at u = 1: |E(k)| >= 1, with equality at k = (pi, 0), (0, pi), (pi, pi)
    assert diag["bulk_gap"] == pytest.approx(1.0, abs=1e-12)
    assert 0.0 <= diag["projection_residual"] <= 1e-12


def test_explicit_gap_tol_is_the_one_used(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "tol.json", {"model": {"family": "trivial"},
                                            "geometry": {"radius": 5.0},
                                            "numerics": {"gap_tol": 1e-3}})
    assert main(["chern", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["indices"]["diagnostics"]["gap_used"] == 1e-3


def test_oversize_job_exits_three(trivial_cfg, capsys, monkeypatch):
    from artifact import _util
    monkeypatch.setattr(_util, "available_memory", lambda: 2 * 10**5)
    assert main(["chern", "--config", trivial_cfg]) == 3
    assert re.search(r"projection needs ~\S+ GB, 0\.0002 GB available",
                     capsys.readouterr().err)


def test_stack_memory_guard_uses_block_dimension(capsys, monkeypatch):
    # qwz radius 4: block dim 204, solved as its particle-hole half at 102;
    # stack dim 612. The first budget lies between the half's estimate
    # 6 * 8 * 102^2 B (0.50 MB) and the least the stack would hold (one
    # 612^2 array, 3.0 MB); the second between the pre-build check's one
    # 204^2 array (0.33 MB) and the half's estimate
    import numpy as np
    from artifact import _util

    def no_stacked_operator(*args):
        raise AssertionError("the twist path built a Kronecker product")

    monkeypatch.setattr(np, "kron", no_stacked_operator)
    monkeypatch.setattr(_util, "available_memory", lambda: 10**6)
    assert main(["twist", "--copies", "3", "--radius", "4"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert abs(blob["indices"]["sigma"] - 2.0) <= 0.3
    monkeypatch.setattr(_util, "available_memory", lambda: 4 * 10**5)
    assert main(["twist", "--copies", "3", "--radius", "4"]) == 3
    half_need = _util._WORKING_ARRAYS * 8 * 102**2 / 1e9
    assert f"projection needs ~{half_need:.2g} GB, 0.0004 GB available" in capsys.readouterr().err


def test_oversize_job_refused_before_the_build(capsys, monkeypatch):
    # qwz radius 4: dim 204; the budget lies below the pre-build check's one
    # 204^2 array (0.33 MB) and above the pre-lattice check's one array at
    # the disk's lower bound of 136 (0.15 MB)
    from artifact import _util, models

    def no_build(*args):
        raise AssertionError("the model build ran before the memory guard")

    monkeypatch.setattr(models, "_real_space_blocks", no_build)
    monkeypatch.setattr(_util, "available_memory", lambda: 2.5 * 10**5)
    assert main(["chern", "--radius", "4"]) == 3
    need = 8 * 204**2 / 1e9
    assert f"projection needs ~{need:.2g} GB, 0.00025 GB available" in capsys.readouterr().err


@pytest.mark.parametrize("family, radius, n", [
    ("pip", 4, 102),      # solved on A, at dim 102
    ("qwz", 6, 224),      # the particle-hole half of dim 448
    ("trivial", 6, 128),  # the first of the groups [128, 96] of dim 224
])
def test_each_path_is_refused_at_its_solver_estimate(tmp_path, capsys, monkeypatch,
                                                     family, radius, n):
    # below the solver's estimate at the size n it decomposes, the job is
    # refused before any eigh; at the estimate it runs (every earlier check
    # charges less)
    from artifact import _util
    cfg = _write_cfg(tmp_path, "cfg.json", {"model": {"family": family}})
    argv = ["chern", "--config", cfg, "--radius", str(radius)]
    need = _util._WORKING_ARRAYS * 8 * n**2
    calls = spy_eighs(monkeypatch)
    monkeypatch.setattr(_util, "available_memory", lambda: need - 1)
    assert main(argv) == 3
    assert capsys.readouterr().err == (f"computation error: projection needs "
                                       f"~{need / 1e9:.2g} GB, {(need - 1) / 1e9:.2g} GB available\n")
    assert not calls
    monkeypatch.setattr(_util, "available_memory", lambda: need)
    assert main(argv) == 0
    assert calls


def test_the_early_checks_charge_no_more_than_the_solver(tmp_path, monkeypatch):
    # the pre-lattice (cli) and pre-build (models) checks are lower bounds
    # of the path each family takes, so they never refuse a job it can run
    from artifact import _util, cli, models, quasifree

    needs = []

    def spy(module):
        def check(dim, arrays=_util._WORKING_ARRAYS, stage="projection"):
            needs.append((module, arrays * 8 * dim * dim))
            return _util.check_memory(dim, arrays, stage)
        return check

    for module in (cli, models, quasifree):
        monkeypatch.setattr(module, "check_memory", spy(module))
    for family in ("qwz", "pip", "trivial"):
        cfg = _write_cfg(tmp_path, f"{family}.json", {"model": {"family": family}})
        for radius in ("4", "6", "8"):
            needs.clear()
            assert main(["chern", "--config", cfg, "--radius", radius]) == 0
            (lattice, pre_lattice), (build, pre_build), *solver = needs
            assert (lattice, build) == (cli, models)
            assert solver and {module for module, _ in solver} == {quasifree}
            assert pre_lattice <= pre_build <= max(need for _, need in solver)


@pytest.mark.parametrize("family", ["qwz", "trivial"])
def test_oversize_radius_refused_before_the_lattice(tmp_path, capsys, monkeypatch, family):
    # radius 10^6: the disk's lattice arrays alone would need terabytes
    import numpy as np
    from artifact import _util

    def no_lattice(*args, **kwargs):
        raise AssertionError("the lattice was built before the memory guard")

    monkeypatch.setattr(np, "meshgrid", no_lattice)
    monkeypatch.setattr(_util, "available_memory", lambda: 10**10)
    cfg = _write_cfg(tmp_path, "big.json", {"model": {"family": family}})
    assert main(["chern", "--config", cfg, "--radius", "1000000"]) == 3
    assert re.search(r"projection needs ~\S+ GB, 10 GB available", capsys.readouterr().err)
    assert main(["sweep", "--config", cfg, "--radii", "1000000,2000000"]) == 0
    _, rows = _parse_csv(capsys.readouterr().out)
    assert [row[1].split(" needs")[0] for row in rows] == ["ERROR: projection"] * 2


def _run_listing(code: str, roots=("scipy",)) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that then prints the modules it
    loaded under the packages `roots` to stderr and exits with the code's `rc`."""
    import artifact

    src = str(Path(artifact.__file__).resolve().parents[1])
    code += (f"print(sorted(m for m in sys.modules if m.split('.')[0] in {tuple(roots)!r}),"
             " file=sys.stderr)\n"
             "sys.exit(rc)\n")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)


#: CLI family -> (radius, nu_rounded) of a small converged chern run
CHERN_RUNS = {"qwz": ("6", 2), "pip": ("10", 1), "trivial": ("6", 0)}


@pytest.mark.parametrize("family", sorted(CHERN_RUNS))
def test_chern_run_leaves_scipy_unloaded(family, tmp_path):
    # scipy.linalg is imported only on the exact-zero branch of the
    # projection, and fractions (with decimal) only by the exact
    # predictions, so a plain run pays for neither start-up, whichever
    # reduction solves it: the particle-hole half (qwz), A itself (pip) or
    # its diagonal groups (trivial)
    radius, nu = CHERN_RUNS[family]
    cfg = _write_cfg(tmp_path, "cfg.json", {"model": {"family": family}})
    proc = _run_listing("import sys, artifact.cli\n"
                        f"rc = artifact.cli.main(['chern', '--config', {cfg!r}, "
                        f"'--radius', {radius!r}])\n", roots=("scipy", "fractions"))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["indices"]["nu_rounded"] == nu
    assert proc.stderr.strip() == "[]"


def test_chern_run_leaves_the_process_pool_unloaded():
    # multiprocessing and concurrent.futures serve only `sweep --jobs N > 1`
    proc = _run_listing("import sys, artifact.cli\n"
                        "rc = artifact.cli.main(['chern', '--radius', '6'])\n",
                        roots=("multiprocessing", "concurrent"))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["indices"]["nu_rounded"] == 2
    assert proc.stderr.strip() == "[]"


def test_far_flux_commutator_leaves_scipy_unloaded():
    # alpha 2.5 on the qwz radius-6 three-copy stack gives |C - I| = 0.63,
    # past the Mercator series: the general logarithm needs no scipy either
    proc = _run_listing(
        "import sys\n"
        "import artifact as a\n"
        "geom = a.build_disk_lattice('square', 6.0, majorana_count=4)\n"
        "part = a.make_good_partition(geom.apex)\n"
        "P = a.ground_projection(a.stack_copies(a.build_qwz(1.0, geom), 3), 1e-4)\n"
        "ids, sgeom = a.core_regions(P, part, 0.7)\n"
        "base = sgeom.with_majorana_count(sgeom.majorana_count // 3)\n"
        "g0, g1 = (a.dress_charge(P, a.lift_charge(a.cyclic_charge(3), base, ids[k]))\n"
        "          for k in (0, 1))\n"
        "print(a.exchange_phase_bch(P, g0, g1, 2.5, 2.5, part))\n"
        "rc = 0\n")
    assert proc.returncode == 0, proc.stderr
    assert abs(abs(complex(proc.stdout)) - 1.0) <= 1e-10
    assert proc.stderr.strip() == "[]"


def test_gapless_parameters_exit_three(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "gapless.json",
                     {"model": {"family": "qwz", "u": 2.0},
                      "geometry": {"radius": 4.0}})
    assert main(["chern", "--config", cfg]) == 3
    assert "gapless parameters" in capsys.readouterr().err


def test_an_unconverged_parity_names_nu_and_its_tolerance(tmp_path, capsys):
    # pip at the default radius 8 reads nu 0.877, 0.123 from 1: the refusal
    # says how far off nu is and what may converge it; R=12 converges
    cfg = _write_cfg(tmp_path, "pip.json", {"model": {"family": "pip"}})
    assert main(["parity", "--config", cfg]) == 3
    assert capsys.readouterr().err == (
        "computation error: unconverged: nu = 0.877089 is 0.123 from the nearest integer 1, "
        "not within nu_round_tol = 0.1; a larger geometry.radius or numerics.nu_round_tol "
        "may converge\n")
    assert main(["parity", "--config", cfg, "--radius", "12"]) == 0
    assert json.loads(capsys.readouterr().out)["indices"]["z2"] == -1


# ---------------------------------------------------------------------------
# momentum-space oracle


def test_oracle_tknn_qwz(capsys):
    assert main(["oracle-tknn"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["oracle"]["chern"] == 1
    assert blob["oracle"]["parameters"] == {"u": 1.0}


@pytest.mark.parametrize("geometry", [{"radius": 3.0}, {"boundary_angles": [0, 0, 1]}],
                         ids=["radius", "angles-degenerate"])
def test_oracle_tknn_ignores_the_disk_rules(tmp_path, capsys, geometry):
    # the momentum-space oracle builds no disk, so a geometry the disk tasks
    # refuse leaves it unchanged
    assert main(["oracle-tknn"]) == 0
    want = json.loads(capsys.readouterr().out)["oracle"]
    cfg = _write_cfg(tmp_path, "disk.json", {"geometry": geometry})
    assert main(["oracle-tknn", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["oracle"] == want


def test_oracle_tknn_rejects_trivial(trivial_cfg, capsys):
    assert main(["oracle-tknn", "--config", trivial_cfg]) == 2
    assert "no periodic oracle" in capsys.readouterr().err


def test_oracle_tknn_rejects_coarse_grid(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "coarse.json", {"numerics": {"kgrid": 10}})
    assert main(["oracle-tknn", "--config", cfg]) == 2
    assert "kgrid" in capsys.readouterr().err


def test_oversize_kgrid_refused_up_front(tmp_path, capsys, monkeypatch):
    from artifact import _util, models

    def no_bloch(*args):
        raise AssertionError("the Bloch grid was built before the memory guard")

    monkeypatch.setattr(models, "_bloch", no_bloch)
    monkeypatch.setattr(_util, "available_memory", lambda: 10**10)
    cfg = _write_cfg(tmp_path, "fine.json", {"numerics": {"kgrid": 1000000}})
    assert main(["oracle-tknn", "--config", cfg]) == 3
    need = models._TKNN_WORKING_ARRAYS * 8 * 1000000**2 / 1e9
    assert f"tknn oracle needs ~{need:.2g} GB, 10 GB available" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# radius sweep


def _parse_csv(text):
    lines = text.strip().split("\n")
    return lines[0], [line.split(",") for line in lines[1:]]


def test_sweep_rejects_single_radius(trivial_cfg, capsys):
    assert main(["sweep", "--config", trivial_cfg, "--radii", "8"]) == 2
    capsys.readouterr()


def test_sweep_rejects_unsorted_radii(trivial_cfg, capsys):
    assert main(["sweep", "--config", trivial_cfg, "--radii", "8,6"]) == 2
    assert main(["sweep", "--config", trivial_cfg, "--radii", "6,6"]) == 2
    assert main(["sweep", "--config", trivial_cfg, "--radii", "2,6"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_rejects_jobs_below_one(trivial_cfg, capsys, jobs):
    assert main(["sweep", "--config", trivial_cfg, "--radii", "4,5", "--jobs", jobs]) == 2
    assert "jobs must be >= 1" in capsys.readouterr().err


def test_sweep_radii_replace_the_file_radius(tmp_path, capsys):
    # each row's config, with the row's radius, is the one validated
    cfg = _write_cfg(tmp_path, "small.json",
                     {"model": {"family": "trivial"}, "geometry": {"radius": 3}})
    assert main(["sweep", "--config", cfg, "--radii", "4,5"]) == 0
    _, rows = _parse_csv(capsys.readouterr().out)
    assert [r[0] for r in rows] == ["4", "5"]


def test_trivial_sweep_csv(trivial_cfg, capsys):
    assert main(["sweep", "--config", trivial_cfg, "--radii", "4,5"]) == 0
    header, rows = _parse_csv(capsys.readouterr().out)
    assert header == "radius,nu,sigma,err_nu,wall_ms"
    assert [r[0] for r in rows] == ["4", "5"]
    for row in rows:
        assert abs(float(row[1])) <= 1e-10
        assert abs(float(row[2])) <= 1e-10
        assert float(row[3]) <= 1e-10
        assert int(row[4]) >= 0


def test_sweep_deterministic_except_wall_ms(trivial_cfg, capsys):
    assert main(["sweep", "--config", trivial_cfg, "--radii", "4,5"]) == 0
    first = capsys.readouterr().out
    assert main(["sweep", "--config", trivial_cfg, "--radii", "4,5"]) == 0
    second = capsys.readouterr().out
    strip = lambda text: [line.rsplit(",", 1)[0] for line in text.strip().split("\n")]
    assert strip(first) == strip(second)


def test_sweep_parallel_matches_serial(trivial_cfg, capsys):
    assert main(["sweep", "--config", trivial_cfg, "--radii", "4,5"]) == 0
    serial = capsys.readouterr().out
    assert main(["sweep", "--config", trivial_cfg, "--radii", "4,5",
                 "--jobs", "2"]) == 0
    parallel = capsys.readouterr().out
    strip = lambda text: [line.rsplit(",", 1)[0] for line in text.strip().split("\n")]
    assert strip(serial) == strip(parallel)


def test_sweep_workers_run_one_blas_thread(monkeypatch):
    import os
    from artifact.cli import _map_in_workers
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    seen = _map_in_workers(os.getenv, 2, ["OPENBLAS_NUM_THREADS"] * 3)
    assert seen == ["1", "1", "1"]
    assert os.environ["OPENBLAS_NUM_THREADS"] == "4"


def test_qwz_sweep_error_shrinks_with_radius(capsys):
    assert main(["sweep", "--radii", "6,8,10"]) == 0
    header, rows = _parse_csv(capsys.readouterr().out)
    errs = [float(r[3]) for r in rows]
    inversions = [(a, b) for a, b in zip(errs, errs[1:]) if b > a]
    assert len(inversions) <= 1
    for a, b in inversions:
        assert a <= 0.02 and b <= 0.02
    assert errs[-1] <= 1e-3
    nus = [float(r[1]) for r in rows]
    assert all(abs(nu - 2.0) <= 0.05 for nu in nus)
    # the sigma column is the parity-flux response, nu / 2 identically
    assert all(abs(float(r[2]) - float(r[1]) / 2) <= 1e-11 for r in rows)


# ---------------------------------------------------------------------------
# self-tests


def test_selftest_wick_passes(capsys):
    assert main(["selftest", "wick", "--trials", "5", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "pfaffian_vs_sum: 5/5 passed" in out
    assert "odd_moments: 5/5 passed" in out


def test_selftest_algebraic_passes(capsys):
    assert main(["selftest", "algebraic", "--trials", "3", "--seed", "11"]) == 0
    out = capsys.readouterr().out
    assert "dress_commutes: 3/3 passed" in out
    assert "flux_group_law: 3/3 passed" in out


def test_selftest_failure_exits_one_with_counterexample(capsys, monkeypatch):
    from artifact import quasifree

    monkeypatch.setattr(quasifree, "pfaffian_expectation", lambda S, vs: 1e3)
    assert main(["selftest", "wick", "--trials", "5", "--seed", "7"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    report = json.loads(captured.err)
    assert report["property"] == "pfaffian_vs_sum"
    assert report["counterexample"]["seed"] == 7
    assert report["counterexample"]["trial"] == 0
    assert report["counterexample"]["pfaffian"] == 1e3


def test_selftest_rejects_zero_trials(capsys):
    assert main(["selftest", "wick", "--trials", "0"]) == 2
    assert "trials" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# package exports and the modules each command loads


def _loaded(proc) -> set:
    """The module names `_run_listing` printed last on stderr."""
    return set(ast.literal_eval(proc.stderr.strip().splitlines()[-1]))


def test_bare_package_import_loads_no_submodule():
    proc = _run_listing("import sys, artifact\nrc = 0\n", roots=("artifact",))
    assert proc.returncode == 0, proc.stderr
    assert _loaded(proc) == {"artifact"}


def test_oracle_run_loads_neither_disk_nor_projection_nor_index_modules():
    # the momentum-space oracle builds no disk, so its process compiles only
    # the CLI, the models and the shared helpers
    proc = _run_listing("import sys, artifact.cli\n"
                        "rc = artifact.cli.main(['oracle-tknn'])\n", roots=("artifact",))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["oracle"]["chern"] == 1
    assert _loaded(proc) == {"artifact", "artifact._util", "artifact.cli", "artifact.models"}


@pytest.mark.parametrize("argv", [["chern", "--radius", "6"], ["parity", "--radius", "6"],
                                  ["twist", "--radius", "6"], ["sweep", "--radii", "4,5"]])
def test_index_run_loads_every_module_the_span_tracer_wraps(argv, monkeypatch):
    # perfbench's tracer looks each of these up in sys.modules once an
    # untraced run of the workload has loaded them
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    spans = importlib.import_module("spans")
    traced = {module for targets in spans.LAYERS.values() for module, _ in targets}
    proc = _run_listing(f"import sys, artifact.cli\nrc = artifact.cli.main({argv!r})\n",
                        roots=("artifact",))
    assert proc.returncode == 0, proc.stderr
    assert len(traced) == 6 and traced <= _loaded(proc)


def test_every_export_is_its_defining_modules_own_object():
    import artifact

    for name in artifact.__all__:
        if name == "__version__":
            continue
        module = importlib.import_module(f"artifact.{artifact._EXPORTS[name]}")
        value = getattr(artifact, name)
        assert value is getattr(module, name), name
        # the table names the module that defines it, not one that imports it
        assert getattr(value, "__module__", module.__name__) == module.__name__, name


def test_an_export_follows_a_rebinding_in_its_module(monkeypatch):
    import artifact
    from artifact import quasifree

    spy = object()
    monkeypatch.setattr(quasifree, "ground_projection", spy)
    assert artifact.ground_projection is spy


def test_package_dir_and_star_import_cover_every_export():
    import artifact

    assert set(artifact.__all__) <= set(dir(artifact))
    namespace = {}
    exec("from artifact import *", namespace)
    assert set(artifact.__all__) <= set(namespace)


def test_unknown_package_attribute_raises_naming_it():
    import artifact

    with pytest.raises(AttributeError, match="'no_such_name'"):
        artifact.no_such_name
