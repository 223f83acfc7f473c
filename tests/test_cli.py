import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from artifact.cli import main
from artifact.models import CONVENTION_TAG


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


def test_missing_config_file(capsys):
    assert main(["chern", "--config", "/no/such/file.json"]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_malformed_config_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["chern", "--config", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_small_radius_rejected(capsys):
    assert main(["chern", "--radius", "3"]) == 2
    assert "radius" in capsys.readouterr().err


def test_even_copies_rejected(trivial_cfg, capsys):
    assert main(["twist", "--config", trivial_cfg, "--copies", "4"]) == 2
    assert "copies must be odd" in capsys.readouterr().err


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


def test_report_carries_projection_health(capsys):
    assert main(["chern", "--radius", "6"]) == 0
    diag = json.loads(capsys.readouterr().out)["indices"]["diagnostics"]
    assert diag["zero_modes"] == 0
    assert 1e-3 < diag["edge_gap"] < 1.0
    assert 0.0 <= diag["projection_residual"] <= 1e-12


def test_oversize_job_exits_three(trivial_cfg, capsys, monkeypatch):
    from artifact import _util
    monkeypatch.setattr(_util, "available_memory", lambda: 2 * 10**5)
    assert main(["chern", "--config", trivial_cfg]) == 3
    assert re.search(r"projection needs ~\S+ GB, 0\.0002 GB available",
                     capsys.readouterr().err)


def test_stack_memory_guard_uses_block_dimension(capsys, monkeypatch):
    # qwz radius 4: block dim 204, stack dim 612; the budget lies between
    # the block's estimate 7 * 8 * 204^2 B (2.3 MB) and the stack's (21 MB)
    import numpy as np
    from artifact import _util

    def no_stacked_operator(*args):
        raise AssertionError("the twist path built a Kronecker product")

    monkeypatch.setattr(np, "kron", no_stacked_operator)
    monkeypatch.setattr(_util, "available_memory", lambda: 5 * 10**6)
    assert main(["twist", "--copies", "3", "--radius", "4"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert abs(blob["indices"]["sigma"] - 2.0) <= 0.3
    monkeypatch.setattr(_util, "available_memory", lambda: 10**6)
    assert main(["twist", "--copies", "3", "--radius", "4"]) == 3
    block_need = 7 * 8 * 204**2 / 1e9
    assert f"projection needs ~{block_need:.2g} GB, 0.001 GB available" in capsys.readouterr().err


def test_oversize_job_refused_before_the_build(capsys, monkeypatch):
    # qwz radius 4: dim 204, estimate 7 * 8 * 204^2 B (2.3 MB) above the budget
    from artifact import _util, models

    def no_build(*args):
        raise AssertionError("the model build ran before the memory guard")

    monkeypatch.setattr(models, "_real_space_K", no_build)
    monkeypatch.setattr(_util, "available_memory", lambda: 10**6)
    assert main(["chern", "--radius", "4"]) == 3
    need = 7 * 8 * 204**2 / 1e9
    assert f"projection needs ~{need:.2g} GB, 0.001 GB available" in capsys.readouterr().err


def test_chern_run_leaves_scipy_unloaded():
    # scipy.linalg is imported only on the exact-zero and large-commutator
    # branches, so a plain run pays no scipy start-up
    import artifact

    src = str(Path(artifact.__file__).resolve().parents[1])
    code = ("import sys, artifact.cli\n"
            "rc = artifact.cli.main(['chern', '--radius', '6'])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), file=sys.stderr)\n"
            "sys.exit(rc)\n")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["indices"]["nu_rounded"] == 2
    assert proc.stderr.strip() == "[]"


def test_gapless_parameters_exit_three(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "gapless.json",
                     {"model": {"family": "qwz", "u": 2.0},
                      "geometry": {"radius": 4.0}})
    assert main(["chern", "--config", cfg]) == 3
    assert "gapless parameters" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# momentum-space oracle


def test_oracle_tknn_qwz(capsys):
    assert main(["oracle-tknn", "--radius", "4"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["oracle"]["chern"] == 1
    assert blob["oracle"]["parameters"] == {"u": 1.0}


def test_oracle_tknn_rejects_trivial(trivial_cfg, capsys):
    assert main(["oracle-tknn", "--config", trivial_cfg]) == 2
    assert "no periodic oracle" in capsys.readouterr().err


def test_oracle_tknn_rejects_coarse_grid(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "coarse.json", {"numerics": {"kgrid": 10}})
    assert main(["oracle-tknn", "--config", cfg]) == 2
    assert "kgrid" in capsys.readouterr().err


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


def test_selftest_rejects_zero_trials(capsys):
    assert main(["selftest", "wick", "--trials", "0"]) == 2
    assert "trials" in capsys.readouterr().err
