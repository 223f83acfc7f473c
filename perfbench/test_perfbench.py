"""Tests of the benchmark itself: the correctness gate, the metric names
against BENCHMARK.json, a smoke configuration of every operation kind, and
the refusal to run without the program.

    python3 -m pytest perfbench -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads as wl  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

SMOKE_OPS = [wl.parity_op(4), wl.twist_op(4), wl.bch_op(4),
             wl.oracle_op("pip", -1.0, kgrid=50), wl.sweep_op("qwz", (4, 5))]


def _parity_output(nu, nu_rounded=2, z2=1, z8_arg=0.7853981633974483):
    import cmath
    z8 = cmath.exp(1j * z8_arg)
    return json.dumps({"indices": {"nu": nu, "nu_rounded": nu_rounded, "z2": z2,
                                   "z8": {"re": z8.real, "im": z8.imag, "arg": z8_arg}}})


def test_parity_check_accepts_reference_and_rejects_wrong_nu():
    problems, err = wl.check_parity(_parity_output(2.0 + 1e-7), 2)
    assert problems == [] and 0 < err < 1e-6
    problems, err = wl.check_parity(_parity_output(1.9, nu_rounded=2), 2)
    assert any("nu 1.9" in p for p in problems) and err == pytest.approx(0.1)
    problems, _ = wl.check_parity(_parity_output(2.0, z8_arg=0.9), 2)
    assert any("z8" in p for p in problems)


def test_oracle_check_rejects_wrong_value():
    text = json.dumps({"oracle": {"chern": 1}})
    assert wl.check_oracle(text, 1) == ([], 0.0)
    problems, err = wl.check_oracle(text, -1)
    assert problems and err == 2.0


def test_sweep_check_rejects_error_row_and_unconverged_radius():
    header = "radius,nu,sigma,err_nu,wall_ms\n"
    good = header + "4,1.97,0.98,0.03,10\n5,1.995,0.9975,0.005,12\n"
    assert wl.check_sweep(good, (4, 5), 2)[0] == []
    error_row = header + "4,1.97,0.98,0.03,10\n5,ERROR: gapless,,,12\n"
    assert wl.check_sweep(error_row, (4, 5), 2)[0]
    far = header + "4,1.97,0.98,0.03,10\n5,1.9,0.95,0.1,12\n"
    assert wl.check_sweep(far, (4, 5), 2)[0]


def test_nonzero_exit_is_a_failure(tmp_path):
    bad = wl.Op("parity-r2", "cli", ("parity", "--radius", "2"),
                lambda text: wl.check_parity(text, 2))
    out = run.timed_run([bad], run.Runner(0, tmp_path), seconds=0, probes=1)
    (result,) = out["results"]
    assert result.returncode == 2
    assert result.problems and "exit code 2" in result.problems[0]


def test_workloads_are_seeded_permutations():
    for name in wl.WORKLOADS:
        a, b = wl.workload_ops(name, 3), wl.workload_ops(name, 3)
        assert [op.name for op in a] == [op.name for op in b]
        assert sorted(op.name for op in a) == sorted(op.name for op in wl.WORKLOADS[name]())


def test_smoke_metrics_match_benchmark_json(tmp_path):
    timed = run.timed_run(SMOKE_OPS, run.Runner(1, tmp_path), seconds=0, probes=1)
    assert [r.problems for r in timed["results"]] == [[]] * len(SMOKE_OPS)
    assert set(timed["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(value > 0 for value, _ in timed["metrics"].values())

    traced = run.traced_run(SMOKE_OPS, run.Runner(1, tmp_path))
    assert all(not r.problems for r in traced["results"])
    assert set(traced["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    for name, (_, unit) in {**timed["metrics"], **traced["metrics"]}.items():
        assert units[name] == unit, name
    metrics = traced["metrics"]
    assert metrics["invariants.chern_number_calls"][0] == 4  # parity twice, each sweep row once
    assert metrics["quasifree.ground_projection_calls"][0] == 5
    assert metrics["cli.sweep_jobs2_wall_s"][0] > 0
    spans = traced["spans"]
    assert {s["name"] for s in spans} >= {"quasifree.ground_projection", "cli.compute_report"}
    assert all(s["end"] >= s["start"] for s in spans)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "disk_parity",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
