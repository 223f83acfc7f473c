"""End-to-end and per-layer benchmark of the finite-disk index pipeline.

    python3 perfbench/run.py --workload disk_parity --seed 1 --seconds 20 --trace 0

With `--trace 0` every operation of the workload runs in its own process,
the way a user runs the `artifact` CLI, and the end-to-end metrics are
measured from outside (wall clock, child rusage). The workload is repeated
until `--seconds` have passed, so a run measures up to one repetition longer
than `--seconds`, and each metric is the median over repetitions. With
`--trace 1` the same
operations run in this process, once without and once with the span tracer
of `spans.py`, and the per-layer metrics come from the spans.

Output: the environment, one line per metric, and as the last line one JSON
object with the keys correct, attempted, failed and metrics. Exit code 0 when
every operation passed its check, 1 when one failed, 2 when the program's
sources are missing. See README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from spans import Tracer, layer_metrics
from workloads import WORKLOADS, bch_cross_check, with_jobs, workload_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "setup_s": "s", "index_err": "1"}


@dataclass
class OpResult:
    name: str
    returncode: int
    start: float
    end: float
    cpu: float = 0.0
    rss_mb: float = 0.0
    setup: float | None = None
    output: str | None = None
    log: str = ""
    problems: list = field(default_factory=list)
    index_err: float = 0.0

    def to_json(self) -> dict:
        return {"name": self.name, "returncode": self.returncode,
                "wall_s": self.end - self.start, "cpu_s": self.cpu, "rss_mb": self.rss_mb,
                "setup_s": self.setup, "problems": self.problems, "index_err": self.index_err}


class Runner:
    """Runs operations in child processes or in this process, inside one
    working directory that holds their config, output and log files."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self._count = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))

    def _files(self, name: str) -> tuple[Path, Path, Path]:
        self._count += 1
        base = str(self.workdir / f"{self._count:04d}-{name}")
        return Path(base + ".ready"), Path(base + ".out"), Path(base + ".log")

    def _config_path(self, op) -> Path | None:
        if op.config is None:
            return None
        path = self.workdir / f"{op.name}.config.json"
        if not path.exists():
            path.write_text(json.dumps(op.config), encoding="utf-8")
        return path

    def cli_argv(self, op, out: Path) -> list:
        argv = list(op.argv) + ["--seed", str(self.seed), "--out", str(out)]
        config = self._config_path(op)
        return argv + (["--config", str(config)] if config else [])

    def spawn(self, op) -> OpResult:
        """One operation in a child process."""
        ready, out, log = self._files(op.name)
        if op.kind == "cli":
            args = ["cli"] + self.cli_argv(op, out)
        else:
            args = ["bch", *op.argv, str(out)]
        return self._spawn(op.name, args, ready, out, log)

    def probe(self) -> OpResult:
        """A child that only imports the program and reports its environment."""
        ready, out, log = self._files("probe")
        return self._spawn("probe", ["probe", str(out)], ready, out, log)

    def _spawn(self, name: str, args: list, ready: Path, out: Path, log: Path) -> OpResult:
        """rusage comes from wait4, which includes the child's own reaped
        children (the sweep pool workers)."""
        cmd = [sys.executable, str(HERE / "child.py"), str(ready)] + args
        with open(log, "wb") as log_fh:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, env=self.env, stdout=log_fh, stderr=subprocess.STDOUT,
                                    cwd=self.workdir)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = OpResult(name, proc.returncode, start, end,
                          cpu=usage.ru_utime + usage.ru_stime, rss_mb=usage.ru_maxrss / 1024)
        if ready.exists():
            result.setup = float(ready.read_text()) - start
        return self._collect(result, out, log)

    def in_process(self, op, tracer=None) -> OpResult:
        """One operation through `artifact.cli.main` or the library, in this
        process; an exception is recorded as a failure of the operation."""
        import artifact.cli

        _, out, log = self._files(op.name)
        code, trace_text = 0, ""
        start = time.monotonic()
        try:
            with tracer.span(f"op:{op.name}") if tracer else nullcontext():
                if op.kind == "cli":
                    code = artifact.cli.main(self.cli_argv(op, out))
                else:
                    radius, alpha = (float(x) for x in op.argv)
                    out.write_text(json.dumps(bch_cross_check(radius, alpha)), encoding="utf-8")
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - a failing operation must not stop the run
            code, trace_text = 1, traceback.format_exc()
        end = time.monotonic()
        log.write_text(trace_text, encoding="utf-8")
        return self._collect(OpResult(op.name, code, start, end), out, log)

    @staticmethod
    def _collect(result: OpResult, out: Path, log: Path) -> OpResult:
        if out.exists():
            result.output = out.read_text(encoding="utf-8")
        result.log = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        return result


def check(op, result: OpResult) -> OpResult:
    """Fill in problems and index_err; a nonzero exit, missing output or an
    output the check cannot read is a failure."""
    if result.returncode != 0:
        result.problems = [f"exit code {result.returncode}: {result.log.strip()[-300:]}"]
    elif result.output is None:
        result.problems = ["no output"]
    else:
        try:
            result.problems, result.index_err = op.check(result.output)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            result.problems = [f"unreadable output: {exc!r}"]
    return result


def _run_ops(ops, run_one) -> list:
    """Run every operation, then check them all, so checking stays outside
    the measured interval."""
    results = [run_one(op) for op in ops]
    return [check(op, r) for op, r in zip(ops, results)]


def _wall(results: list) -> float:
    return results[-1].end - results[0].start


def timed_run(ops, runner: Runner, seconds: float, probes: int = SETUP_PROBES) -> dict:
    """End-to-end metrics with tracing off. Start-up probes run first, which
    also warms the page cache; setup_s is the median start-up of all children
    times the number of CLI invocations in one repetition."""
    probe_results = [runner.probe() for _ in range(probes)]
    reps = []
    start = time.monotonic()
    while not reps or time.monotonic() - start < seconds:
        reps.append(_run_ops(ops, runner.spawn))
    results = [r for rep in reps for r in rep]
    setups = [r.setup for r in probe_results + results if r.setup is not None]
    n_cli = sum(op.kind == "cli" for op in ops)
    metrics = {
        "wall_s": statistics.median(_wall(rep) for rep in reps),
        "cpu_s": statistics.median(sum(r.cpu for r in rep) for rep in reps),
        "peak_rss_mb": statistics.median(max(r.rss_mb for r in rep) for rep in reps),
        "setup_s": n_cli * statistics.median(setups) if setups else 0.0,
        # a check that cannot read a deviation (an ERROR row) reports inf
        "index_err": max((r.index_err for r in results if math.isfinite(r.index_err)),
                         default=0.0),
    }
    return {"metrics": {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
            "results": results, "probes": probe_results, "repetitions": len(reps)}


def traced_run(ops, runner: Runner) -> dict:
    """Per-layer metrics: the operations run in this process once untraced
    and once traced; the difference in wall time is the tracing overhead.
    Sweeps run with the workload's --jobs (1), so the layer times describe
    work, not contention; the --jobs 1 vs --jobs 2 gap of the longest sweep
    is measured separately in child processes, untraced."""
    probe = runner.probe()
    untraced = _run_ops(ops, runner.in_process)
    tracer = Tracer()
    tracer.install()
    try:
        traced = _run_ops(ops, lambda op: runner.in_process(op, tracer))
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer)
    metrics["trace.untraced_wall_s"] = (_wall(untraced), "s")
    metrics["trace.wall_s"] = (_wall(traced), "s")
    metrics["trace.overhead_s"] = (_wall(traced) - _wall(untraced), "s")
    results = untraced + traced
    # one sweep, the longest, keeps the traced run well inside its time limit
    sweeps = sorted((op for op in ops if op.argv[0] == "sweep"),
                    key=lambda op: (-op.argv[op.argv.index("--radii") + 1].count(","), op.name))
    for jobs in (1, 2):
        gap = _run_ops([with_jobs(op, jobs) for op in sweeps[:1]], runner.spawn)
        metrics[f"cli.sweep_jobs{jobs}_wall_s"] = (sum(r.end - r.start for r in gap), "s")
        results += gap
    return {"metrics": metrics, "results": results, "probes": [probe],
            "spans": tracer.to_json()}


def _git_commit() -> str | None:
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (ROOT / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def environment(probes: list) -> dict:
    env = {
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        "ram_gb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30,
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }
    for probe in probes:
        if probe.returncode == 0 and probe.output:
            env.update(json.loads(probe.output))
            break
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "artifact" / "cli.py").is_file():
        sys.stderr.write(f"program sources not found under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))

    ops = workload_ops(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        runner = Runner(args.seed, workdir)
        if args.trace:
            run = traced_run(ops, runner)
        else:
            run = timed_run(ops, runner, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = run["results"]
    failed = [r for r in results if r.problems]
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment(run["probes"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run["metrics"].items()},
        "operations": [r.to_json() for r in results],
    }
    if "spans" in run:
        record["spans"] = run["spans"]
    else:
        record["repetitions"] = run["repetitions"]
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for r in failed:
        print(f"FAILED {r.name}: {'; '.join(r.problems)}")
    for name, (value, unit) in run["metrics"].items():
        print(f"{name:32s} {value:.6g} {unit}")
    print(f"{'failed_frac':32s} {len(failed) / len(results):.6g} 1")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": record["metrics"],
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
