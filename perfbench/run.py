"""rieszmatch benchmark.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and metrics are listed in BENCHMARK.json and explained in
perfbench/README.md.  Each command runs in a fresh child interpreter that
imports rieszmatch from ./src; calls repeat, in a closed loop, until
``--seconds`` have passed.  Every report is checked.  The last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics from a
traced pass with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 7
MIN_CALLS = 2
DEADLINE_S = 170.0  # the whole run, set-up included, must end within 180 s
WORK_DIR = ROOT / ".perfbench-work"


class BenchmarkError(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _run(cmd: list[str], timeout: float, cwd: Path) -> subprocess.CompletedProcess:
    """Run cmd in its own process group; on timeout kill the group and wait for it."""
    proc = subprocess.Popen(
        cmd,
        cwd=cwd,
        env=_child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchmarkError(f"{cmd[1:3]} exceeded its {timeout:.0f} s budget") from None
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


class Runner:
    """Runs one workload's calls and keeps the count of attempts and failures."""

    def __init__(self, workload: wl.Workload, seed: int, sizes: wl.Sizes, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.workdir = WORK_DIR / workload.name
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.inputs = wl.make_inputs(workload.name, seed, self.workdir, sizes)
        self.reference = wl.load_reference(workload.name, seed, sizes)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def remaining(self) -> float:
        left = self.deadline - time.perf_counter()
        if left <= 0:
            raise BenchmarkError("the run passed its deadline")
        return left

    def setup_sample(self) -> float:
        """Seconds from spawning a fresh interpreter to rieszmatch.cli being imported."""
        code = "import time, rieszmatch.cli; print(repr(time.perf_counter()))"
        spawned = time.perf_counter()
        proc = _run([sys.executable, "-c", code], self.remaining(), self.workdir)
        if proc.returncode != 0:
            raise BenchmarkError(f"importing rieszmatch.cli failed:\n{proc.stderr}")
        return float(proc.stdout) - spawned

    def call(self, draw: int, jobs: int, trace: bool = False, memory: bool = False) -> dict | None:
        """One checked command on the draw-th input; None when it produced no timings."""
        self.attempted += 1
        index = self.attempted
        report = self.workdir / f"report-{index}.txt"
        argv = self.inputs.argv(draw)
        spec = {
            "argv": argv + ["--jobs", str(jobs)],
            "src": str(ROOT / "src"),
            "report": str(report),
            "trace": trace,
            "memory": memory,
            "spans": str(self.workdir / f"spans-{index}.jsonl"),
            "run_id": f"{self.workload.name}/seed{self.seed}/call{index}",
        }
        proc = _run([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                    self.remaining(), self.workdir)
        if proc.returncode != 0:
            self._fail(index, f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            return None
        result = json.loads(proc.stdout.splitlines()[-1])
        reference = self.reference if argv == self.inputs.args else None
        problems = wl.check_report(self.workload.name, report.read_text(), self.inputs, reference)
        if result["status"] != 0:
            problems.insert(0, f"rieszmatch exited {result['status']}")
        if problems:
            self._fail(index, "; ".join(problems[:5]))
        return result

    def _fail(self, index: int, why: str) -> None:
        self.failed += 1
        self.problems.append(f"call {index}: {why}")


def _median(values: list[float]) -> float:
    if not values:
        raise BenchmarkError("no call produced timings")
    return statistics.median(values)


def measure_end_to_end(runner: Runner, seconds: float) -> tuple[dict[str, float], str]:
    runner.setup_sample()  # warm the bytecode and page caches; not counted
    setup = [runner.setup_sample() for _ in range(SETUP_SAMPLES)]
    results = []
    started = time.perf_counter()
    while len(results) < MIN_CALLS or time.perf_counter() - started < seconds:
        result = runner.call(runner.attempted, runner.workload.jobs)
        if result is not None:
            results.append(result)
        elif runner.failed >= MIN_CALLS:
            break
    metrics = {
        name: _median([r[name] for r in results]) for name in ("wall_s", "cpu_s", "peak_rss_mb")
    }
    metrics["setup_s"] = statistics.median(setup)
    metrics["pass_ratio"] = 1.0 - runner.failed / runner.attempted
    walls = sorted(r["wall_s"] for r in results)
    note = (
        f"calls={len(results)} wall_s min={walls[0]:.4f} max={walls[-1]:.4f} "
        f"setup_s samples={SETUP_SAMPLES} min={min(setup):.4f} max={max(setup):.4f}"
    )
    return metrics, note


def measure_per_layer(runner: Runner, seconds: float) -> tuple[dict[str, float], str]:
    """Untraced and traced calls in turn on the first input, then one call tracing memory.

    Traced calls pass --jobs 1, because spans cannot leave pool workers.
    Each per-layer value is the lower median over the traced calls, so it is
    a value one call measured and counts stay whole numbers.
    """
    jobs = runner.workload.jobs
    plain, plain_one, traced = [], [], []
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        first = runner.call(0, jobs)
        second = first if jobs == 1 else runner.call(0, 1)
        third = runner.call(0, 1, trace=True)
        if None in (first, second, third):
            break
        plain.append(first)
        plain_one.append(second)
        traced.append(third)
    memory = runner.call(0, 1, trace=True, memory=True)
    if not traced or memory is None:
        raise BenchmarkError("a traced call failed: " + "; ".join(runner.problems))
    names = traced[0]["layers"].keys()
    metrics = {name: statistics.median_low(r["layers"][name] for r in traced) for name in names}
    metrics.update(memory["layers"])
    metrics["cli.pool.efficiency"] = statistics.median(
        r["cpu_s"] / (jobs * r["wall_s"]) for r in plain
    )
    metrics["trace.overhead_s"] = _median([r["wall_s"] for r in traced]) - _median(
        [r["wall_s"] for r in plain_one]
    )
    return metrics, f"cycles={len(traced)} spans written to {runner.workdir}"


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "pins": PINS,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: wl.Sizes = wl.FULL) -> dict:
    """Run one benchmark pass, print its summary lines, and return the result object."""
    catalogue = json.loads((ROOT / "BENCHMARK.json").read_text())
    if workload not in wl.WORKLOADS:
        raise BenchmarkError(f"unknown workload {workload!r}; choose from {sorted(wl.WORKLOADS)}")
    if not (ROOT / "src" / "rieszmatch" / "cli.py").is_file():
        raise BenchmarkError(f"no rieszmatch sources under {ROOT / 'src'}")
    runner = Runner(wl.WORKLOADS[workload], seed, sizes, time.perf_counter() + DEADLINE_S)
    measure = measure_per_layer if trace else measure_end_to_end
    values, note = measure(runner, seconds)
    wanted = catalogue["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"workload={workload} seed={seed} trace={int(trace)} {note}")
    print("env " + json.dumps(environment()))
    print("inputs " + json.dumps(runner.inputs.digests))
    for problem in runner.problems:
        print("failure " + problem)
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(f"fail_ratio {runner.failed / runner.attempted!r} ratio "
          f"({runner.failed} of {runner.attempted} commands)")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=wl.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
