"""Self-test of the benchmark at tiny input sizes.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads as wl  # noqa: E402

TINY = wl.Sizes(ate_n=400, sim_n=200, sim_reps=3, verify_instances=3, dre_n=200, dre_points=3)
CATALOGUE = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _few_setup_samples(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace, capsys):
    result = run.run(workload, seed=3, seconds=0.0, trace=trace, sizes=TINY)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in CATALOGUE["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    printed = capsys.readouterr().out.splitlines()
    for name, unit in wanted.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in printed)
    assert "fail_ratio 0.0 ratio (0 of" in "\n".join(printed)


def test_wrong_tau_counts_in_fail_ratio(monkeypatch, capsys):
    real_run = run._run

    def run_then_corrupt_tau(cmd, timeout, cwd):
        proc = real_run(cmd, timeout, cwd)
        if cmd[1].endswith("child.py"):
            report = Path(json.loads(cmd[2])["report"])
            lines = ["tau=2.0" if line.startswith("tau=") else line
                     for line in report.read_text().splitlines()]
            report.write_text("\n".join(lines) + "\n")
        return proc

    monkeypatch.setattr(run, "_run", run_then_corrupt_tau)
    result = run.run("ate-100k", seed=3, seconds=0.0, trace=False, sizes=TINY)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["pass_ratio"]["value"] == 0.0
    printed = capsys.readouterr().out
    assert f"fail_ratio 1.0 ratio ({result['failed']} of {result['attempted']}" in printed
    assert "|tau - 1| = 1 exceeds" in printed


@pytest.fixture
def workspace():
    path = run.WORK_DIR / "selftest"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path)


def test_inputs_follow_the_seed(workspace):
    digests = []
    for seed in (5, 5, 6):
        workdir = workspace / str(len(digests))
        workdir.mkdir()
        digests.append(wl.make_inputs("dre-indicator-2k", seed, workdir, TINY).digests)
    assert digests[0] == digests[1] != digests[2]


def test_refuses_to_run_without_sources(workspace):
    shutil.copy(run.ROOT / "BENCHMARK.json", workspace)
    shutil.copytree(BENCH, workspace / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=workspace, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
