"""Self-test of the benchmark: every workload at a reduced size.

Checks that each declared end-to-end and per-layer metric is emitted
with its declared unit, that a wrong expected digest fails every
operation of the workload, that a hung workload process is killed with
its whole process tree, and that the benchmark refuses to run without
the program's sources.  Run with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
_spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SEED = 20090301

#: Operation labels of each workload's digests.
LABELS = {
    "cli-demo": ("result.json",),
    "paper-headline": ("sbqa", "capacity", "economic"),
    "federated-parallel": ("sbqa",),
    "serve-flash-crowd": ("final",),
}


#: Per-layer metrics that must be positive on each workload: the layers
#: the workload exists to measure.  A wrapper that never engaged reads 0.
ENGAGED = {
    "cli-demo": ("import.scipy_s", "core.mediations", "des.events", "metrics.samples"),
    "paper-headline": (
        "import.scipy_s", "core.mediations", "des.events", "metrics.samples",
        "system.departures",
    ),
    "federated-parallel": (
        "import.scipy_s", "core.mediations", "des.events", "metrics.samples",
        "federation.speedup", "federation.route_us",
    ),
    "serve-flash-crowd": (
        "import.scipy_s", "core.mediations", "des.events", "metrics.samples",
        "serve.ticks", "serve.submit_us",
    ),
}


@pytest.fixture
def small(monkeypatch):
    """The benchmark at reduced size, one sample per run, from ``ROOT``."""
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(bench, "SCALE", "small")
    monkeypatch.setattr(bench, "MIN_SAMPLES", 1)


def run_bench(workload: str, trace: int, capsys) -> dict:
    code = bench.main([
        "--workload", workload, "--seed", str(SEED), "--seconds", "0",
        "--trace", str(trace),
    ])
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace, section, small, capsys):
    result = run_bench(workload, trace, capsys)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace:
        idle = [name for name in ENGAGED[workload] if not result["metrics"][name]["value"] > 0]
        assert not idle, f"layers not measured on {workload}: {idle}"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_expected_digest_fails_every_operation(
    workload, tmp_path, small, capsys, monkeypatch
):
    expected = tmp_path / "expected.json"
    expected.write_text(json.dumps({
        workload: {
            "seed": SEED,
            "scale": "small",
            "operations": 1,
            "digests": {label: "0" * 64 for label in LABELS[workload]},
        }
    }))
    monkeypatch.setattr(bench, "EXPECTED_PATH", str(expected))
    result = run_bench(workload, 0, capsys)
    assert result["correct"] is False
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]


def test_hung_workload_is_killed_with_its_process_tree(tmp_path, monkeypatch):
    pid_file = tmp_path / "grandchild.pid"
    hang = tmp_path / "hang.py"
    hang.write_text(
        "import subprocess, sys, time\n"
        "p = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(600)'])\n"
        f"open({str(pid_file)!r}, 'w').write(str(p.pid))\n"
        "time.sleep(600)\n"
    )
    monkeypatch.setattr(bench, "CHILD_TIMEOUT_S", 3.0)
    runner = bench.Runner(ROOT, "cli-demo", str(hang), str(tmp_path))
    runner.child = str(hang)
    start = time.monotonic()
    with pytest.raises(bench.ChildFailed, match="timed out"):
        runner.spawn()
    assert time.monotonic() - start < 30
    grandchild = int(pid_file.read_text())
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline and _alive(grandchild):
        time.sleep(0.1)
    assert not _alive(grandchild)


def _alive(pid: int) -> bool:
    """True while ``pid`` runs (a zombie awaiting its reaper is dead)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-demo", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
