"""Self-tests of the benchmark.

Run from the repository root with ``python3 -m pytest perfbench``.
They use a small workload, so the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402

SMALL = run.Workload("small", 300, 4, 200, "cli", 0.1)
SMALL_API = run.Workload("small_api", 300, 4, 200, "api", 0.1)


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_every_metric_with_its_unit():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", [SMALL, SMALL_API], ids=["cli", "api"])
def test_a_run_reports_every_metric(workload, trace):
    bench = run.Run(ROOT, workload, seed=3, seconds=2.0, trace=trace)
    try:
        bench.execute()
    finally:
        bench.procs.stop_all()
        shutil.rmtree(bench.work, ignore_errors=True)
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert not bench.errors
    assert bench.attempted == bench.ok > 0
    out = run.result(bench, units)
    assert out["correct"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == units
    assert not bench.procs.live


def _doctor(model: Path) -> None:
    """Shift the model's bias: decisions move and accuracy collapses."""
    lines = model.read_text().splitlines()
    lines = [
        f"rho {float(line.split()[1]) + 5.0!r}" if line.startswith("rho ") else line
        for line in lines
    ]
    model.write_text("\n".join(lines) + "\n")


def test_a_doctored_model_fails_the_correctness_checks():
    bench = run.Run(ROOT, SMALL, seed=4, seconds=2.0, trace=False)
    try:
        bench.generate()
        bench.train()
        assert not bench.errors
        bench.bodies, bench.expected = bench.request_pool()
        _doctor(bench.work / "model")
        bench.held_out_accuracy()
        assert any("accuracy" in e for e in bench.errors)
        server, port = bench.start_server()
        bench.fixed_phase(port)
        assert any("offline model" in e for e in bench.errors)
        assert bench.ok < bench.attempted
        assert not run.result(bench, {})["correct"]
    finally:
        bench.procs.stop_all()
        shutil.rmtree(bench.work, ignore_errors=True)


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_rbf_cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
