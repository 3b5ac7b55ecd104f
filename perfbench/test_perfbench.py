"""Self-test of the benchmark at reduced size.

Run from the repository root with ``python3 -m pytest perfbench -q``.
It runs every workload through the real command at ``--scale small``,
checks the printed metric names against ``BENCHMARK.json``, and checks
the tracer: it restores every patched function, and the layers' self
times add up to the traced wall time.
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
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_command(cwd: Path, *args: str,
                script: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_small_run_is_correct_and_complete(workload, trace, tmp_path):
    # Run from tmp_path, so the span file lands there.
    done = run_command(tmp_path, "--workload", workload, "--seed", "5",
                       "--seconds", "0.1", "--trace", trace,
                       "--scale", "small")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        spans = tmp_path / ".perfbench" / f"spans-{workload}-5.jsonl"
        header = spans.read_text().splitlines()[0]
        assert json.loads(header)["kept"] > 0


def test_seed_fixes_every_input():
    a = workloads.ServingWorkload(11, workloads.SMALL)
    b = workloads.ServingWorkload(11, workloads.SMALL)
    c = workloads.ServingWorkload(12, workloads.SMALL)
    assert a.spec() == b.spec() and a.spec().seed != c.spec().seed
    for name in ("corpus", "sim", "serving"):
        assert workloads.derive(11, name) == workloads.derive(11, name)
        assert workloads.derive(11, name) != workloads.derive(12, name)


def _originals():
    return [getattr(tracing._resolve(owner), attr)
            for _, owner, attr in tracing.TARGETS]


def test_untraced_runs_after_a_traced_run_see_the_originals():
    before = _originals()
    workload = workloads.TransferWorkload(7, workloads.SMALL)
    workload.setup()
    layer_tracer = tracing.LayerTracer()
    with layer_tracer:
        assert all(now is not old for now, old in zip(_originals(), before))
        workload.run_pass(layer_tracer)
    assert all(now is old for now, old in zip(_originals(), before))
    calls = dict(layer_tracer.calls)
    workload.run_pass()
    assert layer_tracer.calls == calls


def test_layer_self_times_sum_to_traced_wall_time():
    workload = workloads.TransferWorkload(7, workloads.SMALL)
    workload.setup()
    layer_tracer = tracing.LayerTracer()
    with layer_tracer:
        done = workload.run_pass(layer_tracer)
    total = sum(layer_tracer.self_s.values())
    assert total == pytest.approx(layer_tracer.root_s, rel=1e-9)
    # Root spans sit inside the harness's own timing of each op.
    assert 0 < layer_tracer.root_s <= done.wall_s
    assert all(value >= 0 for value in layer_tracer.self_s.values())
    # Every kept span lies inside its parent.
    by_id = {span[0]: span for span in layer_tracer.spans}
    for _, _, start, end, parent, _ in layer_tracer.spans:
        if parent >= 0:
            outer = by_id[parent]
            assert outer[2] <= start <= end <= outer[3]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_command(tmp_path, "--workload", "transfer", "--seed", "1",
                       "--seconds", "1", "--trace", "0",
                       script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
