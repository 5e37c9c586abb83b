"""Tests of the benchmark itself, on tiny versions of its workloads.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from trustsim import engine  # noqa: E402
from trustsim.cli import main as cli_main  # noqa: E402

TINY = {
    "desk": dataclasses.replace(run.WORKLOADS["desk"], cycles=3),
    "eventlog": dataclasses.replace(run.WORKLOADS["eventlog"], cycles=2),
    "churn": dataclasses.replace(run.WORKLOADS["churn"], cycles=2),
    "oracle": dataclasses.replace(
        run.WORKLOADS["oracle"], liar=(0.9, 329.0, 30, 1000), escape=(30, 0.9, 100, 1000)
    ),
}
SEED = 5


@pytest.fixture
def workdir(tmp_path):
    path = tmp_path / "work"
    path.mkdir()
    return path


def tiny_pins(name: str, workdir: Path) -> dict:
    pinned = run.pin(TINY[name], SEED, workdir)
    return {"rotation": [SEED], "held_out": 97, "workloads": {name: {str(SEED): pinned}}}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_prints_with_its_unit(name, trace, workdir, monkeypatch, capsys):
    pins_path = workdir / "pins.json"
    pins_path.write_text(json.dumps(tiny_pins(name, workdir)))
    monkeypatch.setitem(run.WORKLOADS, name, TINY[name])
    monkeypatch.setattr(run, "PINS_PATH", pins_path)

    args = ["--workload", name, "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)]
    assert run.main(args) == 0
    lines = capsys.readouterr().out.splitlines()

    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # The traced run also checks that tracing changed no output and that its
    # two traced units take the same counts.
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        assert any(line.split()[:1] == [metric["name"]] and metric["unit"] in line.split()
                   for line in lines[:-1])
    if not trace:
        assert result["metrics"]["wall_s"]["value"] > 0
        assert result["metrics"]["setup_s"]["value"] > 0


def test_one_byte_change_to_the_csv_fails_the_run(workdir, monkeypatch):
    expected = tiny_pins("desk", workdir)["workloads"]["desk"][str(SEED)]
    to_csv = engine.MetricsSeries.to_csv

    def one_byte_off(series):
        text = to_csv(series)
        return text[:-2] + chr(ord(text[-2]) ^ 1) + text[-1]

    monkeypatch.setattr(engine.MetricsSeries, "to_csv", one_byte_off)
    result = run.measure(TINY["desk"], SEED, 0, expected, workdir)
    assert result.attempted >= 1
    assert result.failed == result.attempted
    assert result.metrics["failed_share"] == 1.0


def test_counts_that_do_not_repeat_fail_the_traced_run(workdir, monkeypatch):
    expected = tiny_pins("desk", workdir)["workloads"]["desk"][str(SEED)]
    exact_counts = run.exact_counts

    def drifting(tracer, unit):
        counts = exact_counts(tracer, unit)
        if tracer.count_draws:
            counts["credits"] += 1
        return counts

    monkeypatch.setattr(run, "exact_counts", drifting)
    result = run.measure_traced(TINY["desk"], SEED, expected, workdir)
    assert (result.attempted, result.failed) == (3, 1)
    assert any("count credits" in problem for problem in result.problems)


def test_calibrated_clock_leaves_out_the_calibration_loop():
    with run.Calibrator() as cal:
        begin = cal.clock()
        for _ in range(50):
            cal.sample()
        took = cal.clock() - begin
    assert 0 < took < 0.1 * sum(cal.samples[-50:])


@pytest.mark.parametrize("name", ["desk", "eventlog", "churn"])
def test_benchmark_writes_what_the_cli_writes(name, workdir):
    config = run.write_config(TINY[name], SEED, workdir)
    unit = run.run_sim_unit(config)
    assert cli_main(["simulate", str(config)]) == 0
    assert run.sha256_file(workdir / "metrics.csv") == unit.outputs["metrics_sha256"]
    if TINY[name].trace_csv:
        assert run.sha256_file(workdir / "trace.csv") == unit.outputs["trace_sha256"]


def test_every_seed_maps_to_pinned_outputs():
    pins = run.load_pins()
    for name in run.WORKLOADS:
        pinned = pins["workloads"][name]
        assert str(pins["held_out"]) in pinned
        for seed in range(-3, 40):
            assert str(run.workload_seed(seed, pins)) in pinned


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
