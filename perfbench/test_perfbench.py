"""Tests of the benchmark itself: generators, tracer, self time and a tiny run."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import spans
import worker
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _bench_names(section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[section]]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_and_stays_in_domain(workload):
    first = workloads.inputs(workload, 7)
    assert first == workloads.inputs(workload, 7)
    domain = {workloads.input_id(s) for s in workloads.domain(workload)}
    assert {workloads.input_id(s) for s in first} <= domain


def test_seed_changes_z2_wide_draw():
    draws = {tuple(sorted({s["n"] for s in workloads.inputs("z2-wide", seed)}))
             for seed in range(5)}
    assert len(draws) > 1


def test_reference_covers_every_drawable_input():
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    for workload in workloads.WORKLOADS:
        table = ref["cli" if workloads.OP_KIND[workload] == "cli" else "engine"]
        for spec in workloads.domain(workload):
            assert workloads.input_id(spec) in table


def test_self_time_of_hand_built_tree():
    # op [0, 10] -> classify [1, 9] -> check_pattern [2, 4] and [5, 8],
    # the second with column_mask [6, 7] under it; a second root [20, 21].
    names = ["op", "classify", "check", "check", "mask", "op"]
    parents = [-1, 0, 1, 1, 3, -1]
    starts = [0.0, 1.0, 2.0, 5.0, 6.0, 20.0]
    ends = [10.0, 9.0, 4.0, 8.0, 7.0, 21.0]
    agg = spans.aggregate(names, parents, starts, ends)
    assert agg["op"] == [2, 11.0, 3.0]
    assert agg["classify"] == [1, 8.0, 3.0]
    assert agg["check"] == [2, 5.0, 4.0]
    assert agg["mask"] == [1, 1.0, 1.0]


def test_times_are_scaled_by_each_cycles_probe():
    import calibrate
    import run
    ref = calibrate.PROBES["kernel"][1]
    # Two cycles of two ops; the host is twice as slow as the reference in
    # the first cycle and as fast in the second.
    result = {"cycle": 2, "latencies": [0.2, 0.4, 0.1, 0.3], "probe": "kernel",
              "calibration": [[4, 8 * ref], [2, 2 * ref]],
              "setup_calibration": [3, 9 * calibrate.PROBES["spawn"][1]]}
    assert run.scaled(result) == pytest.approx([0.1, 0.2, 0.1, 0.3])
    assert run.scaled(result, scale=False) == result["latencies"]
    assert run.throughput(result) == pytest.approx(4 / 0.7)
    assert run.setup_seconds(0.3, result) == pytest.approx(0.1)


def _bindings():
    """Every binding a tracer may replace, by identity of its current value."""
    worker.import_package("orbitcohom.cli")
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "orbitcohom" or name.startswith("orbitcohom."):
            for key, value in vars(mod).items():
                out[(name, key)] = value
                if isinstance(value, type):
                    for attr, raw in vars(value).items():
                        out[(name, key, attr)] = raw
    return out


def test_tracer_records_spans_and_restores_every_wrapper():
    oc = worker.import_package()
    before = _bindings()
    tracer = spans.Tracer().install()
    try:
        assert oc.classify is not before[("orbitcohom", "classify")]
        oc.classify(oc.make_type_ab(2, 0, 0), oc.GroupChoice.Z2)
    finally:
        tracer.restore()
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    agg = tracer.aggregate()
    assert agg["engine.classify"][0] == 1
    assert agg["fiber.validate"][0] == 1  # bound in engine as validate_fiber
    assert agg["engine.check_pattern"][0] > 0
    assert tracer.counters["intervals.column_mask.bits"] > 0


def test_missing_target_is_absent_not_fatal():
    tracer = spans.Tracer(targets=(
        ("orbitcohom.no_such_module", "f", "gone.f", None),
        ("orbitcohom.intervals", "IntervalModule.no_such_method",
         "intervals.gone", None),
    )).install()
    tracer.restore()
    assert tracer.absent == ["gone.f", "intervals.gone"]


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_tiny_run_prints_every_metric_and_no_failures(trace, section):
    proc = _run("--workload", "table-sweep", "--seed", "3", "--seconds",
                "0.2", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(workloads.domain("table-sweep"))
    assert list(result["metrics"]) == _bench_names(section)
    assert "failed_share=0.0000" in lines[0]
    for name in result["metrics"]:
        assert any(line.split()[:1] == [name] for line in lines[1:-1])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("--workload", "table-sweep", "--seed", "1", "--seconds", "1",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
