"""Benchmark runner: runs one workload and prints its metrics.

From the repository root::

    python3 perfbench/run.py --workload z2-wide --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones; ``--workload all`` runs the four workloads in turn. The last stdout
line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit). The lines before it repeat the
metrics as a table, with the sample count, ``failed_share`` and the
environment.

This script never imports the package: each measurement runs in a fresh
``worker.py`` interpreter, one at a time, and this script checks the
digests the worker returns against ``reference.json``. Times are scaled
to a reference host by the calibration probes the worker times between ops
(see ``calibrate.py``); the table also prints them raw.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

import calibrate
import workloads
from spans import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
REFERENCE = os.path.join(HERE, "reference.json")

SETUP_PROBES = 6  # before and again after the measuring worker: 13 samples
CLI_PROBES = 9    # bare-interpreter and import probes of the traced run
DEADLINE_S = 170  # each workload's run ends within 180 s

END_TO_END = (
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics. "<span>.calls" and "<span>.self_ms" are per op,
# "<layer>.self_share" is the layer's self time over the traced op time;
# the rest are defined in per_layer().
PER_LAYER = (
    ("intervals.column_mask.calls", "calls/op"),
    ("intervals.column_mask.bits", "bits/op"),
    ("intervals.column_mask.self_ms", "ms/op"),
    ("intervals.from_columns.calls", "calls/op"),
    ("intervals.from_columns.self_ms", "ms/op"),
    ("engine.classify.self_ms", "ms/op"),
    ("engine.build_e2.self_ms", "ms/op"),
    ("engine.differential_slots.calls", "calls/op"),
    ("engine.check_pattern.calls", "calls/op"),
    ("engine.check_pattern.self_ms", "ms/op"),
    ("engine.check_pattern.accept_ratio", "ratio"),
    ("engine.turn_page.calls", "calls/op"),
    ("engine.turn_page.self_ms", "ms/op"),
    ("engine.is_free_admissible.pass_ratio", "ratio"),
    ("engine.branches.outcome_ratio", "ratio"),
    ("fiber.validate.calls", "calls/op"),
    ("fiber.validate.self_ms", "ms/op"),
    ("presentation.extract_presentation.self_ms", "ms/op"),
    ("presentation.tot_poincare.self_ms", "ms/op"),
    ("presentation.monomial_basis_elements.self_ms", "ms/op"),
    ("obstruction.cohomology_index.calls", "calls/op"),
    ("obstruction.cohomology_index.self_ms", "ms/op"),
    ("oracle.brute_force_classify.self_ms", "ms/op"),
    ("oracle.compare_reports.self_ms", "ms/op"),
    ("oracle.rejected_assignments", "count/op"),
    ("oracle.outcomes", "count/op"),
    ("gf2.homology_dim.calls", "calls/op"),
    ("gf2.homology_dim.self_ms", "ms/op"),
    ("gf2.F2Matrix.from_lists.calls", "calls/op"),
    ("cli.interpreter_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.main.self_ms", "ms/op"),
    ("trace.overhead_share", "share"),
) + tuple((f"{layer}.self_share", "share") for layer in LAYERS)


class BenchError(Exception):
    """A run that cannot produce a result."""


def run_worker(job: dict, deadline: float):
    """(seconds from spawn to ready, result) of one worker process."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER], cwd=ROOT, text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    timer = threading.Timer(max(deadline - start, 0), proc.kill)
    timer.start()
    try:
        proc.stdin.write(json.dumps(job))
        proc.stdin.close()
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        out = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.splitlines()
    if ready.strip() != "ready" or proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed (exit {proc.returncode})")
    return ready_s, json.loads(lines[-1])


def probe_ms(code: str) -> float:
    """Wall milliseconds of ``python -c code`` with the checkout's src on the path."""
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
    return (time.perf_counter() - start) * 1000


def check(seen: dict, reference: dict):
    """(attempted, failed, first failure) of the ops the worker reports."""
    attempted = failed = 0
    first = None
    for key, counts in seen.items():
        for digest, count in counts.items():
            attempted += count
            if digest != reference.get(key):
                failed += count
                first = first or f"{key}: {digest}"
    return attempted, failed, first


def scaled(result: dict, scale: bool = True):
    """The result's per-op latencies in reference-host seconds, cycle by
    cycle (see calibrate.py), or as raw wall seconds."""
    lat, size = result["latencies"], result["cycle"]
    out = []
    for c, (calls, seconds) in enumerate(result["calibration"]):
        f = (calibrate.factor(result["probe"], calls, seconds)
             if scale else 1.0)
        out += [x * f for x in lat[c * size:(c + 1) * size]]
    return out


def throughput(result: dict, scale: bool = True) -> float:
    """Ops per second spent inside ops; what runs between ops (the output
    checks and the calibration probes) is not counted."""
    lat = scaled(result, scale)
    return len(lat) / sum(lat)


def percentile_ms(result: dict, decile: int, scale: bool = True) -> float:
    # Taken within each cycle (every input once), then the median over the
    # cycles. Over the whole run the percentile can fall on the slowest of
    # one input's repeats, where inputs' latencies have a gap (oracle-check's
    # p90 lies between a 130 ms and a 180 ms input).
    lat, size = scaled(result, scale), result["cycle"]
    return 1000 * statistics.median(
        statistics.quantiles(lat[i:i + size], n=10, method="inclusive")[decile]
        for i in range(0, len(lat), size))


def setup_seconds(ready_s: float, result: dict, scale: bool = True) -> float:
    if not scale:
        return ready_s
    return ready_s * calibrate.factor("spawn", *result["setup_calibration"])


def end_to_end(result: dict, setup: list, scale: bool = True) -> dict:
    """setup is a list of (seconds to ready, worker result) pairs."""
    return {
        "throughput_ops_s": throughput(result, scale),
        "latency_p50_ms": percentile_ms(result, 4, scale),
        "latency_p90_ms": percentile_ms(result, 8, scale),
        "setup_s": statistics.median(setup_seconds(ready_s, r, scale)
                                     for ready_s, r in setup),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }


def per_layer(untraced: dict, traced: dict, interpreter_ms: float,
              import_ms: float) -> dict:
    agg = traced["trace"]["aggregate"]
    counters = traced["trace"]["counters"]
    ops = len(traced["latencies"])
    op_s = sum(traced["latencies"])
    # Self times are scaled to the reference host by the whole run's probe.
    scale = calibrate.factor(traced["probe"],
                             *map(sum, zip(*traced["calibration"])))

    def row(span):
        return agg.get(span, (0, 0.0, 0.0))

    def ratio(num, den):
        return num / den if den else 0.0

    outcomes = counters.get("engine.branches.outcomes", 0)
    special = {
        "intervals.column_mask.bits":
            counters.get("intervals.column_mask.bits", 0) / ops,
        "engine.check_pattern.accept_ratio":
            ratio(counters.get("engine.check_pattern.accepted", 0),
                  row("engine.check_pattern")[0]),
        "engine.is_free_admissible.pass_ratio":
            ratio(counters.get("engine.is_free_admissible.passed", 0),
                  row("engine.is_free_admissible")[0]),
        "engine.branches.outcome_ratio":
            ratio(outcomes,
                  outcomes + counters.get("engine.branches.rejected", 0)),
        "oracle.rejected_assignments":
            counters.get("oracle.rejected_assignments", 0) / ops,
        "oracle.outcomes": counters.get("oracle.outcomes", 0) / ops,
        "cli.interpreter_ms": interpreter_ms,
        "cli.import_ms": import_ms,
        "trace.overhead_share":
            (throughput(untraced) - throughput(traced)) / throughput(untraced),
    }
    metrics = {}
    for name, _ in PER_LAYER:
        base, _, field = name.rpartition(".")
        if name in special:
            metrics[name] = special[name]
        elif field == "calls":
            metrics[name] = row(base)[0] / ops
        elif field == "self_ms":
            metrics[name] = row(base)[2] * 1000 * scale / ops
        else:  # self_share
            metrics[name] = sum(r[2] for span, r in agg.items()
                                if span.split(".")[0] == base) / op_s
    return metrics


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            deadline: float):
    """(result object, report lines) of one workload run."""
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    kind = workloads.OP_KIND[workload]
    reference = reference["cli" if kind == "cli" else "engine"]
    job = {"workload": workload, "inputs": workloads.inputs(workload, seed),
           "seconds": seconds, "trace": False}
    if trace:
        _, untraced = run_worker(job, deadline)
        _, traced = run_worker(dict(job, trace=True), deadline)
        probes = [(probe_ms("pass"), probe_ms("import orbitcohom"))
                  for _ in range(CLI_PROBES)]
        bare = statistics.median(p[0] for p in probes)
        imported = statistics.median(p[1] for p in probes)
        values = per_layer(untraced, traced, bare, imported - bare)
        units = dict(PER_LAYER)
        runs = (untraced, traced)
    else:
        def probe():
            return [run_worker(dict(job, probe=True), deadline)
                    for _ in range(SETUP_PROBES)]
        setup = probe()
        ready_s, result = run_worker(job, deadline)
        setup += [(ready_s, result)] + probe()
        values = end_to_end(result, setup)
        raw = end_to_end(result, setup, scale=False)
        units = dict(END_TO_END)
        runs = (result,)

    attempted = failed = 0
    first = None
    for result in runs:
        a, f, why = check(result["seen"], reference)
        attempted, failed, first = attempted + a, failed + f, first or why
    last = runs[-1]
    samples, size = len(last["latencies"]), last["cycle"]
    env = last["env"]
    lines = [
        f"{workload} seed={seed} trace={int(trace)}: {samples} ops timed in "
        f"{samples // size} cycles of {size}; failed_share="
        f"{failed / attempted:.4f} ({failed}/{attempted}); python "
        f"{env['python']}, gf2 backend {env['gf2_backend']}, nproc "
        f"{env['nproc']}",
        f"  host: calibration probe {last['probe']} took "
        f"{1000 * statistics.median(s / c for c, s in last['calibration']):.4f}"
        f" ms per call (reference {1000 * calibrate.PROBES[last['probe']][1]}"
        " ms); times below are scaled to the reference"]
    if not trace:
        p90 = values["latency_p90_ms"] / 1000
        beyond = sum(x > p90 for x in scaled(last))
        lines.append(
            f"  p50/p90: median over {samples // size} cycles of each "
            f"cycle's percentile; {beyond} of the {samples} samples lie "
            "beyond the reported p90")
    if first:
        lines.append(f"  first failure: {first}")
    if trace and runs[-1]["trace"]["absent"]:
        lines.append("  absent (recorded as 0): "
                     + ", ".join(runs[-1]["trace"]["absent"]))
    lines += [f"  {name:46} {value:14.6f} {units[name]}"
              for name, value in values.items()]
    if not trace:
        lines += [f"  raw wall {name:37} {value:14.6f} {units[name]}"
                  for name, value in raw.items() if name != "peak_rss_mb"]
    obj = {"correct": failed == 0, "attempted": attempted, "failed": failed,
           "metrics": {name: {"value": value, "unit": units[name]}
                       for name, value in values.items()}}
    return obj, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "orbitcohom", "__init__.py")):
        print(f"error: no package at {SRC}/orbitcohom; run from a checkout",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in names:
            obj, lines = run_one(workload, args.seed, args.seconds,
                                 bool(args.trace),
                                 time.perf_counter() + DEADLINE_S)
            print("\n".join(lines), flush=True)
            combined["correct"] &= obj["correct"]
            combined["attempted"] += obj["attempted"]
            combined["failed"] += obj["failed"]
            prefix = f"{workload}." if len(names) > 1 else ""
            for name, metric in obj["metrics"].items():
                combined["metrics"][prefix + name] = metric
    except (BenchError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
