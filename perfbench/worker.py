"""Runs one workload's closed loop in a fresh interpreter.

``run.py`` starts this script once per measurement and writes
the job to its stdin as JSON::

    {"workload": ..., "inputs": [...], "seconds": ..., "trace": bool,
     "probe": bool}

The worker imports the package from the checkout's ``src``, builds the
workload's inputs (its warm-up), prints ``ready`` and, unless the job is a
set-up probe, runs whole cycles over the inputs until ``seconds`` have
passed, and at least three. Each op is timed alone; its output is reduced
to a digest only after its clock stops, and ``run.py`` compares the
digests with ``reference.json``. Between ops, and right after set-up, it times the
calibration probes of ``calibrate.py``, by which ``run.py`` scales every
time to a reference host. The last stdout line is the result as JSON.

``python3 perfbench/worker.py cli-child ARGV...`` is one traced cli-cold
op: it installs the span wrappers, runs ``orbitcohom.cli.main(ARGV)`` with
stdout captured and prints the exit code, the output and the tracer's
summary as JSON.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import time

import calibrate
import spans
from workloads import OP_KIND, input_id

# p50 and p90 are taken per cycle; every workload's cycle has 36 ops or
# more, so three cycles put at least twelve samples beyond p90.
MIN_CYCLES = 3

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_package(module: str = "orbitcohom"):
    """Import the package from this checkout's src, never from elsewhere."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import importlib
    mod = importlib.import_module(module)
    pkg = sys.modules["orbitcohom"]
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"orbitcohom imported from {pkg.__file__}, not {SRC}")
    return mod


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def report_digest(oc, report) -> str:
    """Digest of a ClassificationReport's public fields.

    Covers the verdict and, per outcome, the presentation string, Poincare
    series, index, extension flags and history key, plus every rejected
    branch's reason in order.
    """
    doc = {
        "verdict": report.verdict,
        "outcomes": [{
            "ring": oc.presentation_str(o.presentation),
            "poincare": sorted(o.poincare.items()),
            "index": o.index,
            "extension_flags": [[f.product, list(f.candidates)]
                                for f in o.extension_flags],
            "history": o.history_key(),
        } for o in report.outcomes],
        "rejected": [str(rb.reason) for rb in report.rejected],
    }
    return _sha(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode())


def make_op(oc, kind: str, spec: dict, trace: bool, child_traces: list):
    """(op, check) for one input: op() is timed, check(op()) is not.

    check returns the output's digest, or a string starting with
    ``error:`` when the output is wrong regardless of the reference.
    """
    if kind == "cli":
        if trace:
            cmd = [sys.executable, os.path.abspath(__file__), "cli-child"]
        else:
            cmd = [sys.executable, "-m", "orbitcohom.cli"]
        cmd += spec["argv"]
        env = child_env()

        def op():
            return subprocess.run(cmd, capture_output=True, env=env, cwd=ROOT)

        def check(proc):
            if proc.returncode != 0:
                return f"error: exit {proc.returncode}"
            out = proc.stdout
            if trace:
                doc = json.loads(out)
                child_traces.append(doc)
                if doc["code"] != 0:
                    return f"error: exit {doc['code']}"
                out = doc["stdout"].encode()
            return _sha(out)
        return op, check

    ring = oc.make_type_ab(spec["n"], spec["a"], spec["b"])
    group = oc.GroupChoice(spec["group"])
    if kind == "classify":
        # Names are looked up on the package at call time, so the traced
        # run's wrappers are the ones called.
        def op():
            return oc.classify(ring, group)

        def check(report):
            return report_digest(oc, report)
        return op, check

    # The smallest cap the oracle accepts, as ``orbitcohom oracle-check``
    # picks it: top degree + longest admissible round + the group's step.
    cap = (ring.top_degree + max(oc.admissible_rounds(ring, group), default=0)
           + group.step)

    def op():
        report = oc.classify(ring, group)
        problems = oc.compare_reports(
            report, oc.brute_force_classify(ring, group, cap))
        return report, problems

    def check(out):
        report, problems = out
        if problems:
            return f"error: oracle disagrees: {problems[0]}"
        return report_digest(oc, report)
    return op, check


def run_loop(ops, seconds: float, probe: str):
    """Run whole cycles over ops until seconds have passed and MIN_CYCLES
    cycles are done.

    Returns the per-op latencies and, per cycle, the (calls, seconds) of the
    calibration probe, which runs between ops for ``calibrate.SHARE`` of
    the time spent inside them.
    """
    latencies = []
    cycles = []
    seen = [{} for _ in ops]
    clock = time.perf_counter
    start = clock()
    while True:
        op_s = cal_s = 0.0
        cal_calls = 0
        for i, (op, check) in enumerate(ops):
            t0 = clock()
            try:
                out = op()
            except Exception as exc:  # a failing op is counted, not fatal
                out = exc
            lat = clock() - t0
            latencies.append(lat)
            if isinstance(out, Exception):
                key = f"error: {type(out).__name__}: {out}"
            else:
                try:
                    key = check(out)
                except Exception as exc:  # malformed output
                    key = f"error: check: {type(exc).__name__}: {exc}"
            seen[i][key] = seen[i].get(key, 0) + 1
            op_s += lat
            while cal_s < calibrate.SHARE * op_s:
                cal_s += calibrate.timed(probe, 1)[1]
                cal_calls += 1
        cycles.append((cal_calls, cal_s))
        if clock() - start >= seconds and len(cycles) >= MIN_CYCLES:
            break
    return latencies, cycles, seen


def environment() -> dict:
    env = {"python": platform.python_version(), "nproc": os.cpu_count()}
    try:
        env["gf2_backend"] = import_package("orbitcohom.gf2").BACKEND
    except (ImportError, AttributeError):
        env["gf2_backend"] = None
    return env


def run_job(job: dict) -> dict:
    kind = OP_KIND[job["workload"]]
    import_package("orbitcohom.cli" if kind == "cli" else "orbitcohom")
    oc = sys.modules["orbitcohom"]
    child_traces: list = []
    ops = [make_op(oc, kind, spec, job["trace"], child_traces)
           for spec in job["inputs"]]
    print("ready", flush=True)
    setup_cal = calibrate.timed("spawn", calibrate.SETUP_CALLS)
    if job.get("probe"):
        return {"setup_calibration": setup_cal}
    probe = "spawn" if kind == "cli" else "kernel"
    tracer = None
    if job["trace"] and kind != "cli":
        tracer = spans.Tracer().install()
    try:
        latencies, cycles, seen = run_loop(ops, job["seconds"], probe)
    finally:
        if tracer is not None:
            tracer.restore()
    who = resource.RUSAGE_CHILDREN if kind == "cli" else resource.RUSAGE_SELF
    result = {
        "cycle": len(ops),
        "latencies": latencies,
        "probe": probe,
        "calibration": cycles,
        "setup_calibration": setup_cal,
        "seen": {input_id(spec): counts
                 for spec, counts in zip(job["inputs"], seen)},
        "peak_rss_kb": resource.getrusage(who).ru_maxrss,
        "env": environment(),
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
    elif job["trace"]:
        result["trace"] = {"aggregate": {}, "counters": {}, "absent": []}
        for doc in child_traces:
            spans.merge(result["trace"], doc["trace"])
    return result


def cli_child(argv) -> None:
    cli = import_package("orbitcohom.cli")
    tracer = spans.Tracer().install()
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    finally:
        tracer.restore()
    json.dump({"code": code, "stdout": buf.getvalue(),
               "trace": tracer.summary()}, sys.stdout)


if __name__ == "__main__":
    if sys.argv[1:2] == ["cli-child"]:
        cli_child(sys.argv[2:])
    else:
        print(json.dumps(run_job(json.load(sys.stdin))))
