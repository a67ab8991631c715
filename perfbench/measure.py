"""Timed passes, output checks and the record of one benchmark run.

Import only after ``run.bootstrap()``: this module imports numpy and fbmilt.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple, Optional

import calibration
import tracing
import workloads

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
SETUP_RUNS = 5
MAX_LISTED_FAILURES = 20


class OpRun(NamedTuple):
    op: workloads.Op
    seconds: float
    scaled_s: float  # seconds at the probe's nominal machine speed
    out: Optional[dict]
    error: Optional[str]


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def setup_seconds(workload: str, runs: int, probe) -> tuple:
    """(raw, scaled) times of ``runs`` fresh processes that import fbmilt
    and warm the workload's lazy caches."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--setup-probe"]
    raw, scaled = [], []
    before = None
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120, cwd=HERE.parent, stdout=subprocess.DEVNULL)
        raw.append(time.perf_counter() - t0)
        after = probe(raw[-1])
        scaled.append(calibration.scaled(raw[-1], before, after))
        before = after
    return raw, scaled


def _run_pass(ops, seed, probe, before, tracer=None):
    """One pass over ``ops``, each operation followed by a probe run.
    Returns the operation runs and the last probe time."""
    runs = []
    for index, op in enumerate(ops):
        out = error = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = workloads.run_op(op, seed, index)
            else:
                with tracer.span(tracing.OP_SPAN):
                    out = workloads.run_op(op, seed, index)
        except Exception as exc:  # a failing operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        after = probe(seconds)
        runs.append(OpRun(op, seconds, calibration.scaled(seconds, before, after), out, error))
        before = after
    return runs, before


def _passes(ops, seed, probe, budget, min_passes, tracer=None):
    """Whole passes until one more would likely end after ``budget`` s."""
    passes = []
    before = None
    start = time.perf_counter()
    while True:
        runs, before = _run_pass(ops, seed, probe, before, tracer)
        passes.append(runs)
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > budget:
            return passes


def _check(passes, reference):
    """(attempted, failures) over all passes, untraced passes first."""
    first = {}
    attempted = 0
    failures = []
    for runs in passes:
        for run in runs:
            attempted += 1
            problems = [run.error] if run.error else []
            if run.out is not None:
                canon = json.dumps(run.out)
                if first.setdefault(run.op.key, canon) != canon:
                    problems.append("output differs from the first untraced pass")
                problems += workloads.check_op(run.op, run.out, reference[run.op.key])
            if problems:
                failures.append({"op": run.op.key, "problems": problems})
    return attempted, failures


def _pass_seconds(passes, field):
    return [sum(getattr(run, field) for run in runs) for runs in passes]


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False, setup_runs: int = SETUP_RUNS) -> dict:
    """One benchmark run of ``workload``; returns its record."""
    ops = workloads.build(workload, tiny)
    probe = calibration.Probe()
    setup_raw, setup = setup_seconds(workload, setup_runs, probe)
    workloads.warm_up(ops)
    if trace:
        plain = _passes(ops, seed, probe, seconds / 2.0, 1)
        tracer = tracing.Tracer()
        with tracing.install(tracer):
            traced = _passes(ops, seed, probe, seconds / 2.0, 1, tracer)
    else:
        plain = _passes(ops, seed, probe, seconds, 2)
        traced = []
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    reference = load_reference()
    attempted, failures = _check(plain + traced, reference["ops"])
    pass_times = _pass_seconds(plain, "scaled_s")
    op_times = [run.scaled_s for runs in plain for run in runs]
    end_to_end = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(pass_times),
        "op_p50_s": statistics.median(op_times),
        "peak_rss_mb": peak_rss_mb,
    }
    unscaled = {
        "setup_s": statistics.median(setup_raw),
        "wall_s": statistics.median(_pass_seconds(plain, "seconds")),
        "op_p50_s": statistics.median(run.seconds for runs in plain for run in runs),
    }
    unscaled["probe_s"] = calibration.NOMINAL_S * unscaled["wall_s"] / end_to_end["wall_s"]
    per_layer = {}
    if trace:
        per_layer = tracing.layer_metrics(tracer.spans, len(traced))
        per_layer["trace.overhead_share"] = (
            statistics.median(_pass_seconds(traced, "scaled_s")) / end_to_end["wall_s"] - 1.0)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "samples": {"setup_s": len(setup), "wall_s": len(pass_times),
                    "op_p50_s": len(op_times), "peak_rss_mb": 1},
        "attempted": attempted,
        "failed": len(failures),
        "fail_share": len(failures) / attempted,
        "end_to_end": end_to_end,
        "unscaled": unscaled,
        "per_layer": per_layer,
        "failures": failures[:MAX_LISTED_FAILURES],
    }
