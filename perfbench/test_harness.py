"""Self-tests of the benchmark harness.

Run from the repository root:  python3 -m pytest perfbench
"""

import importlib
import json
import math

import pytest

import run

run.bootstrap()

import measure  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_self_time_of_nested_spans():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    with tracer.span("outer"):            # 0 .. 10
        with tracer.span("first"):        # 1 .. 2
            pass
        with tracer.span("second"):       # 4 .. 5
            pass
    assert [rec[tracing.PARENT] for rec in tracer.spans] == [-1, 0, 0]
    assert tracing.self_times(tracer.spans) == [8.0, 1.0, 1.0]


def test_wrapped_call_records_parent_and_counts():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda x: 2 * x, count=lambda a, k, out: {"out": out})
    outer = tracer.wrap("outer", lambda x: inner(x) + 1)
    assert outer(3) == 7
    (o_name, o_parent, *_), (i_name, i_parent, *_, i_counts) = tracer.spans
    assert (o_name, o_parent, i_name, i_parent, i_counts) == ("outer", -1, "inner", 0, {"out": 6})


def test_every_wrapper_is_installed_and_restored():
    names = [(m, a) for m, a, _ in tracing.targets(tracing.Tracer())]
    originals = {key: getattr(importlib.import_module(key[0]), key[1]) for key in names}
    with pytest.raises(RuntimeError):
        with tracing.install(tracing.Tracer()):
            for (module, attr), original in originals.items():
                assert getattr(importlib.import_module(module), attr) is not original
            raise RuntimeError("leave the block by an exception")
    for (module, attr), original in originals.items():
        assert getattr(importlib.import_module(module), attr) is original


def _listed(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_pass_of_each_workload(workload):
    rec = measure.measure(workload, seed=0, seconds=0, trace=True, tiny=True, setup_runs=1)
    assert rec["failed"] == 0, rec["failures"]
    assert rec["passes"] == {"untraced": 1, "traced": 1}
    line = run.result_line([rec], trace=True)
    assert {k: v["unit"] for k, v in line["metrics"].items()} == _listed("per_layer")
    line = run.result_line([rec], trace=False)
    assert {k: v["unit"] for k, v in line["metrics"].items()} == _listed("end_to_end")
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)


REFERENCE = measure.load_reference()["ops"]


def _op(workload, index):
    return workloads.build(workload)[index]


def test_reference_check_accepts_the_reference_and_rejects_a_perturbed_phase_row():
    op = _op("phase", 0)
    ref = REFERENCE[op.key]
    out = {"verdict": workloads.expected_verdict(op.hurst, op.dim),
           "rows": [row + [math.nan, True] for row in ref["rows"]]}
    assert workloads.check_op(op, out, ref) == []
    row = out["rows"][5]
    row[3] += 3.0 * row[4]  # m2 beyond its own and the reference's claimed error
    problems = workloads.check_op(op, out, ref)
    assert len(problems) == 1 and problems[0].startswith("m2(")
    out["verdict"] = "Divergent"
    assert len(workloads.check_op(op, out, ref)) == 2


def test_reference_check_rejects_a_perturbed_mc_moment():
    op = _op("mc_coarse", 0)
    ref = REFERENCE[op.key]
    se = 1e-3
    out = {"mean": ref["m1"] + 4.0 * se, "second": ref["m2"], "se_mean": se, "se_second": se}
    assert workloads.check_op(op, out, ref) == []
    out["mean"] = ref["m1"] + 5.0 * se + 2.0 * ref["m1_err"]
    assert len(workloads.check_op(op, out, ref)) == 1


def test_reference_check_rejects_a_perturbed_tail_value():
    op = _op("tails", 0)
    ref = REFERENCE[op.key]
    out = dict(ref)
    assert workloads.check_op(op, out, ref) == []
    out["value"] = ref["value"] + 3.0 * ref["error"]
    assert len(workloads.check_op(op, out, ref)) == 1
    out["value"] = math.nan
    assert len(workloads.check_op(op, out, ref)) == 1


def test_reference_check_rejects_divergence_evidence_that_does_not_grow():
    op = _op("tails", 1)
    ref = REFERENCE[op.key]
    assert ref["diverged"]
    out = dict(ref)
    assert workloads.check_op(op, out, ref) == []
    out["shells"] = ref["shells"][::-1]
    assert len(workloads.check_op(op, out, ref)) == 1
    out["diverged"] = False
    assert len(workloads.check_op(op, out, ref)) == 1
