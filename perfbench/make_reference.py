"""Write ``reference.json``, the table every benchmark output is checked
against.  Run once from the repository root, at the commit the table
should describe:

    python3 perfbench/make_reference.py

* phase and tail operations: that commit's own outputs (values and
  claimed errors; phase verdicts are checked against the Hd rule instead).
* MC operations: quadrature ``m1`` and ``m2`` at the same (H, d, eps),
  with their claimed errors.

The provenance block records the commit, the time and the environment;
its environment is the baseline that ``run.py`` flags differences from.
"""

import datetime
import json

import run


def main():
    run.bootstrap()
    import measure
    import workloads
    from fbmilt import phasescan, quadmoments

    ops = {}
    for name in run.WORKLOAD_NAMES:
        for index, op in enumerate(workloads.build(name)):
            if op.kind == "mc":
                m1 = quadmoments.m1(op.eps, op.cfg)
                m2 = quadmoments.m2(op.eps, op.cfg)
                ops[op.key] = {"m1": m1.value, "m1_err": m1.error_estimate,
                               "m2": m2.value, "m2_err": m2.error_estimate}
                continue
            out = workloads.run_op(op, 0, index)
            if op.kind == "phase":
                out = {"verdict": out["verdict"],
                       "sweep_rows": phasescan.EpsSchedule.default_for(op.cfg).count,
                       "rows": [row[:5] for row in out["rows"]]}
            ops[op.key] = out
            print(op.key, flush=True)
    reference = {
        "provenance": {
            "commit": run.git_commit(),
            "created": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
            "command": "python3 perfbench/make_reference.py",
            "environment": run.environment(),
        },
        "ops": ops,
    }
    measure.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
