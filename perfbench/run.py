"""fbmilt benchmark: four workloads, closed loop, every output checked.

Run from the repository root:

    python3 perfbench/run.py --workload phase --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

One caller runs the workload's operations back to back (a closed loop:
each operation starts when the previous one returns), with
``mc_moments(workers=1)`` and the BLAS thread count fixed at 1.  Whole
passes over the operation list repeat until ``--seconds`` would be
exceeded (at least two passes, or one untraced and one traced pass with
``--trace 1``).  Outputs are checked after the timed loop against
``reference.json``: an operation that raises, misses its reference, or
differs from its first untraced output counts as failed.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs half the
time untraced and half traced (see ``tracing``) and reports per-layer
metrics per traced pass plus the tracing overhead.  The last stdout line
is the JSON result; the line before it is the full record, with the
environment, sample counts, ``fail_share`` and any failures.  A summary
table goes to stderr.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("phase", "mc_coarse", "mc_fine", "tails")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}


def bootstrap() -> None:
    """Pin BLAS to one thread and import fbmilt from this checkout's source.

    Must run before numpy is imported.  Raises FileNotFoundError when the
    checkout has no ``src/fbmilt``.
    """
    if not (SRC / "fbmilt" / "__init__.py").is_file():
        raise FileNotFoundError(f"no fbmilt package source under {SRC}")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------------------
# environment


def _blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None."""
    import numpy

    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_commit():
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "fbmilt").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import fbmilt
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "blas_thread_vars": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "backend": getattr(fbmilt, "backend_name", None),
        "FBMILT_BACKEND": os.environ.get("FBMILT_BACKEND"),
        "commit": git_commit(),
        "src_sha256": _source_digest(),
    }


def env_flags(env: dict, baseline: dict) -> list:
    """Differences from the baseline that make timings incomparable."""
    return [f"{key} is {env[key]!r}, baseline {baseline.get(key)!r}"
            for key in ("backend", "blas_threads") if env[key] != baseline.get(key)]


def result_line(records: list, trace: bool) -> dict:
    """The final JSON object: end-to-end metrics, or per-layer with trace."""
    metrics = {}
    for rec in records:
        prefix = "" if len(records) == 1 else rec["workload"] + "."
        if trace:
            values = {k: (v, tracing.unit(k)) for k, v in rec["per_layer"].items()}
        else:
            values = {k: (v, END_TO_END_UNITS[k]) for k, v in rec["end_to_end"].items()}
        for name, (value, unit) in values.items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _summary(rec) -> str:
    lines = [f"workload {rec['workload']} seed {rec['seed']}: "
             f"{rec['attempted']} operations, {rec['failed']} failed "
             f"(fail_share {rec['fail_share']:.4g})"]
    for name, value in rec["end_to_end"].items():
        lines.append(f"  {name:<12} {value:12.6g} {END_TO_END_UNITS[name]:<4} "
                     f"n={rec['samples'][name]}")
    for flag in rec["env_flags"]:
        lines.append(f"  WARNING environment differs from baseline: {flag}")
    for failure in rec["failures"]:
        lines.append(f"  FAILED {failure['op']}: {'; '.join(failure['problems'])}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        bootstrap()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import measure
    import workloads

    if args.setup_probe:
        workloads.warm_up(workloads.build(args.workload))
        return 0
    baseline = measure.load_reference()["provenance"]["environment"]
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        rec = measure.measure(name, args.seed, args.seconds, bool(args.trace))
        rec["environment"] = environment()
        rec["env_flags"] = env_flags(rec["environment"], baseline)
        print(_summary(rec), file=sys.stderr, flush=True)
        records.append(rec)
    print(json.dumps({"records": records}))
    print(json.dumps(result_line(records, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
