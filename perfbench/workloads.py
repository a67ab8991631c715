"""The benchmark's workloads: operations, their reference checks, warm-up.

An operation is one classified (H, d) point, one ``mc_moments`` call or
one tail integral.  Each workload stresses different layers:

* ``phase``: ``classify(sweep(cfg))``; large 4D and 2D cubature calls,
  about half integrand and half driver time.  Points cover all three
  verdicts, d = 2..4, and rows with and without the one-rung ladder
  extension of ``classify`` ((0.5,3) and (0.9,2) extend).
* ``mc_coarse``: ``mc_moments`` on grids of n = 16..32; the sampler and
  per-replication overhead dominate, the kernel is minor.
* ``mc_fine``: ``mc_moments`` on grids of n = 1600; the kernel dominates.
  The points have a small coefficient of variation of I_eps so that a
  100-replication estimate passes the 5-SE reference check reliably.
* ``tails``: ``reduction_bound`` (hundreds of small 2D calls where driver
  bookkeeping dominates), divergence evidence at (0.75, 3), and the finite
  eps = 0 integrals at (0.25, 2).  Four more divergent ``m1(0)`` points of
  similar cost put the median operation in a cluster of like operations,
  so ``op_p50_s`` does not hang on a few 0.2-second calls.

Every library call goes through a module attribute looked up at call
time, so the tracing wrappers in ``tracing`` see it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from fbmilt import cubature, fbmgen, iltmc, phasescan, quadmoments
from fbmilt.covkernel import ModelConfig
from fbmilt.fbmgen import TimeGrid

MC_SE_FACTOR = 5.0


@dataclass(frozen=True)
class Op:
    kind: str  # "phase" | "mc" | "tail"
    hurst: float
    dim: int
    eps: float = 0.0
    method: str = "circulant"
    reps: int = 0
    fn: str = ""  # tail: name of the quadmoments function

    @property
    def key(self) -> str:
        if self.kind == "phase":
            return f"phase(H={self.hurst},d={self.dim})"
        if self.kind == "mc":
            return f"mc(H={self.hurst},d={self.dim},eps={self.eps},{self.method})"
        return f"{self.fn}(H={self.hurst},d={self.dim})"

    @property
    def cfg(self) -> ModelConfig:
        return ModelConfig(hurst=self.hurst, dim=self.dim)


def _mc(h, d, eps, reps, method="circulant"):
    return Op("mc", h, d, eps=eps, method=method, reps=reps)


def _tail(fn, h, d):
    return Op("tail", h, d, fn=fn)


WORKLOADS = {
    "phase": [Op("phase", h, d) for h, d in
              [(0.25, 2), (0.5, 3), (0.5, 4), (0.75, 3), (0.9, 2)]],
    "mc_coarse": [
        _mc(0.5, 2, 0.5, 3000),
        _mc(0.5, 3, 1.0, 3000),
        _mc(0.7, 2, 1.0, 3000),
        _mc(0.7, 2, 1.0, 3000, method="cholesky"),
    ],
    "mc_fine": [_mc(0.25, 2, 0.4, 100), _mc(0.25, 3, 0.4, 100)],
    "tails": [
        _tail("reduction_bound", 0.25, 2),
        _tail("m1", 0.75, 3),
        _tail("m1", 0.8, 3),
        _tail("m1", 0.7, 3),
        _tail("m1", 0.6, 4),
        _tail("m1", 0.9, 4),
        _tail("var_limit", 0.75, 3),
        _tail("a_t_integral", 0.25, 2),
        _tail("var_limit", 0.25, 2),
    ],
}

# One cheap operation per workload, at reduced replications, for smoke tests.
_TINY = {"phase": (4, None), "mc_coarse": (1, 200), "mc_fine": (0, 20), "tails": (7, None)}


def build(workload: str, tiny: bool = False):
    ops = WORKLOADS[workload]
    if not tiny:
        return list(ops)
    index, reps = _TINY[workload]
    op = ops[index]
    return [replace(op, reps=reps) if reps else op]


def mc_seed(seed: int, index: int) -> int:
    """MC seed of the operation at ``index``; the same in every pass."""
    return 1000 * seed + index


def _shells(evidence):
    """The partial-integral sequence at the end of a divergence message."""
    if not evidence or ":" not in evidence:
        return None
    try:
        return [float(v) for v in evidence.rsplit(":", 1)[1].split(",")]
    except ValueError:
        return None


def run_op(op: Op, seed: int, index: int) -> dict:
    """Run one operation; returns its outputs as JSON-ready values."""
    cfg = op.cfg
    if op.kind == "phase":
        point = phasescan.classify(phasescan.sweep(cfg), cfg)
        rows = [[float(v) for v in (r.eps, r.m1, r.m1_err, r.m2, r.m2_err, r.cauchy_gap)]
                + [bool(r.complete)] for r in point.evidence.rows]
        return {"verdict": point.verdict, "rows": rows}
    if op.kind == "mc":
        n = iltmc.grid_for_eps(op.eps, cfg)
        est = iltmc.mc_moments(cfg, op.eps, TimeGrid(cfg.horizon, n), op.reps,
                               seed=mc_seed(seed, index), method=op.method, workers=1)
        return {"n": n, "mean": est.mean, "second": est.second_moment,
                "se_mean": est.se_mean, "se_second": est.se_second}
    fn = getattr(quadmoments, op.fn)
    res = fn(0.0, cfg) if op.fn == "m1" else fn(cfg)
    return {"value": float(res.value), "error": float(res.error_estimate),
            "diverged": bool(res.diverged), "shells": _shells(res.divergence_evidence)}


def expected_verdict(hurst: float, dim: int) -> str:
    """The source paper's rule: Convergent iff Hd < 2, Critical at Hd = 2."""
    hd = hurst * dim
    if abs(hd - 2.0) < 1e-9:
        return "Critical"
    return "Convergent" if hd < 2.0 else "Divergent"


def _within(label, value, want, tol):
    if not abs(value - want) <= tol:  # also rejects nan
        return [f"{label} {value!r} differs from reference {want!r} by more than {tol:.3e}"]
    return []


def check_op(op: Op, out: dict, ref: dict) -> list:
    """Problems with ``out`` against the reference entry ``ref``; empty if none."""
    if op.kind == "phase":
        problems = []
        want = expected_verdict(op.hurst, op.dim)
        if out["verdict"] != want:
            problems.append(f"verdict {out['verdict']} but Hd rule gives {want}")
        matched = 0
        for eps, m1, m1_err, m2, m2_err, *_ in out["rows"]:
            for r_eps, r_m1, r_m1_err, r_m2, r_m2_err in ref["rows"]:
                if math.isclose(eps, r_eps, rel_tol=1e-12):
                    matched += 1
                    problems += _within(f"m1(eps={eps:g})", m1, r_m1, m1_err + r_m1_err)
                    problems += _within(f"m2(eps={eps:g})", m2, r_m2, m2_err + r_m2_err)
        if matched < ref["sweep_rows"]:
            problems.append(
                f"only {matched} rows match the {ref['sweep_rows']} reference sweep rows")
        return problems
    if op.kind == "mc":
        return (_within("mean", out["mean"], ref["m1"],
                        MC_SE_FACTOR * out["se_mean"] + ref["m1_err"])
                + _within("second moment", out["second"], ref["m2"],
                          MC_SE_FACTOR * out["se_second"] + ref["m2_err"]))
    if out["diverged"] != ref["diverged"]:
        return [f"diverged={out['diverged']} but reference says {ref['diverged']}"]
    if out["diverged"]:
        shells = out["shells"] or []
        if len(shells) < 3 or not all(b > a > 0.0 for a, b in zip(shells, shells[1:])):
            return [f"divergence evidence does not grow: {shells}"]
        return []
    return _within("value", out["value"], ref["value"], out["error"] + ref["error"])


def warm_up(ops) -> None:
    """Fill the lazy caches the operations use: cubature rules, circulant
    eigenvalues and Cholesky factors."""
    for ndim in (2, 4):
        cubature.genz_malik_rule(ndim)
    for op in ops:
        if op.kind == "mc":
            n = iltmc.grid_for_eps(op.eps, op.cfg)
            fbmgen.sample_pair(TimeGrid(op.cfg.horizon, n), op.cfg, 0, method=op.method)
