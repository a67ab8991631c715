"""Command-line front end.

Subcommands: simulate, estimate, moments, sweep, phase, verify-lemmas.
Flag values override config-file values override defaults; the config
file is flat ``key = value`` lines with ``#`` comments.  Reports are JSON
(stable schema, floats serialized round-trip exact) or CSV for sweeps.

Exit codes: 0 success, 2 parameter error, 3 quadrature budget exhausted,
4 indeterminate classification.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import dataclass, fields
from typing import List, Optional

import numpy as np

from . import __version__, covkernel, quadmoments
from .covkernel import ModelConfig
from .errors import IndeterminateError, ParameterError, QuadratureBudgetError
from .fbmgen import TimeGrid, path_to_csv, sample_pair
from .iltmc import grid_for_eps, mc_moments
from .phasescan import EpsSchedule, PhaseError, PhasePoint, phase_grid

__all__ = ["RunConfig", "parse_args", "run", "main"]

COMMANDS = ("simulate", "estimate", "moments", "sweep", "phase", "verify-lemmas")


@dataclass
class RunConfig:
    command: str
    hurst: List[float]
    dim: List[int]
    horizon: float = 1.0
    eps: Optional[float] = None
    eps0: Optional[float] = None
    factor: float = 0.5
    count: int = 12
    reps: Optional[int] = None
    grid_n: Optional[int] = None
    seed: int = 0
    method: str = "circulant"
    tol: Optional[float] = None
    workers: int = 1
    out: Optional[str] = None
    format: str = "json"

    def model(self) -> ModelConfig:
        if len(self.hurst) != 1 or len(self.dim) != 1:
            raise ParameterError(
                f"command {self.command!r} takes a single hurst and dim value"
            )
        return ModelConfig(hurst=self.hurst[0], dim=self.dim[0], horizon=self.horizon)

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


_FIELD_PARSERS = {
    "hurst": lambda s: [float(x) for x in str(s).split(",")],
    "dim": lambda s: [int(x) for x in str(s).split(",")],
    "horizon": float,
    "eps": float,
    "eps0": float,
    "factor": float,
    "count": int,
    "reps": int,
    "grid_n": int,
    "seed": int,
    "method": str,
    "tol": float,
    "workers": int,
    "out": str,
    "format": str,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbmilt",
        description="Intersection local time of two fractional Brownian motions: "
        "simulation, Monte Carlo estimation, moment quadrature, phase classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--hurst", type=str, default=None,
                       help="Hurst parameter in (0,1); comma list for phase")
        p.add_argument("--dim", type=str, default=None,
                       help="dimension >= 2; comma list for phase")
        p.add_argument("--horizon", type=float, default=None)
        p.add_argument("--eps", type=float, default=None)
        p.add_argument("--eps0", type=float, default=None)
        p.add_argument("--factor", type=float, default=None)
        p.add_argument("--count", type=int, default=None)
        p.add_argument("--reps", type=int, default=None)
        p.add_argument("--grid-n", dest="grid_n", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--method", choices=["cholesky", "circulant"], default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--format", choices=["json", "csv"], default=None)
    return parser


def _load_config_file(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"{path}:{lineno}: expected key = value")
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _FIELD_PARSERS:
                raise ParameterError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = _FIELD_PARSERS[key](val.strip())
            except ValueError as exc:
                raise ParameterError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def parse_args(argv) -> RunConfig:
    ns = _build_parser().parse_args(argv)
    file_values = _load_config_file(ns.config) if ns.config else {}
    rc = RunConfig(command=ns.command, hurst=[0.5], dim=[2])
    for name in _FIELD_PARSERS:
        flag = getattr(ns, name, None)
        if flag is not None:
            value = _FIELD_PARSERS[name](flag) if name in ("hurst", "dim") else flag
        elif name in file_values:
            value = file_values[name]
        else:
            continue
        setattr(rc, name, value)
    _validate(rc)
    return rc


def _validate(rc: RunConfig) -> None:
    for d in rc.dim:
        if d < 2:
            raise ParameterError(f"dim: must be >= 2 (one-dimensional case excluded), got {d}")
    for h in rc.hurst:
        if not (0.0 < h < 1.0):
            raise ParameterError(f"hurst: must lie in (0, 1), got {h}")
    if rc.horizon <= 0.0:
        raise ParameterError(f"horizon: must be positive, got {rc.horizon}")
    if rc.command == "estimate":
        if rc.eps is None or rc.eps <= 0.0:
            raise ParameterError("eps: estimate requires a positive eps")
    if rc.command == "moments" and (rc.eps is None or rc.eps < 0.0):
        raise ParameterError("eps: moments requires a nonnegative eps")
    if rc.workers < 1:
        raise ParameterError(f"workers: must be >= 1, got {rc.workers}")
    if rc.reps is not None and rc.reps < 2:
        raise ParameterError(f"reps: must be >= 2, got {rc.reps}")


# ---------------------------------------------------------------------------
# serialization

def _num(x):
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else None


def _quad_dict(res) -> dict:
    shells = None
    if res.shells is not None:
        shells = [{"width": _num(w), "value": _num(s.value), "error": _num(s.error_estimate),
                   "status": s.status} for w, s in zip(res.shell_widths, res.shells)]
    return {
        "value": _num(res.value),
        "error": _num(res.error_estimate),
        "diverged": bool(res.diverged),
        "evidence": res.divergence_evidence,
        "status": res.status,
        "nevals": res.nevals,
        "shells": shells,
        "shell_rate": _num(res.shell_rate),
        "radial_exponent": _num(res.radial_exponent),
    }


def _report(rc: RunConfig, results: dict) -> dict:
    base = {"m1": None, "m2": None, "variance": None, "mc": None,
            "verdict": None, "rows": None, "diagnostics": None}
    base.update(results)
    return {
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "config": rc.as_dict(),
        "results": base,
    }


def _emit(rc: RunConfig, report: dict, csv_rows=None, csv_header=None) -> None:
    if rc.format == "csv" and csv_rows is not None:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(csv_header)
        for row in csv_rows:
            writer.writerow(["" if v is None else repr(float(v)) if isinstance(v, float)
                             else v for v in row])
        text = buf.getvalue()
    else:
        text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    if rc.out:
        with open(rc.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _say(rc: RunConfig, message: str) -> None:
    """One-line summary; kept off stdout when the report itself goes there."""
    stream = sys.stderr if rc.out is None and rc.command != "simulate" else sys.stdout
    print(message, file=stream)


# ---------------------------------------------------------------------------
# subcommand runners

def _run_simulate(rc: RunConfig) -> int:
    cfg = rc.model()
    n = rc.grid_n or 256
    grid = TimeGrid(horizon=rc.horizon, n_steps=n)
    pair = sample_pair(grid, cfg, rc.seed, method=rc.method)
    if rc.out:
        stem = rc.out[:-4] if rc.out.endswith(".csv") else rc.out
        for suffix, path in (("first", pair.first), ("second", pair.second)):
            with open(f"{stem}_{suffix}.csv", "w", newline="") as fh:
                path_to_csv(path, fh)
        where = f"written to {stem}_first.csv, {stem}_second.csv"
    else:
        where = "not written (no --out)"
    _say(rc, f"simulate: pair of fBm paths, H={cfg.hurst} d={cfg.dim} n={n} "
             f"seed={rc.seed}; {where}")
    return 0


def _run_estimate(rc: RunConfig) -> int:
    cfg = rc.model()
    reps = rc.reps or 1000
    n = rc.grid_n or grid_for_eps(rc.eps, cfg)
    grid = TimeGrid(horizon=rc.horizon, n_steps=n)
    est = mc_moments(cfg, rc.eps, grid, replications=reps, seed=rc.seed,
                     method=rc.method, workers=rc.workers)
    report = _report(rc, {
        "mc": {
            "mean": _num(est.mean), "se": _num(est.se_mean),
            "reps": est.replications,
            "second_moment": _num(est.second_moment),
            "se_second": _num(est.se_second),
            "variance": _num(est.variance),
        },
        "diagnostics": {"grid_n": est.grid_n, "pair_sums": est.pair_sums},
    })
    _emit(rc, report)
    _say(rc, f"estimate: E[I_eps] ~ {est.mean:.6g} +/- {est.se_mean:.2g} "
             f"(eps={rc.eps}, reps={reps}, n={n})")
    return 0


def _run_moments(rc: RunConfig) -> int:
    cfg = rc.model()
    tol = {} if rc.tol is None else {"rel_tol": rc.tol}
    r1 = quadmoments.m1(rc.eps, cfg, **tol)
    results = {"m1": _quad_dict(r1)}
    summary = f"moments: m1={r1.value:.6g}"
    if rc.eps > 0.0:
        r2 = quadmoments.m2(rc.eps, cfg, **tol)
        results["m2"] = _quad_dict(r2)
        results["variance"] = _num(r2.value - r1.value**2)
        summary += f" m2={r2.value:.6g} variance={r2.value - r1.value ** 2:.6g}"
    if r1.diverged:
        summary += " (m1 diverged)"
    _emit(rc, _report(rc, results))
    _say(rc, summary + f" (eps={rc.eps}, H={cfg.hurst}, d={cfg.dim})")
    return 0


_SWEEP_HEADER = ["eps", "m1", "m1_err", "m2", "m2_err", "variance",
                 "cauchy_gap", "gap_err", "mc_mean", "mc_se", "complete"]


def _row_dict(row) -> dict:
    return {
        "eps": _num(row.eps), "m1": _num(row.m1), "m1_err": _num(row.m1_err),
        "m2": _num(row.m2), "m2_err": _num(row.m2_err),
        "variance": _num(row.variance), "cauchy_gap": _num(row.cauchy_gap),
        "gap_err": _num(row.gap_err),
        "mc_mean": _num(row.mc_mean), "mc_se": _num(row.mc_se),
        "complete": row.complete,
    }


def _schedule(rc: RunConfig, cfg: ModelConfig) -> EpsSchedule:
    eps0 = rc.eps0 if rc.eps0 is not None else cfg.horizon ** (2.0 * cfg.hurst)
    return EpsSchedule(eps0=eps0, factor=rc.factor, count=rc.count)


def _run_sweep(rc: RunConfig) -> int:
    from .phasescan import sweep
    cfg = rc.model()
    with_mc = rc.reps is not None
    mc_params = {"reps": rc.reps, "seed": rc.seed, "method": rc.method,
                 "workers": rc.workers, "grid_n": rc.grid_n} if with_mc else None
    tol = {} if rc.tol is None else {"quad_rel_tol": rc.tol}
    series = sweep(cfg, _schedule(rc, cfg), with_mc=with_mc, mc_params=mc_params, **tol)
    rows = [_row_dict(r) for r in series.rows]
    csv_rows = [[r[k] for k in _SWEEP_HEADER] for r in rows]
    report = _report(rc, {"rows": rows, "diagnostics": {"nevals": series.nevals}})
    _emit(rc, report, csv_rows=csv_rows, csv_header=_SWEEP_HEADER)
    incomplete = sum(1 for r in series.rows if not r.complete)
    _say(rc, f"sweep: {len(rows)} rows, eps {rows[0]['eps']:.3g} .. {rows[-1]['eps']:.3g}, "
             f"{incomplete} incomplete (H={cfg.hurst}, d={cfg.dim})")
    return 3 if incomplete else 0


def _run_phase(rc: RunConfig) -> int:
    cfg0 = ModelConfig(hurst=rc.hurst[0], dim=rc.dim[0], horizon=rc.horizon)
    tol = {} if rc.tol is None else {"quad_rel_tol": rc.tol}
    points = phase_grid(rc.hurst, rc.dim, _schedule(rc, cfg0), horizon=rc.horizon, **tol)
    rows = []
    summaries = []
    status = 0
    for pt in points:
        if isinstance(pt, PhaseError):
            rows.append({"hurst": pt.hurst, "dim": pt.dim, "verdict": None,
                         "fitted_rate": None, "error": pt.message})
            summaries.append(f"H={pt.hurst} d={pt.dim}: error ({pt.kind})")
            if pt.kind == "indeterminate":
                status = 4
            elif pt.kind == "budget" and status == 0:
                status = 3
        else:
            rows.append({"hurst": pt.hurst, "dim": pt.dim, "verdict": pt.verdict,
                         "fitted_rate": _num(pt.fitted_rate), "error": None})
            summaries.append(f"H={pt.hurst} d={pt.dim}: {pt.verdict}")
    verdict = rows[0]["verdict"] if len(rows) == 1 else None
    _emit(rc, _report(rc, {"rows": rows, "verdict": verdict}))
    _say(rc, "phase: " + "; ".join(summaries))
    return status


def _run_verify_lemmas(rc: RunConfig) -> int:
    suites = {
        "gamma_bound": _check_gamma_bound(),
        "superadditivity": _check_superadditivity(rc.seed),
        "homogeneity": _check_homogeneity(rc.seed),
        "angular_asymptotics": _check_angular(),
    }
    report = _report(rc, {"rows": [
        {"suite": name, "passed": passed, "detail": detail}
        for name, (passed, detail) in suites.items()
    ]})
    _emit(rc, report)
    all_pass = all(passed for passed, _ in suites.values())
    line = ", ".join(f"{k}={'pass' if v[0] else 'FAIL'}" for k, v in suites.items())
    _say(rc, f"verify-lemmas: {line}")
    return 0 if all_pass else 1


def _check_gamma_bound():
    worst = 0.0
    checks = 0
    for alpha in (0.25, 0.5, 1.0, 2.0, 4.0):
        k = covkernel.gamma_bound_k(alpha)
        for frac in (0.25, 0.5, 0.75):
            e = alpha * frac
            for x in np.logspace(-6, 6, 121):
                excess = covkernel.lower_inc_gamma(alpha, x) - k * x**e
                worst = max(worst, excess)
                checks += 1
    return worst <= 0.0, f"{checks} checks, worst excess {worst:.3e}"


def _check_superadditivity(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for h in (0.25, 0.5, 0.75):
        t = rng.uniform(0.0, 1.0, 100_000)
        v = t * rng.uniform(0.0, 1.0, t.size)
        s = rng.uniform(0.0, 1.0, t.size)
        u = s * rng.uniform(0.0, 1.0, t.size)
        lhs = covkernel.det_var_z(s, t, u, v, h)
        rhs = covkernel.phi_det(t, v, h) + covkernel.phi_det(s, u, h)
        scale = np.maximum(1.0, lhs + rhs)
        worst = max(worst, float(((rhs - lhs) / scale).max()))
    return worst <= 1e-12, f"worst normalized violation {worst:.3e}"


def _check_homogeneity(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for h in (0.25, 0.5, 0.75):
        t = rng.uniform(0.01, 1.0, 10_000)
        v = rng.uniform(0.01, 1.0, t.size)
        c = rng.uniform(0.01, 10.0, t.size)
        base = covkernel.phi_det(t, v, h)
        scaled = covkernel.phi_det(c * t, c * v, h)
        rel = np.abs(scaled - c ** (4.0 * h) * base) / np.maximum(np.abs(scaled), 1e-300)
        worst = max(worst, float(rel.max()))
    return worst <= 1e-9, f"worst relative mismatch {worst:.3e}"


def _check_angular():
    theta = 1e-5
    ok = True
    details = []
    for h in (0.25, 0.5, 0.75):
        lo = covkernel.phi_angular(theta, h) / theta ** (2.0 * h)
        hi = covkernel.phi_angular(math.pi / 4.0 - theta, h) / theta ** (2.0 * h)
        details.append(f"H={h}: {lo:.4f}/{hi:.4f}")
        ok = ok and 0.9 <= lo <= 1.1 and 0.9 <= hi <= 1.1
    return ok, "ratios to theta^2H at both endpoints: " + "; ".join(details)


_RUNNERS = {
    "simulate": _run_simulate,
    "estimate": _run_estimate,
    "moments": _run_moments,
    "sweep": _run_sweep,
    "phase": _run_phase,
    "verify-lemmas": _run_verify_lemmas,
}


def run(rc: RunConfig) -> int:
    return _RUNNERS[rc.command](rc)


def main(argv=None) -> int:
    try:
        rc = parse_args(sys.argv[1:] if argv is None else argv)
        return run(rc)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuadratureBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except IndeterminateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
